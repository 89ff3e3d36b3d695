"""Q_lca and Q_match over the integer-coded sample (``lca_codes``,
``count_matches``, ``SampleStore._mask``) vs the pure-Python references
``lca_reference`` and ``match_reference``."""
import random

import numpy as np
import pytest

from repro.patterns.lca import _word_layout, lca_codes, lca_reference
from repro.patterns.matching import collect_patterns, count_matches, match_reference
from repro.patterns.pattern import Pattern
from repro.summarize.metrics import SampleStore


def _coded(rows, weight=1.0):
    store = SampleStore()
    store.add_rule("rex", rows, weight)
    return store.rules["rex"]


def _lca(rows):
    coded = _coded(rows)
    codes, goals = lca_codes(coded.codes, coded.goal_ids)
    return coded, codes, goals


def _decoded(coded, codes, goals):
    return [
        (coded.decode(c), coded.goal_vectors[g])
        for c, g in zip(codes.tolist(), goals.tolist())
    ]


ROWS_A = [
    ((2, 1), (False, False)), ((2, 2), (False, False)),
    ((3, 1), (False, False)), ((2, 4), (True, False)),
    ((3, 4), (True, False)),
]

ROWS_B = [((i % 3, i % 2), (i % 2 == 0, True)) for i in range(9)]

ROWS_NONE = [
    ((1, None, "a"), (True,)), ((1, None, "b"), (True,)),
    ((None, 2, "a"), (True,)), ((1, 2, None), (True,)),
]

ROWS_GROUPS = [
    ((i % 4, i % 3, i % 5), (i % 2 == 0, i % 3 == 0, i % 5 == 0))
    for i in range(40)
]

# twelve columns of ~60 distinct values need 12 × 6 bits: two int64 words
_rng = random.Random(3)
ROWS_WIDE = [
    (tuple(_rng.randrange(1000) for _ in range(12)), (True,)) for _ in range(60)
]
ROWS_WIDE += [((r[0][0], 5) + r[0][2:], (True,)) for r in ROWS_WIDE[:20]]


def _random_rows(seed, n=40, arity=3, dom=4):
    rng = random.Random(seed)
    return [
        (
            tuple(None if rng.random() < 0.15 else rng.randrange(dom)
                  for _ in range(arity)),
            (rng.random() < 0.7, rng.random() < 0.5),
        )
        for _ in range(n)
    ]


class TestLcaSpark:
    @pytest.mark.parametrize(
        "rows",
        [ROWS_A, ROWS_B, ROWS_NONE, ROWS_GROUPS, ROWS_WIDE],
        ids=["A", "B", "none", "groups", "wide"],
    )
    def test_matches_reference(self, rows):
        coded, codes, goals = _lca(rows)
        got = _decoded(coded, codes, goals)
        assert len(got) == len(set(got))  # already distinct
        assert set(got) == lca_reference(sorted(set(rows), key=repr))

    def test_wide_rule_packs_into_two_words(self):
        assert len(_word_layout(_coded(ROWS_WIDE).codes)) == 2

    def test_single_row_gives_itself(self):
        coded, codes, goals = _lca([((1, 2), (True, True))])
        assert _decoded(coded, codes, goals) == [((1, 2), (True, True))]

    def test_null_encodes_placeholder(self):
        coded, codes, goals = _lca([((1, 2), (True, True)), ((1, 3), (True, True))])
        assert ((1, None), (True, True)) in _decoded(coded, codes, goals)

    def test_output_order_is_canonical(self):
        a = _lca(ROWS_GROUPS)
        b = _lca(list(reversed(ROWS_GROUPS)))
        assert _decoded(*a) == _decoded(*b)


class TestMatchSpark:
    def test_counts_match_reference(self):
        for rows in (ROWS_A, ROWS_NONE, ROWS_GROUPS, ROWS_WIDE):
            coded, codes, goals = _lca(rows)
            counts = count_matches(codes, goals, coded.codes, coded.goal_ids)
            pats = _decoded(coded, codes, goals)
            want = match_reference(pats, rows)
            assert dict(zip(pats, counts.tolist())) == want

    def test_chunked_counts_equal_unchunked(self, monkeypatch):
        coded, codes, goals = _lca(ROWS_GROUPS)
        whole = count_matches(codes, goals, coded.codes, coded.goal_ids)
        monkeypatch.setattr("repro.patterns.matching.CHUNK_CELLS", 7)
        monkeypatch.setattr("repro.patterns.lca.CHUNK_PAIRS", 5)
        codes2, goals2 = lca_codes(coded.codes, coded.goal_ids)
        assert np.array_equal(codes, codes2) and np.array_equal(goals, goals2)
        chunked = count_matches(codes, goals, coded.codes, coded.goal_ids)
        assert np.array_equal(whole, chunked)

    def test_collect_patterns(self):
        rows = sorted(set(ROWS_A), key=repr)
        coded, codes, goals = _lca(rows)
        counts = count_matches(codes, goals, coded.codes, coded.goal_ids)
        ps = collect_patterns(coded, "rex", ["X", "Z"], codes, goals, counts)
        assert all(p.rule_id == "rex" for p in ps)
        assert all(0 < p.cp <= 1 for p in ps)
        # the (X, Z)-(F,F) all-placeholder pattern covers the 3 F,F rows
        allp = [p for p in ps if p.args == (None, None) and p.goals == (False, False)]
        assert allp and allp[0].count == 3

    def test_collect_patterns_weight(self):
        rows = sorted(set(ROWS_A), key=repr)
        coded = _coded(rows, weight=0.5)
        codes, goals = lca_codes(coded.codes, coded.goal_ids)
        counts = count_matches(codes, goals, coded.codes, coded.goal_ids)
        ps = collect_patterns(coded, "rex", ["X", "Z"], codes, goals, counts)
        allp = [p for p in ps if p.args == (None, None) and p.goals == (False, False)]
        assert allp[0].cp == pytest.approx(0.5 * 3 / 5)


class TestMask:
    @pytest.mark.parametrize("seed", range(4))
    def test_mask_equals_match_reference(self, seed):
        rows = _random_rows(seed)
        store = SampleStore()
        store.add_rule("r", rows, 1.0)
        rng = random.Random(seed + 100)
        for _ in range(30):
            args = tuple(
                None if rng.random() < 0.4 else rng.randrange(4) for _ in range(3)
            )
            goals = (rng.random() < 0.5, rng.random() < 0.5)
            p = Pattern("r", ("A", "B", "C"), args, goals)
            mask = store._mask(p)
            want = [
                match_reference([(args, goals)], [row])[(args, goals)] == 1
                for row in rows
            ]
            assert mask.tolist() == want

    def test_constant_missing_from_sample_gives_empty_mask(self):
        store = SampleStore()
        store.add_rule("r", ROWS_A, 1.0)
        assert not store._mask(
            Pattern("r", ("X", "Z"), (99, None), (False, False))
        ).any()
        assert not store._mask(
            Pattern("r", ("X", "Z"), (None, None), (True, True))
        ).any()
