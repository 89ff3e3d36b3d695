"""Q_lca and Q_match over the integer-coded sample (``lca_codes``,
``count_matches``, ``SampleStore._mask``, ``PatternInputs.match_sets``)
vs the pure-Python references ``lca_reference`` and ``match_reference``
and the comparison-based mask."""
import random

import numpy as np
import pytest

from repro.patterns.lca import _word_layout, lca_codes, lca_reference
from repro.patterns.matching import Candidates, count_matches, match_reference
from repro.patterns.pattern import Pattern
from repro.summarize.metrics import SampleStore
from repro.summarize.pipeline import PatternInputs


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


def _comparison_mask(rows, p):
    """Which rows of one rule's coded sample ``p`` matches, by comparing
    codes column by column: ``SampleStore._mask`` before the bitsets."""
    try:
        gid = rows.goal_vectors.index(p.goals)
        consts = [(c, rows.index[c][a]) for c, a in enumerate(p.args) if a is not None]
    except (ValueError, KeyError):
        return np.zeros(len(rows), dtype=bool)
    mask = rows.goal_ids == gid
    for c, code in consts:
        mask &= rows.codes[:, c] == code
    return mask


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
            counts = count_matches(codes, goals, coded.bits())
            pats = _decoded(coded, codes, goals)
            want = match_reference(pats, rows)
            assert dict(zip(pats, counts.tolist())) == want

    def test_chunked_counts_equal_unchunked(self, monkeypatch):
        coded, codes, goals = _lca(ROWS_GROUPS)
        whole = count_matches(codes, goals, coded.bits())
        monkeypatch.setattr("repro.patterns.matching.CHUNK_WORDS", 1)
        monkeypatch.setattr("repro.patterns.lca.CHUNK_PAIRS", 5)
        codes2, goals2 = lca_codes(coded.codes, coded.goal_ids)
        assert np.array_equal(codes, codes2) and np.array_equal(goals, goals2)
        chunked = count_matches(codes, goals, coded.bits())
        assert np.array_equal(whole, chunked)

    def test_collect_patterns(self):
        rows = sorted(set(ROWS_A), key=repr)
        coded, codes, goals = _lca(rows)
        bits = coded.bits()
        counts = count_matches(codes, goals, bits)
        ps = Candidates("rex", ("X", "Z"), coded, bits, codes, goals, counts).patterns()
        assert all(p.rule_id == "rex" for p in ps)
        assert all(0 < p.cp <= 1 for p in ps)
        # the (X, Z)-(F,F) all-placeholder pattern covers the 3 F,F rows
        allp = [p for p in ps if p.args == (None, None) and p.goals == (False, False)]
        assert allp and allp[0].count == 3

    def test_collect_patterns_weight(self):
        rows = sorted(set(ROWS_A), key=repr)
        coded = _coded(rows, weight=0.5)
        codes, goals = lca_codes(coded.codes, coded.goal_ids)
        bits = coded.bits()
        counts = count_matches(codes, goals, bits)
        ps = Candidates("rex", ("X", "Z"), coded, bits, codes, goals, counts).patterns()
        allp = [p for p in ps if p.args == (None, None) and p.goals == (False, False)]
        assert allp[0].cp == pytest.approx(0.5 * 3 / 5)


class TestBitsetMatch:
    """``count_matches`` over packed row bitsets: 64 rows to a word, 8 to
    a byte, so the row counts straddle both, and patterns split across
    chunks of one pattern, three, or all."""

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    @pytest.mark.parametrize("n", [0, 1, 7, 13, 64, 65, 150])
    def test_counts_match_reference(self, monkeypatch, n, chunk):
        monkeypatch.setattr("repro.patterns.matching.CHUNK_WORDS", chunk)
        rows = _random_rows(n, n=n)
        coded = _coded(rows)
        codes, goals = lca_codes(coded.codes, coded.goal_ids)
        if n:  # random patterns too: codes and placeholders, any goal group
            rng = np.random.default_rng(n)
            highs = [len(v) for v in coded.values]
            rand = np.stack([rng.integers(-1, h, 50) for h in highs], axis=1)
            codes = np.concatenate([codes, rand])
            goals = np.concatenate(
                [goals, rng.integers(0, len(coded.goal_vectors), 50)]
            )
        counts = count_matches(codes, goals, coded.bits())
        pats = _decoded(coded, codes, goals)
        want = match_reference(pats, rows)
        assert [want[p] for p in pats] == counts.tolist()
        if n >= 64:
            assert len(coded.goal_vectors) == 4  # every goal group


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

    def test_match_sets_equal_comparison_masks(self):
        """Two rules of different widths, row counts off the byte and word
        boundaries, coded candidates of both rules searched in mixed
        order, and patterns with constants or goal vectors the sample
        lacks."""
        store = SampleStore()
        store.add_rule("r", _random_rows(1, n=70), 0.25)
        store.add_rule("s", _random_rows(2, n=13, arity=2, dom=3), 0.75)
        rng = np.random.default_rng(5)
        cands = []
        for rule_id, rows in store.rules.items():
            highs = [len(v) for v in rows.values]
            codes = np.stack([rng.integers(-1, h, 30) for h in highs], axis=1)
            goals = rng.integers(0, len(rows.goal_vectors), 30)
            names = tuple("ABC"[:len(highs)])
            cands.append(Candidates(
                rule_id, names, rows, rows.bits(), codes, goals,
                np.zeros(30, dtype=np.int64),
            ))
        inputs = PatternInputs(cands, store, {}, [])
        idx = rng.permutation(60)[:45]
        sets = inputs.match_sets(idx)
        masks = sets.fmask.astype(bool)
        r, s = store.rules["r"], store.rules["s"]
        decoded = inputs.decode(idx)
        for p, row in zip(decoded, masks):
            want = (
                [_comparison_mask(r, p), np.zeros(len(s), dtype=bool)]
                if p.rule_id == "r"
                else [np.zeros(len(r), dtype=bool), _comparison_mask(s, p)]
            )
            assert row.tolist() == np.concatenate(want).tolist()
        assert sets.w.tolist() == [0.25 / 70] * 70 + [0.75 / 13] * 13
        assert sets.info.tolist() == [p.info() for p in decoded]
        assert masks[:, :70].any() and masks[:, 70:].any()
        py_rng = random.Random(5)
        for _ in range(60):
            rule, names = py_rng.choice([("r", ("A", "B", "C")), ("s", ("A", "B"))])
            args = tuple(
                None if py_rng.random() < 0.4 else py_rng.randrange(5) for _ in names
            )
            goals = (py_rng.random() < 0.7, py_rng.random() < 0.5)
            p = Pattern(rule, names, args, goals)
            own = _comparison_mask(store.rules[p.rule_id], p)
            assert store._mask(p).tolist() == own.tolist()

    def test_constant_missing_from_sample_gives_empty_mask(self):
        store = SampleStore()
        store.add_rule("r", ROWS_A, 1.0)
        assert not store._mask(
            Pattern("r", ("X", "Z"), (99, None), (False, False))
        ).any()
        assert not store._mask(
            Pattern("r", ("X", "Z"), (None, None), (True, True))
        ).any()
