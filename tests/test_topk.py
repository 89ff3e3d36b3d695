"""Tests for the best-first top-k search (Sec. 8.2), validated against
brute force with exact-over-sample scoring on random instances."""
import random

import numpy as np
import pytest

from repro.patterns.lca import lca_codes
from repro.patterns.matching import Candidates, count_matches
from repro.patterns.pattern import Pattern
from repro.summarize import pipeline
from repro.summarize.metrics import SampleStore, harmonic, info_of_set
from repro.summarize.pipeline import PatternInputs, select_topk
from repro.summarize.topk import MatchSets, rank_key, topk_bestfirst, topk_exact
from tests.test_patterns_pure import mk


def _random_rows(seed, n_rows=40, arity=3, dom=4):
    rng = random.Random(seed)
    return [
        (
            tuple(rng.randrange(dom) for _ in range(arity)),
            (rng.random() < 0.7, rng.random() < 0.5),
        )
        for _ in range(n_rows)
    ]


def _lca_patterns(rows, rule_id="r", weight=1.0):
    """The LCA patterns of ``rows`` with exact cp estimates — the
    realistic search input (estimates consistent with the store)."""
    from repro.patterns.lca import lca_reference
    from repro.patterns.matching import match_reference

    pats = sorted(lca_reference(rows), key=repr)
    counts = match_reference(pats, rows)
    return [
        Pattern(
            rule_id=rule_id,
            var_names=tuple(f"V{i}" for i in range(len(args))),
            args=args,
            goals=goals,
            cp=weight * counts[(args, goals)] / len(rows),
            count=counts[(args, goals)],
        )
        for args, goals in pats
    ]


def _random_instance(seed, n_rows=40, arity=3, dom=4):
    """A random sample + its LCA patterns."""
    rows = _random_rows(seed, n_rows, arity, dom)
    store = SampleStore()
    store.add_rule("r", rows, 1.0)
    return _lca_patterns(rows), store


def _two_rule_instance(seed):
    """Two rules with unequal weights (0.7 / 0.3) and different sample
    sizes: cp(S) must weight each rule's rows by weight / n."""
    r_rows = _random_rows(seed, n_rows=24)
    s_rows = _random_rows(seed + 50, n_rows=15, arity=2, dom=3)
    store = SampleStore()
    store.add_rule("r", r_rows, 0.7)
    store.add_rule("s", s_rows, 0.3)
    patterns = (
        _lca_patterns(r_rows, "r", 0.7)[:8] + _lca_patterns(s_rows, "s", 0.3)[:6]
    )
    return patterns, store


def _sets(pats, store):
    """The search's input for ``pats``, built on the :class:`Pattern`
    path: each pattern's ``SampleStore._mask`` placed at its rule's rows,
    the rules laid end to end in the store's order."""
    offsets, start = {}, 0
    for rule_id, rows in store.rules.items():
        offsets[rule_id] = start
        start += len(rows)
    masks = np.zeros((len(pats), start), dtype=bool)
    for i, p in enumerate(pats):
        lo = offsets[p.rule_id]
        masks[i, lo:lo + store.n_rows(p.rule_id)] = store._mask(p)
    w = np.concatenate(
        [np.full(len(r), r.weight / len(r)) for r in store.rules.values()]
        or [np.zeros(0)]
    )
    return MatchSets(masks, w, np.array([p.info() for p in pats]))


def _search(patterns, k, store, **kwargs):
    """``topk_bestfirst`` over ``patterns`` in ``rank_key`` order: the
    chosen patterns and the search result."""
    pats = sorted(patterns, key=rank_key)
    r = topk_bestfirst(_sets(pats, store), k, **kwargs)
    return tuple(pats[i] for i in r.chosen), r


def _greedy(patterns, k, store):
    """The search's greedy seed over ``patterns`` in ``rank_key`` order:
    the chosen patterns and their score."""
    pats = sorted(patterns, key=rank_key)
    chosen, sc = _sets(pats, store).greedy(k, ())
    return tuple(pats[i] for i in chosen), sc


def _coded_inputs(rules):
    """Phases 2–3 over hand-made samples ``(rule id, rows, raw weight)``:
    LCA candidates, their counts and the rows' bitsets, as
    ``pattern_inputs`` builds them."""
    store = SampleStore()
    for rule_id, rows, weight in rules:
        store.add_rule(rule_id, rows, weight)
    store.normalize_weights()
    cands = []
    for rule_id, rows in store.rules.items():
        bits = rows.bits()
        codes, goals = lca_codes(rows.codes, rows.goal_ids)
        names = tuple(f"V{i}" for i in range(rows.codes.shape[1]))
        cands.append(Candidates(
            rule_id, names, rows, bits, codes, goals,
            count_matches(codes, goals, bits),
        ))
    return PatternInputs(cands, store, {}, [])


def _disjoint_store():
    # cp 0.3, 0.3, 0.2, 0.1, 0.05 for the all-constant patterns (i, i)
    counts = {1: 6, 2: 6, 3: 4, 4: 2, 5: 1, 6: 1}
    rows = [((i, i), (False, False)) for i, c in counts.items() for _ in range(c)]
    store = SampleStore()
    store.add_rule("rex", rows, 1.0)
    return store


class TestBestFirst:
    def test_fewer_patterns_than_k(self):
        ps = [mk((1, None), cp=0.3)]
        chosen, r = _search(ps, 3, _disjoint_store())
        assert set(chosen) == set(ps)
        assert r.proved_optimal

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no patterns"):
            _search([], 3, SampleStore())

    def test_returns_k_patterns(self):
        patterns, store = _random_instance(0)
        chosen, _ = _search(patterns[:20], 3, store)
        assert len(chosen) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_true_score_within_bounds(self, seed):
        patterns, store = _random_instance(seed)
        chosen, r = _search(patterns[:15], 3, store)
        true = store.score_of_set(chosen)
        assert r.score - 1e-9 <= true <= r.score + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_close_to_exact_optimum(self, seed):
        # complete candidates are scored exactly over the sample, so
        # best-first returns the exact optimum, with a proof
        patterns, store = _random_instance(seed, n_rows=25)
        pats = sorted(
            patterns, key=lambda p: (-p.cp, repr(p.args))
        )[:12]
        for k in (2, 3, 4):
            chosen, bf = _search(pats, k, store)
            ex = topk_exact(pats, k, store)
            assert bf.proved_optimal
            assert store.score_of_set(chosen) == pytest.approx(
                ex.score, abs=1e-12
            )
            assert bf.score == pytest.approx(ex.score, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_rule_store_equals_exact_optimum(self, seed):
        patterns, store = _two_rule_instance(seed)
        for k in (2, 3):
            chosen, bf = _search(patterns, k, store)
            ex = topk_exact(patterns, k, store)
            assert bf.proved_optimal
            assert store.score_of_set(chosen) == pytest.approx(
                ex.score, abs=1e-12
            )

    def test_k_one_picks_best_singleton(self):
        patterns, store = _random_instance(3)
        chosen, _ = _search(patterns, 1, store)
        best = max(patterns, key=lambda p: store.score_of_set([p]))
        assert store.score_of_set(chosen) == pytest.approx(
            store.score_of_set([best])
        )

    def test_pop_budget_falls_back(self):
        # out of pops: still k patterns, scored exactly, at least greedy's
        patterns, store = _random_instance(0)  # needs 8 pops for a proof
        chosen, r = _search(patterns[:20], 3, store, max_pops=2)
        assert len(chosen) == 3
        assert not r.proved_optimal
        assert r.score == pytest.approx(store.score_of_set(chosen))
        _, greedy_sc = _greedy(patterns[:20], 3, store)
        assert r.score >= greedy_sc - 1e-12

    def test_disjoint_patterns_proved(self):
        ps = [
            mk((1, 1), cp=0.3), mk((2, 2), cp=0.3), mk((3, 3), cp=0.2),
            mk((4, 4), cp=0.1), mk((5, 5), cp=0.05),
        ]
        chosen, r = _search(ps, 3, _disjoint_store())
        # all-constant patterns: info 1.0 each, disjoint → exact cp known
        assert r.proved_optimal
        assert r.score == pytest.approx(harmonic(0.8, 1.0))
        assert {p.args for p in chosen} == {(1, 1), (2, 2), (3, 3)}


class TestSelectTopk:
    """Phase 4 over coded candidates: masks from phase 3's bitsets, only
    the chosen decoded."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_exact_over_kept(self, monkeypatch, seed):
        # two rules of different widths, row counts off the 64-row word
        monkeypatch.setattr(pipeline, "MAX_PATTERNS", 14)
        inputs = _coded_inputs([
            ("r", _random_rows(seed, n_rows=70), 0.6),
            ("s", _random_rows(seed + 50, n_rows=13, arity=2, dom=3), 0.4),
        ])
        store = inputs.store
        kept = sorted(inputs.patterns, key=rank_key)[:14]
        assert {p.rule_id for p in kept} == {"r", "s"}
        for k in (2, 3):
            r = select_topk(inputs, k)
            ex = topk_exact(kept, k, store)
            chosen = inputs.decode(r.chosen)
            assert r.proved_optimal and len(chosen) == k
            assert set(chosen) <= set(kept)
            assert r.score == pytest.approx(ex.score, abs=1e-12)
            assert store.score_of_set(chosen) == pytest.approx(ex.score, abs=1e-12)
            assert inputs.completeness(r.chosen) == store.cp_of_set(chosen)


class TestGreedy:
    """The search's greedy seed (``MatchSets.greedy``)."""

    def test_returns_k(self):
        patterns, store = _random_instance(5)
        chosen, sc = _greedy(patterns, 3, store)
        assert len(set(chosen)) == 3
        assert sc == pytest.approx(store.score_of_set(chosen))

    def test_handles_small_pool(self):
        # a pool no larger than k is the summary; no greedy step runs
        chosen, r = _search([mk((1, None), cp=0.3)], 5, _disjoint_store())
        assert len(chosen) == 1 and r.pops == 0


class TestExact:
    def test_beats_or_ties_greedy(self):
        patterns, store = _random_instance(6, n_rows=20)
        pats = patterns[:10]
        ex = topk_exact(pats, 2, store)
        greedy, _ = _greedy(pats, 2, store)
        assert ex.score >= store.score_of_set(greedy) - 1e-9

    def test_info_consistency(self):
        patterns, store = _random_instance(7, n_rows=20)
        pats = patterns[:8]
        ex = topk_exact(pats, 2, store)
        chosen = [pats[i] for i in ex.chosen]
        assert store.score_of_set(chosen) == pytest.approx(ex.score)
        assert 0.0 <= info_of_set(chosen) <= 1.0
