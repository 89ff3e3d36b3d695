"""Tests for the best-first top-k search (Sec. 8.2), validated against
brute force with exact-over-sample scoring on random instances."""
import random

import pytest

from repro.patterns.pattern import Pattern
from repro.summarize.metrics import SampleStore, harmonic, info_of_set
from repro.summarize.topk import topk_bestfirst, topk_exact, topk_greedy
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
        r = topk_bestfirst(ps, 3, _disjoint_store())
        assert set(r.patterns) == set(ps)
        assert r.proved_optimal

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            topk_bestfirst([], 3, SampleStore())

    def test_returns_k_patterns(self):
        patterns, store = _random_instance(0)
        r = topk_bestfirst(patterns[:20], 3, store)
        assert len(r.patterns) == 3

    def test_bounds_are_ordered(self):
        patterns, store = _random_instance(1)
        r = topk_bestfirst(patterns[:20], 3, store)
        assert r.score_lb <= r.score_ub + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_true_score_within_bounds(self, seed):
        patterns, store = _random_instance(seed)
        r = topk_bestfirst(patterns[:15], 3, store)
        true = store.score_of_set(r.patterns)
        assert r.score_lb - 1e-9 <= true <= r.score_ub + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_close_to_exact_optimum(self, seed):
        # complete candidates are scored exactly over the sample, so
        # best-first returns the exact optimum, with a proof
        patterns, store = _random_instance(seed, n_rows=25)
        pats = sorted(
            patterns, key=lambda p: (-p.cp, repr(p.args))
        )[:12]
        for k in (2, 3, 4):
            bf = topk_bestfirst(pats, k, store)
            ex = topk_exact(pats, k, store)
            assert bf.proved_optimal
            assert store.score_of_set(bf.patterns) == pytest.approx(
                ex.score_lb, abs=1e-12
            )
            assert bf.score_lb == pytest.approx(ex.score_lb, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_rule_store_equals_exact_optimum(self, seed):
        patterns, store = _two_rule_instance(seed)
        for k in (2, 3):
            bf = topk_bestfirst(patterns, k, store)
            ex = topk_exact(patterns, k, store)
            assert bf.proved_optimal
            assert store.score_of_set(bf.patterns) == pytest.approx(
                ex.score_lb, abs=1e-12
            )

    def test_k_one_picks_best_singleton(self):
        patterns, store = _random_instance(3)
        r = topk_bestfirst(patterns, 1, store)
        best = max(patterns, key=lambda p: store.score_of_set([p]))
        assert store.score_of_set(r.patterns) == pytest.approx(
            store.score_of_set([best])
        )

    def test_pop_budget_falls_back(self):
        # out of pops: still k patterns, scored exactly, at least greedy's
        patterns, store = _random_instance(0)  # needs 8 pops for a proof
        r = topk_bestfirst(patterns[:20], 3, store, max_pops=2)
        assert len(r.patterns) == 3
        assert not r.proved_optimal
        assert r.score_lb == pytest.approx(store.score_of_set(r.patterns))
        greedy = topk_greedy(patterns[:20], 3, store)
        assert r.score_lb >= greedy.score_lb - 1e-12

    def test_disjoint_patterns_proved(self):
        ps = [
            mk((1, 1), cp=0.3), mk((2, 2), cp=0.3), mk((3, 3), cp=0.2),
            mk((4, 4), cp=0.1), mk((5, 5), cp=0.05),
        ]
        r = topk_bestfirst(ps, 3, _disjoint_store())
        # all-constant patterns: info 1.0 each, disjoint → exact cp known
        assert r.proved_optimal
        assert r.score_lb == pytest.approx(r.score_ub)
        assert r.score_lb == pytest.approx(harmonic(0.8, 1.0))
        assert {p.args for p in r.patterns} == {(1, 1), (2, 2), (3, 3)}


class TestGreedy:
    def test_returns_k(self):
        patterns, store = _random_instance(5)
        r = topk_greedy(patterns, 3, store)
        assert len(r.patterns) == 3
        assert r.score_lb == pytest.approx(store.score_of_set(r.patterns))

    def test_handles_small_pool(self):
        r = topk_greedy([mk((1, None), cp=0.3)], 5, _disjoint_store())
        assert len(r.patterns) == 1


class TestExact:
    def test_beats_or_ties_greedy(self):
        patterns, store = _random_instance(6, n_rows=20)
        pats = patterns[:10]
        ex = topk_exact(pats, 2, store)
        gr = topk_greedy(pats, 2, store)
        assert ex.score_lb >= store.score_of_set(gr.patterns) - 1e-9

    def test_info_consistency(self):
        patterns, store = _random_instance(7, n_rows=20)
        ex = topk_exact(patterns[:8], 2, store)
        assert store.score_of_set(ex.patterns) == pytest.approx(ex.score_lb)
        assert 0.0 <= info_of_set(ex.patterns) <= 1.0
