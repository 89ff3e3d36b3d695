"""Tests for completeness bounds via generalization/disjointness
(Sec. 8.1, including the exact numbers of Example 10)."""
import random

import pytest

from repro.summarize.bounds import cp_lower, cp_upper, s_lb, s_ub
from tests.test_patterns_pure import mk
from tests.test_topk import _random_instance


class TestExample10:
    def setup_method(self):
        self.p = mk((2, None), cp=0.44)
        self.p_prime = mk((3, None), cp=0.55)
        self.p_dblprime = mk((2, 1), cp=0.1)
        self.S = [self.p, self.p_prime, self.p_dblprime]

    def test_s_ub(self):
        assert set(s_ub(self.S)) == {self.p, self.p_prime}

    def test_s_lb(self):
        assert set(s_lb(self.S)) == {self.p, self.p_prime}

    def test_bounds_099(self):
        assert cp_lower(self.S) == pytest.approx(0.99)
        assert cp_upper(self.S) == pytest.approx(0.99)


class TestSUb:
    def test_keeps_all_when_incomparable(self):
        S = [mk((1, None), cp=0.2), mk((None, 2), cp=0.3)]
        assert set(s_ub(S)) == set(S)

    def test_drops_generalized(self):
        gen = mk((None, None), cp=0.9)
        spec = mk((1, None), cp=0.2)
        assert s_ub([gen, spec]) == [gen]

    def test_chain_of_generalization(self):
        a = mk((1, 2), cp=0.1)
        b = mk((1, None), cp=0.3)
        c = mk((None, None), cp=0.9)
        assert s_ub([a, b, c]) == [c]

    def test_empty(self):
        assert s_ub([]) == []


class TestSLb:
    def test_singleton(self):
        p = mk((1, None), cp=0.4)
        assert s_lb([p]) == [p]

    def test_picks_max_weight_disjoint(self):
        a = mk((1, None), cp=0.4)
        b = mk((2, None), cp=0.4)
        c = mk((None, None), cp=0.7)  # overlaps both
        assert set(s_lb([a, b, c])) == {a, b}

    def test_prefers_single_heavy_overlapper(self):
        a = mk((1, None), cp=0.1)
        b = mk((2, None), cp=0.1)
        c = mk((None, None), cp=0.9)
        assert s_lb([a, b, c]) == [c]

    def test_too_many_raises(self):
        with pytest.raises(ValueError):
            s_lb([mk((i, None), cp=0.1) for i in range(21)])

    def test_empty(self):
        assert s_lb([]) == []


class TestCpBounds:
    def test_upper_capped_at_one(self):
        S = [mk((1, None), cp=0.8), mk((2, None), cp=0.8)]
        assert cp_upper(S) == 1.0

    def test_lower_le_upper(self):
        S = [mk((1, None), cp=0.5), mk((None, 2), cp=0.5), mk((None, None), cp=0.6)]
        assert cp_lower(S) <= cp_upper(S)

    def test_lower_at_least_max_single(self):
        S = [mk((1, None), cp=0.5), mk((None, 2), cp=0.3)]
        assert cp_lower(S) >= 0.5

    def test_disjoint_sum_exact(self):
        S = [mk((1, None), cp=0.3), mk((2, None), cp=0.2)]
        assert cp_lower(S) == pytest.approx(0.5)
        assert cp_upper(S) == pytest.approx(0.5)

    def test_different_goal_groups_are_disjoint(self):
        S = [mk((None, None), (True, False), cp=0.4),
             mk((None, None), (False, False), cp=0.35)]
        assert cp_lower(S) == pytest.approx(0.75)
        assert cp_upper(S) == pytest.approx(0.75)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_cp_within_bounds(self, seed):
        # on LCA patterns with exact cp estimates, every 3-subset's exact
        # cp over the sample lies between the Sec. 8.1 bounds
        patterns, store = _random_instance(seed)
        rng = random.Random(seed)
        for _ in range(20):
            S = rng.sample(patterns[:15], 3)
            cp = store.cp_of_set(S)
            assert cp_lower(S) - 1e-9 <= cp <= cp_upper(S) + 1e-9
