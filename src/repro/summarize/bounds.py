"""Completeness bounds from pattern generalization and disjointness (Sec. 8.1).

cp(S) cannot generally be computed from per-pattern completeness because
match sets overlap. But:

* if p1 ≼_p p2 (p2 generalizes p1) then M(p1) ⊆ M(p2) — so patterns
  generalized by another member contribute nothing beyond it; summing cp
  over the maximal patterns S_ub upper-bounds cp(S);
* if all patterns of S' ⊆ S are pairwise disjoint (⊥_p), their match
  sets are disjoint and cp(S) ≥ Σ_{p∈S'} cp(p); maximizing over S'
  (max-weight pairwise-disjoint subset — the weighted max-clique the
  paper notes; exact for the small |S| ≤ k sets we score) gives the
  lower bound S_lb.
"""
from __future__ import annotations

from typing import Sequence

from repro.patterns.pattern import Pattern, disjoint, generalizes


def s_ub(patterns: Sequence[Pattern]) -> list[Pattern]:
    """Maximal patterns of S under generalization: drop every pattern
    strictly generalized by another member."""
    out = []
    for i, p in enumerate(patterns):
        covered = any(
            j != i and generalizes(p, q) and p != q
            for j, q in enumerate(patterns)
        )
        if not covered:
            out.append(p)
    return out


def s_lb(patterns: Sequence[Pattern]) -> list[Pattern]:
    """Max-weight pairwise-disjoint subset of S (exact enumeration; the
    candidate sets scored during search have |S| ≤ k ≤ ~10)."""
    n = len(patterns)
    if n == 0:
        return []
    if n > 20:  # pragma: no cover - guarded by MAX_PATTERNS/k upstream
        raise ValueError("exact disjoint-subset search limited to 20 patterns")
    adj = [
        [disjoint(patterns[i], patterns[j]) for j in range(n)] for i in range(n)
    ]
    best_weight = -1.0
    best: list[int] = []

    def extend(start: int, chosen: list[int], weight: float) -> None:
        nonlocal best_weight, best
        if weight > best_weight:
            best_weight = weight
            best = list(chosen)
        for i in range(start, n):
            if all(adj[c][i] for c in chosen):
                chosen.append(i)
                extend(i + 1, chosen, weight + patterns[i].cp)
                chosen.pop()

    extend(0, [], 0.0)
    return [patterns[i] for i in best]


def cp_upper(patterns: Sequence[Pattern]) -> float:
    """c̄p(S) = min(1, Σ_{p ∈ S_ub} cp(p))."""
    return min(1.0, sum(p.cp for p in s_ub(patterns)))


def cp_lower(patterns: Sequence[Pattern]) -> float:
    """c̲p(S) = Σ_{p ∈ S_lb} cp(p), clamped into [0, c̄p(S)]."""
    lo = sum(p.cp for p in s_lb(patterns))
    return max(0.0, min(lo, cp_upper(patterns)))
