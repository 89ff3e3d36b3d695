"""Top-k summary construction (Sec. 8.2).

``topk_bestfirst`` is the paper's best-first search: a priority queue of
candidate pattern sets ordered by a score upper bound, where candidates
grow one pattern at a time. The paper bounds cp(S) with ≼_p/⊥_p
(``bounds.py``) because its sample lives in the DBMS. Ours is on the
driver, so cp(S) is exact over the sample: cp(S) = w · OR(match masks
of S), each row weighted by weight_r / n_r of its rule. Hence:

* a complete (size-k) candidate is scored exactly, so its lb = ub;
* an incomplete candidate C of size j is bounded by cp(C) plus the k − j
  largest marginal gains of later patterns w.r.t. the union of C's parent
  (the paper's max-cp extension bound, made tighter; it stays valid
  because marginal gains only shrink as the union grows, and the gains
  w.r.t. the parent's union come from the pass that scores C itself), and
  by info(C) plus the k − j largest later informativeness values.

The incumbent starts as the greedy solution and is improved by a greedy
completion ("dive") of every popped single-pattern candidate, a
multi-start greedy. Once no queued bound can beat the incumbent it is
optimal over the sample. If the pop budget runs out first, the best
complete candidate found is returned with ``proved_optimal = False``.

``topk_exact`` (brute force over the sample) is the test oracle.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.patterns.pattern import Pattern
from repro.summarize.metrics import SampleStore, harmonic

#: Slack for float rounding when comparing scores and bounds.
EPS = 1e-12


@dataclass
class SearchResult:
    """Outcome of a top-k search."""

    patterns: tuple[Pattern, ...]
    score_lb: float
    score_ub: float
    proved_optimal: bool
    pops: int


def rank_key(p: Pattern) -> tuple:
    """Search order: singleton score, then cp (both descending), then the
    pattern's canonical order — a total order, so ties never depend on
    the order the candidates arrived in."""
    return (-harmonic(p.cp, p.info()), -p.cp, p.sort_key())


def _harmonic(cp: np.ndarray, info: np.ndarray) -> np.ndarray:
    s = cp + info
    return np.where(s > 0, 2.0 * cp * info / np.where(s > 0, s, 1.0), 0.0)


class _Sets:
    """Match masks of ranked patterns over the sample, for exact cp."""

    def __init__(self, pats: Sequence[Pattern], store: SampleStore) -> None:
        masks, self.w = store.mask_matrix(pats)
        self.fmask = masks.astype(float)
        self.wmask = self.fmask * self.w
        self.info = np.array([p.info() for p in pats])

    def union(self, cand: Sequence[int]) -> np.ndarray:
        if not cand:
            return np.zeros(self.fmask.shape[1])
        return self.fmask[list(cand)].max(axis=0)

    def score(self, cand: Sequence[int]) -> float:
        if not cand:
            return 0.0
        cp = float(self.w @ self.union(cand))
        return harmonic(cp, float(self.info[list(cand)].sum()) / len(cand))

    def greedy(self, k: int, start: Sequence[int]) -> tuple[tuple[int, ...], float]:
        """Extend ``start`` to k patterns, each time adding the one that
        maximizes the exact score of the set so far."""
        chosen = list(start)
        union = self.union(chosen)
        cp = float(self.w @ union)
        info = float(self.info[chosen].sum())
        while len(chosen) < k:
            gains = self.wmask @ (1.0 - union)
            sc = _harmonic(cp + gains, (info + self.info) / (len(chosen) + 1))
            sc[chosen] = -np.inf
            i = int(np.argmax(sc))
            chosen.append(i)
            union = np.maximum(union, self.fmask[i])
            cp += float(gains[i])
            info += float(self.info[i])
        return tuple(sorted(chosen)), harmonic(cp, info / k)


def topk_bestfirst(
    patterns: Sequence[Pattern],
    k: int,
    store: SampleStore,
    max_pops: int = 100_000,
) -> SearchResult:
    """Best-first search for the top-k summary, scored exactly over the
    sample held by ``store``."""
    pats = sorted(patterns, key=rank_key)
    if not pats:
        raise ValueError("no patterns to summarize")
    sets = _Sets(pats, store)
    n = len(pats)
    if n <= k:
        s = sets.score(range(n))
        return SearchResult(tuple(pats), s, s, True, 0)

    # top_info[i, m]: sum of the m largest informativeness values in pats[i:]
    top_info = np.zeros((n + 1, k + 1))
    for i in range(n):
        best_infos = np.sort(sets.info[i:])[::-1][:k]
        top_info[i, 1:len(best_infos) + 1] = np.cumsum(best_infos)

    best, best_sc = sets.greedy(k, ())
    later = np.triu(np.ones((n, n), dtype=bool), 1)  # later[a, b]: b > a
    heap: list[tuple[float, int, tuple[int, ...]]] = [(-np.inf, 0, ())]
    seq = 1
    pops = 0
    proved = False
    while heap and pops < max_pops:
        neg_ub, _, cand = heapq.heappop(heap)
        pops += 1
        if -neg_ub <= best_sc + EPS:
            proved = True  # nothing queued can beat the incumbent
            break
        j = len(cand)
        start = cand[-1] + 1 if cand else 0
        union = sets.union(cand)
        cp_c = float(sets.w @ union)
        info_c = float(sets.info[list(cand)].sum())
        # exact marginal cp of each later pattern w.r.t. cand's union
        gains = sets.wmask[start:] @ (1.0 - union)
        if j + 1 == k:  # the children are complete: score them exactly
            sc = _harmonic(cp_c + gains, (info_c + sets.info[start:]) / k)
            a = int(np.argmax(sc))
            if sc[a] > best_sc + EPS:
                best, best_sc = cand + (start + a,), float(sc[a])
            continue
        m = k - j - 1  # patterns each child still needs after it
        n_later = n - start
        if j == 1:  # multi-start greedy: complete each popped singleton
            dive, dive_sc = sets.greedy(k, cand)
            if dive_sc > best_sc + EPS:
                best, best_sc = dive, dive_sc
        # child a (pattern start + a) is bounded by its exact cp plus the m
        # largest gains of patterns after it w.r.t. cand's union, which
        # are no smaller than their gains w.r.t. the child's union; only
        # children with ≥ m patterns after them can still be completed
        viable = n_later - m
        after = np.where(later[start:start + viable, start:], gains[None, :], 0.0)
        top_gains = np.sort(after, axis=1)[:, n_later - m:].sum(axis=1)
        cp_ub = np.minimum(1.0, cp_c + gains[:viable] + top_gains)
        info_ub = (
            info_c
            + sets.info[start:start + viable]
            + top_info[start + 1:start + viable + 1, m]
        ) / k
        ub = _harmonic(cp_ub, info_ub)
        for a in np.flatnonzero(ub > best_sc + EPS).tolist():
            heapq.heappush(heap, (-float(ub[a]), seq, cand + (start + a,)))
            seq += 1
    else:
        proved = not heap  # queue drained: the incumbent dominates everything

    return SearchResult(tuple(pats[i] for i in best), best_sc, best_sc, proved, pops)


def topk_greedy(
    patterns: Sequence[Pattern], k: int, store: SampleStore
) -> SearchResult:
    """Greedy top-k: repeatedly add the pattern that maximizes the exact
    score of the set so far — the search's seed."""
    pats = sorted(patterns, key=rank_key)
    if not pats:
        return SearchResult((), 0.0, 0.0, False, 0)
    chosen, sc = _Sets(pats, store).greedy(min(k, len(pats)), ())
    return SearchResult(tuple(pats[i] for i in chosen), sc, sc, False, 0)


def topk_exact(
    patterns: Sequence[Pattern], k: int, store: SampleStore
) -> SearchResult:
    """Brute-force argmax of the exact-over-sample score (test oracle)."""
    pats = list(patterns)
    kk = min(k, len(pats))
    best: tuple[Pattern, ...] | None = None
    best_score = float("-inf")
    for combo in combinations(pats, kk):
        s = store.score_of_set(combo)
        if s > best_score:
            best, best_score = combo, s
    assert best is not None
    return SearchResult(best, best_score, best_score, True, 0)
