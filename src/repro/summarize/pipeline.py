"""End-to-end provenance summarization (Sec. 4's four phases).

``summarize`` runs, per rule of the UCQ¬< question:

1. **capture/sampling** — why: instrumented evaluation (+ uniform cut to
   n_S); why-not: the batch sampling pipeline of Sec. 5 (or the FULL
   enumeration when ``use_full``);
2. **pattern generation** — LCA candidates (Sec. 6);
3. **metric estimation** — match counting over the sample (Sec. 7);
4. **top-k construction** — best-first search (Sec. 8).

Phase 1 runs in Catalyst, because it touches the database: every rule
of the question is one SELECT of one Spark SQL statement
(``repro.engine.statement``), and one ``collect()`` brings each rule's
≤ n_S-row sample to the driver, where
:class:`SampleStore` keeps it as integer codes. Phases 2–4 work over
those codes in numpy on the driver; nothing in them launches a Spark
job. The per-phase timings mirror the per-phase bars of Figs. 6–7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.ast import Program
from repro.core.unify import WHY, PQuestion, UnifiedRule
from repro.engine.catalog import Catalog
from repro.patterns.lca import lca_codes
from repro.patterns.matching import Candidates, count_matches, unpack
from repro.patterns.pattern import Pattern
from repro.provenance.why import sample_why
from repro.provenance.whynot_full import whynot_full
from repro.sampling.whynot import sample_whynot
from repro.summarize.metrics import SampleStore, harmonic, info_of_set
from repro.summarize.topk import MatchSets, SearchResult, rank_order, topk_bestfirst

#: Candidates kept for the top-k search, strongest first (DESIGN.md).
MAX_PATTERNS = 64
#: Pop budget of the top-k search; past it the best complete candidate
#: found is returned with ``proved_optimal = False``.
MAX_POPS = 20_000


@dataclass
class Summary:
    """A top-k provenance summary plus quality metrics and phase timings."""

    question: PQuestion
    k: int
    n_s: int
    patterns: tuple[Pattern, ...]
    n_candidates: int
    completeness: float
    informativeness: float
    score: float
    proved_optimal: bool
    timings: dict[str, float]
    per_rule: list[dict] = field(default_factory=list)
    store: SampleStore = field(default_factory=SampleStore, repr=False)

    def pretty(self) -> str:
        lines = [
            f"top-{self.k} summary for {self.question.qtype} "
            f"{self.question.ptuple.pred}{tuple(a for a in self.question.ptuple.args)}: "
            f"cp={self.completeness:.3f} info={self.informativeness:.3f} "
            f"sc={self.score:.3f}"
        ]
        for p in self.patterns:
            lines.append(f"  [{p.cp:6.3f}] {p.pretty()}")
        return "\n".join(lines)


def _split(
    unified: UnifiedRule, rows: list[tuple]
) -> list[tuple[tuple, tuple[bool, ...]]]:
    """Rows in a sample's column order (unbound variables, then goals) as
    ``(args, goals)`` pairs."""
    n = len(unified.unbound)
    return [(tuple(r[:n]), tuple(map(bool, r[n:]))) for r in rows]


def _capture(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    n_s: int,
    seed: int,
    use_full: bool,
    max_n_os: int,
    max_full_derivations: int | None,
) -> list[tuple[UnifiedRule, list, float, dict]]:
    """Phase 1: per rule, (unified rule, collected sample rows as
    ``(args, goals)``, raw weight, shortfall stats).

    Raw weights are each rule's (estimated) share of |PROV(Φ)| before
    normalization: exact derivation counts for why / FULL why-not,
    estimated why-not sizes for sampled why-not. The stats are
    ``n_survivors`` (distinct derivations available before the n_S cut)
    and ``capped`` (the why-not over-sample hit ``max_n_os``).
    """
    out: list[tuple[UnifiedRule, list, float, dict]] = []
    if question.qtype == WHY:
        for u, rows, n in sample_why(catalog, program, question.ptuple, n_s, seed):
            out.append(
                (u, _split(u, rows), float(n), {"n_survivors": n, "capped": False})
            )
        return out
    if use_full:
        for u, rows in whynot_full(
            catalog, program, question.ptuple, max_full_derivations
        ):
            if rows:
                out.append(
                    (u, _split(u, rows), float(len(rows)),
                     {"n_survivors": len(rows), "capped": False})
                )
        return out
    for rs in sample_whynot(
        catalog, program, question.ptuple, n_s, seed=seed, max_n_os=max_n_os
    ):
        rows = _split(rs.unified, rs.rows)
        if rows:
            out.append(
                (
                    rs.unified,
                    rows,
                    float(rs.est_whynot_size),
                    {"n_survivors": rs.n_survivors, "capped": rs.capped},
                )
            )
    return out


@dataclass
class PatternInputs:
    """Output of phases 1–3: each rule's scored candidate patterns,
    integer-coded, with the row bitsets they were counted on, and the
    driver-side sample store, ready for top-k construction (the input of
    Fig. 8). Candidate indices count the rules' candidates end to end."""

    candidates: list[Candidates]
    store: SampleStore
    timings: dict[str, float]
    per_rule: list[dict]

    @property
    def n_candidates(self) -> int:
        return sum(map(len, self.candidates))

    @property
    def patterns(self) -> list[Pattern]:
        """Every candidate, decoded: rule by rule, each in LCA order."""
        return [p for c in self.candidates for p in c.patterns()]

    def _locate(self, idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate index's rule (position in ``candidates``) and
        index within that rule."""
        starts = np.cumsum([0] + [len(c) for c in self.candidates])
        rule = np.searchsorted(starts[1:], idx, side="right")
        return rule, np.asarray(idx, dtype=np.int64) - starts[rule]

    def decode(self, idx: Sequence[int]) -> list[Pattern]:
        """The candidates at ``idx``, decoded, in that order."""
        return [
            self.candidates[r].patterns([i])[0] for r, i in zip(*self._locate(idx))
        ]

    def match_sets(self, idx: Sequence[int]) -> MatchSets:
        """The search's input for the candidates at ``idx``: their match
        masks from phase 3's row bitsets, the row weights and their
        informativeness."""
        rule, local = self._locate(idx)
        n_rows = [len(c.rows) for c in self.candidates]
        offsets = np.cumsum([0] + n_rows)
        masks = np.zeros((len(idx), offsets[-1]), dtype=bool)
        info = np.zeros(len(idx))
        for r in np.unique(rule).tolist():
            c, at = self.candidates[r], rule == r
            masks[at, offsets[r]:offsets[r + 1]] = unpack(c.match(local[at]), n_rows[r])
            info[at] = c.info()[local[at]]
        w = np.repeat(
            [c.rows.weight / n if n else 0.0 for c, n in zip(self.candidates, n_rows)],
            n_rows,
        )
        return MatchSets(masks, w, info)

    def completeness(self, idx: Sequence[int]) -> float:
        """cp(S) over the sample of the candidates at ``idx``, from their
        match sets, summed as ``SampleStore.cp_of_set`` sums it for their
        patterns: rule by rule, in order of first appearance."""
        rule, local = self._locate(idx)
        total = 0.0
        for r in dict.fromkeys(rule.tolist()):
            c = self.candidates[r]
            total += c.rows.cp(c.match(local[rule == r]))
        return total


def pattern_inputs(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    n_s: int = 1000,
    seed: int = 0,
    use_full: bool = False,
    max_n_os: int = 5_000_000,
    max_full_derivations: int | None = 5_000_000,
) -> PatternInputs:
    """Run capture/sampling, LCA candidate generation, and metric
    estimation (phases 1–3 of Sec. 4)."""
    if n_s < 1:
        raise ValueError(f"n_s must be at least 1, got {n_s}")
    timings: dict[str, float] = {}

    # --- phase 1: capture / sampling, collected once and integer-coded ---
    t0 = time.perf_counter()
    captured = _capture(
        catalog, program, question, n_s, seed, use_full, max_n_os,
        max_full_derivations,
    )
    store = SampleStore()
    for u, rows, raw_weight, _ in captured:
        store.add_rule(u.rule_id, rows, raw_weight)
    store.normalize_weights()
    timings["sample"] = time.perf_counter() - t0

    # --- phase 2: pattern candidate generation (LCA) ---
    t0 = time.perf_counter()
    candidates = {
        rule_id: lca_codes(rows.codes, rows.goal_ids)
        for rule_id, rows in store.rules.items()
    }
    timings["pattern_gen"] = time.perf_counter() - t0

    # --- phase 3: metric estimation (match counting) ---
    t0 = time.perf_counter()
    scored: list[Candidates] = []
    for u, _, _, _ in captured:
        rows = store.rules[u.rule_id]
        bits = rows.bits()
        pat_codes, pat_goals = candidates[u.rule_id]
        scored.append(
            Candidates(
                u.rule_id, tuple(v.name for v in u.unbound), rows, bits,
                pat_codes, pat_goals, count_matches(pat_codes, pat_goals, bits),
            )
        )
    timings["metrics"] = time.perf_counter() - t0

    per_rule_stats = [
        {
            "rule_id": u.rule_id,
            "n_sample": len(store.rules[u.rule_id]),
            "n_candidates": len(candidates[u.rule_id][1]),
            "weight": store.rules[u.rule_id].weight,
            **shortfall,
        }
        for u, _, _, shortfall in captured
    ]
    return PatternInputs(
        candidates=scored, store=store, timings=timings, per_rule=per_rule_stats
    )


def select_topk(inputs: PatternInputs, k: int) -> SearchResult:
    """Phase 4: prune to the ``MAX_PATTERNS`` strongest candidates by
    singleton score, then cp, then canonical order (heuristic cap, see
    DESIGN.md), and run the best-first search over them. The result's
    ``chosen`` index ``inputs``' candidates, strongest first."""
    kept = rank_order(inputs.candidates)[:MAX_PATTERNS]
    result = topk_bestfirst(inputs.match_sets(kept), k, max_pops=MAX_POPS)
    return replace(result, chosen=tuple(kept[list(result.chosen)].tolist()))


def summarize(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    k: int = 3,
    n_s: int = 1000,
    seed: int = 0,
    use_full: bool = False,
    max_n_os: int = 5_000_000,
    max_full_derivations: int | None = 5_000_000,
) -> Summary:
    """Compute the top-k provenance summary S(Q, D, Φ, k)."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    t_start = time.perf_counter()
    inputs = pattern_inputs(
        catalog, program, question, n_s=n_s, seed=seed, use_full=use_full,
        max_n_os=max_n_os, max_full_derivations=max_full_derivations,
    )
    timings = dict(inputs.timings)
    store = inputs.store
    if not inputs.n_candidates:
        timings["topk"] = 0.0
        timings["total"] = time.perf_counter() - t_start
        return Summary(
            question, k, n_s, (), 0, 0.0, 0.0, 0.0, True, timings,
            inputs.per_rule, store,
        )

    # --- phase 4: top-k construction ---
    t0 = time.perf_counter()
    result = select_topk(inputs, k)
    patterns = tuple(inputs.decode(result.chosen))
    timings["topk"] = time.perf_counter() - t0

    completeness = inputs.completeness(result.chosen)
    informativeness = info_of_set(patterns)
    timings["total"] = time.perf_counter() - t_start
    return Summary(
        question=question,
        k=k,
        n_s=n_s,
        patterns=patterns,
        n_candidates=inputs.n_candidates,
        completeness=completeness,
        informativeness=informativeness,
        score=harmonic(completeness, informativeness),
        proved_optimal=result.proved_optimal,
        timings=timings,
        per_rule=inputs.per_rule,
        store=store,
    )

