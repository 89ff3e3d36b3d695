"""End-to-end provenance summarization (Sec. 4's four phases).

``summarize`` runs, per rule of the UCQ¬< question:

1. **capture/sampling** — why: instrumented evaluation (+ uniform cut to
   n_S); why-not: the batch sampling pipeline of Sec. 5 (or the FULL
   enumeration when ``use_full``);
2. **pattern generation** — LCA candidates (Sec. 6);
3. **metric estimation** — match counting over the sample (Sec. 7);
4. **top-k construction** — best-first search (Sec. 8).

Phase 1 runs in Catalyst, because it touches the database, and ends by
collecting each rule's ≤ n_S-row sample to the driver once, where
:class:`SampleStore` keeps it as integer codes. Phases 2–4 work over
those codes in numpy on the driver; nothing in them launches a Spark
job. The per-phase timings mirror the per-phase bars of Figs. 6–7.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.core.ast import Program
from repro.core.unify import WHY, WHYNOT, PQuestion, UnifiedRule
from repro.engine.catalog import Catalog
from repro.patterns.lca import lca_codes
from repro.patterns.matching import collect_patterns, count_matches
from repro.patterns.pattern import Pattern
from repro.provenance.annotate import goal_column_names
from repro.provenance.why import why_provenance
from repro.provenance.whynot_full import whynot_full
from repro.sampling.whynot import sample_whynot
from repro.summarize.metrics import SampleStore, harmonic, info_of_set
from repro.summarize.topk import SearchResult, rank_key, topk_bestfirst


@dataclass
class Summary:
    """A top-k provenance summary plus quality metrics and phase timings."""

    question: PQuestion
    k: int
    n_s: int
    patterns: tuple[Pattern, ...]
    n_candidates: int
    score_lb: float
    score_ub: float
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


def _collect_rows(
    df: DataFrame, var_cols: list[str], goal_cols: list[str]
) -> list[tuple[tuple, tuple[bool, ...]]]:
    return [
        (tuple(r[v] for v in var_cols), tuple(bool(r[g]) for g in goal_cols))
        for r in df.collect()
    ]


def _capture(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    n_s: int,
    p_success: float,
    seed: int,
    domains: dict[str, DataFrame] | None,
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

    def cols(u: UnifiedRule) -> tuple[list[str], list[str]]:
        return [v.name for v in u.unbound], goal_column_names(u.n_goals)

    if question.qtype == WHY:
        for u, df in why_provenance(catalog, program, question.ptuple):
            # uniform cut to n_S in Catalyst (why provenance grows with the
            # database), ordered by a seeded hash of the row, then the row:
            # unlike rand(seed), that order does not depend on how Spark
            # partitions the data. The observation counts every row on its
            # way into the cut, so the same action yields |Why| too.
            seen = Observation()
            order = [F.col(c) for c in df.columns]
            cut = (
                df.observe(seen, F.count(F.lit(1)).alias("n"))
                .orderBy(F.xxhash64(F.lit(seed), *order), *order)
                .limit(n_s)
            )
            rows = _collect_rows(cut, *cols(u))
            full = seen.get["n"]
            if rows:
                out.append(
                    (u, rows, float(full), {"n_survivors": full, "capped": False})
                )
        return out
    if use_full:
        for u, df in whynot_full(
            catalog, program, question.ptuple, domains, max_full_derivations
        ):
            rows = _collect_rows(df, *cols(u))
            if rows:
                out.append(
                    (u, rows, float(len(rows)),
                     {"n_survivors": len(rows), "capped": False})
                )
        return out
    for rs in sample_whynot(
        catalog,
        program,
        question.ptuple,
        n_s,
        p_success=p_success,
        seed=seed,
        domains=domains,
        max_n_os=max_n_os,
    ):
        n_vars = len(rs.unified.unbound)
        rows = [(r[:n_vars], tuple(map(bool, r[n_vars:]))) for r in rs.rows]
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
    """Output of phases 1–3: scored candidate patterns + the driver-side
    sample store, ready for top-k construction (the input of Fig. 8)."""

    patterns: list[Pattern]
    store: SampleStore
    n_candidates: int
    timings: dict[str, float]
    per_rule: list[dict]


def pattern_inputs(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    n_s: int = 1000,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    use_full: bool = False,
    max_n_os: int = 5_000_000,
    max_full_derivations: int | None = 5_000_000,
) -> PatternInputs:
    """Run capture/sampling, LCA candidate generation, and metric
    estimation (phases 1–3 of Sec. 4)."""
    timings: dict[str, float] = {}

    # --- phase 1: capture / sampling, collected once and integer-coded ---
    t0 = time.perf_counter()
    captured = _capture(
        catalog, program, question, n_s, p_success, seed, domains,
        use_full, max_n_os, max_full_derivations,
    )
    store = SampleStore()
    total_weight = sum(raw_weight for _, _, raw_weight, _ in captured)
    for u, rows, raw_weight, _ in captured:
        weight = (
            raw_weight / total_weight if total_weight > 0 else 1.0 / len(captured)
        )
        store.add_rule(u.rule_id, rows, weight)
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
    all_patterns: list[Pattern] = []
    for u, _, _, _ in captured:
        rows = store.rules[u.rule_id]
        pat_codes, pat_goals = candidates[u.rule_id]
        counts = count_matches(pat_codes, pat_goals, rows.codes, rows.goal_ids)
        all_patterns.extend(
            collect_patterns(
                rows, u.rule_id, [v.name for v in u.unbound],
                pat_codes, pat_goals, counts,
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
        patterns=all_patterns,
        store=store,
        n_candidates=len(all_patterns),
        timings=timings,
        per_rule=per_rule_stats,
    )


def select_topk(
    inputs: PatternInputs,
    k: int,
    max_patterns: int = 64,
    max_pops: int = 20_000,
) -> SearchResult:
    """Phase 4: prune to the strongest candidates by singleton score,
    then cp, then canonical order (heuristic cap, see DESIGN.md), and run
    the best-first search."""
    pruned = heapq.nsmallest(max_patterns, inputs.patterns, key=rank_key)
    return topk_bestfirst(pruned, k, inputs.store, max_pops=max_pops)


def summarize(
    catalog: Catalog,
    program: Program,
    question: PQuestion,
    k: int = 3,
    n_s: int = 1000,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    max_patterns: int = 64,
    max_pops: int = 20_000,
    use_full: bool = False,
    max_n_os: int = 5_000_000,
    max_full_derivations: int | None = 5_000_000,
) -> Summary:
    """Compute the top-k provenance summary S(Q, D, Φ, k)."""
    t_start = time.perf_counter()
    inputs = pattern_inputs(
        catalog,
        program,
        question,
        n_s=n_s,
        p_success=p_success,
        seed=seed,
        domains=domains,
        use_full=use_full,
        max_n_os=max_n_os,
        max_full_derivations=max_full_derivations,
    )
    timings = dict(inputs.timings)
    store = inputs.store
    if not inputs.patterns:
        timings["topk"] = 0.0
        timings["total"] = time.perf_counter() - t_start
        return Summary(
            question, k, n_s, (), 0, 0.0, 0.0, 0.0, 0.0, 0.0, True, timings,
            inputs.per_rule, store,
        )

    # --- phase 4: top-k construction ---
    t0 = time.perf_counter()
    result: SearchResult = select_topk(
        inputs, k, max_patterns=max_patterns, max_pops=max_pops
    )
    timings["topk"] = time.perf_counter() - t0

    completeness = store.cp_of_set(result.patterns)
    informativeness = info_of_set(result.patterns)
    timings["total"] = time.perf_counter() - t_start
    return Summary(
        question=question,
        k=k,
        n_s=n_s,
        patterns=result.patterns,
        n_candidates=inputs.n_candidates,
        score_lb=result.score_lb,
        score_ub=result.score_ub,
        completeness=completeness,
        informativeness=informativeness,
        score=harmonic(completeness, informativeness),
        proved_optimal=result.proved_optimal,
        timings=timings,
        per_rule=inputs.per_rule,
        store=store,
    )


def summarize_why(
    catalog: Catalog, program: Program, ptuple, **kwargs
) -> Summary:
    """Top-k summary of Why(Q, D, t)."""
    return summarize(catalog, program, PQuestion(ptuple, WHY), **kwargs)


def summarize_whynot(
    catalog: Catalog, program: Program, ptuple, **kwargs
) -> Summary:
    """Top-k summary of Whynot(Q, D, t)."""
    return summarize(catalog, program, PQuestion(ptuple, WHYNOT), **kwargs)
