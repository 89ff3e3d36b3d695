"""T6/T7 (Figs. 6–7): per-phase summarization runtime vs dataset size ×
sample size, for why and why-not questions.

Each row reports the paper's bar chart quantities: dataset size (#rows
of the primary relation), provenance size (#derivations — exact for
why, the derivation-space product for why-not), and per-phase runtimes
(sampling, pattern generation, metric computation, top-k). ``FULL``
rows use the complete provenance as summarization input; like the
paper, FULL why-not is infeasible beyond toy sizes and is reported as a
timeout (None).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.unify import WHY, WHYNOT
from repro.experiments.common import ask, open_question, whynot_space
from repro.provenance.why import why_size


def run_perf_scaling(
    spark: SparkSession,
    query: str,
    qtype: str,
    sizes: list[int],
    sample_sizes: list[int],
    k: int = 3,
    include_full: bool = False,
    full_budget: int = 200_000,
) -> list[dict]:
    """One row per (dataset size, sample size [or FULL])."""
    rows: list[dict] = []
    for n in sizes:
        with open_question(spark, query, n, qtype) as (catalog, program, question):
            t = question.ptuple
            # why: filled in per row from the summary's exact count
            prov_size = (
                whynot_space(catalog, program, t) if qtype == WHYNOT else None
            )
            configs: list[tuple[str, int | None]] = [
                (f"S{ns}", ns) for ns in sample_sizes
            ]
            if include_full:
                configs.append(("FULL", None))
            for label, ns in configs:
                row = {
                    "query": query,
                    "qtype": qtype,
                    "n_rows": n,
                    "prov_size": prov_size,
                    "sample": label,
                }
                try:
                    if ns is None:
                        if qtype == WHY:
                            # FULL why: quadratic LCA input — apply the same
                            # budget the paper's 30-minute timeout imposes
                            n_prov = why_size(catalog, program, t)
                            row["prov_size"] = n_prov
                            if n_prov > max(1, int(full_budget ** 0.5) * 8):
                                raise ValueError("FULL why over budget")
                        s = ask(
                            catalog, program, question, k, 1 << 30,
                            use_full=(qtype == WHYNOT),
                            max_full_derivations=full_budget,
                        )
                    else:
                        s = ask(catalog, program, question, k, ns)
                except ValueError:
                    # FULL enumeration over budget — the paper's timed-out bar
                    row.update(
                        t_sample=None, t_pattern=None, t_metrics=None,
                        t_topk=None, t_total=None, completeness=None, score=None,
                    )
                    rows.append(row)
                    continue
                if qtype == WHY:  # |Why|: each rule's count before its n_S cut
                    row["prov_size"] = sum(r["n_survivors"] for r in s.per_rule)
                row.update(
                    t_sample=s.timings["sample"],
                    t_pattern=s.timings["pattern_gen"],
                    t_metrics=s.timings["metrics"],
                    t_topk=s.timings["topk"],
                    t_total=s.timings["total"],
                    completeness=s.completeness,
                    score=s.score,
                )
                rows.append(row)
    return rows
