"""T8 (Fig. 8): runtime of top-k construction alone, varying k, with the
patterns of phases 1–3 provided as input.

``n_patterns`` is the number of LCA candidates; the search sees the
``n_searched`` = min(``MAX_PATTERNS``, ``n_patterns``) strongest of them.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.experiments.common import SEED, open_question
from repro.summarize.pipeline import MAX_PATTERNS, pattern_inputs, select_topk


def run_topk_runtime(
    spark: SparkSession,
    query: str,
    qtype: str,
    n: int,
    n_s: int,
    ks: list[int],
) -> list[dict]:
    """One row per k; pattern inputs are computed once and reused."""
    with open_question(spark, query, n, qtype) as (catalog, program, question):
        inputs = pattern_inputs(catalog, program, question, n_s=n_s, seed=SEED)
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        result = select_topk(inputs, k)
        elapsed = time.perf_counter() - t0
        rows.append(
            {
                "query": query,
                "qtype": qtype,
                "n_rows": n,
                "n_s": n_s,
                "n_patterns": inputs.n_candidates,
                "n_searched": min(MAX_PATTERNS, inputs.n_candidates),
                "k": k,
                "t_topk": elapsed,
                "score": inputs.store.score_of_set(inputs.decode(result.chosen)),
                "proved_optimal": result.proved_optimal,
                "pops": result.pops,
            }
        )
    return rows
