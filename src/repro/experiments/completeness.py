"""T11 (Fig. 11): total completeness of the returned summary vs k, for
why and why-not questions — the fraction of (sampled) provenance covered
by at least one pattern of the summary."""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.experiments.common import ask, open_question


def run_completeness(
    spark: SparkSession,
    queries: list[str],
    qtype: str,
    n: int,
    ks: list[int],
    n_s: int = 500,
) -> list[dict]:
    rows = []
    for query in queries:
        with open_question(spark, query, n, qtype) as (catalog, program, question):
            for k in ks:
                s = ask(catalog, program, question, k, n_s)
                rows.append(
                    {
                        "query": query,
                        "qtype": qtype,
                        "n_rows": n,
                        "k": k,
                        "completeness": s.completeness,
                        "informativeness": s.informativeness,
                        "score": s.score,
                    }
                )
    return rows
