"""T11 (Fig. 11): total completeness of the returned summary vs k, for
why and why-not questions — the fraction of (sampled) provenance covered
by at least one pattern of the summary."""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.unify import PQuestion
from repro.engine.catalog import Catalog
from repro.experiments.queries import QUERIES
from repro.summarize.pipeline import summarize


def run_completeness(
    spark: SparkSession,
    queries: list[str],
    qtype: str,
    n: int,
    ks: list[int],
    n_s: int = 500,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for query in queries:
        spec = QUERIES[query]
        db = spec.build_db(spark, n, seed)
        with Catalog(spark, db) as catalog:
            program = spec.program()
            t = spec.ptuple(catalog, program, qtype)
            question = PQuestion(t, qtype)
            for k in ks:
                s = summarize(catalog, program, question, k=k, n_s=n_s, seed=seed)
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
