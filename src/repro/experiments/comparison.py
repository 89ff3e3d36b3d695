"""T12 (Fig. 12): system comparisons.

12a — PUG-Summ vs the Artemis-like all-derivations baseline on the
CrimeDesc query over the crime-witness database, scaled 1.4K→22K, 10%
samples, top-5 summaries. Artemis times out (budget exceeded) beyond
small sizes, as in the paper.

12b — PUG-Summ vs the single-derivation baseline on r1, S1K, top-3.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.baselines.artemis import ArtemisTimeout, artemis_explain
from repro.baselines.single_derivation import single_derivation
from repro.core.unify import WHYNOT, PQuestion, parse_ptuple
from repro.datasets.witness import crimedesc_program, witness_db
from repro.engine.catalog import Catalog
from repro.experiments.queries import QUERIES
from repro.summarize.pipeline import summarize

ARTEMIS_PTUPLE = (
    "CrimeDesc('trespassing', 'Aarongolden', 'MidnightBlue', 'lavender')"
)


def run_artemis_comparison(
    spark: SparkSession,
    sizes: list[int],
    sample_frac: float = 0.1,
    k: int = 5,
    artemis_budget: int = 500_000,
    seed: int = 0,
) -> list[dict]:
    """Fig. 12a rows: per size, runtimes of PUG-Summ and Artemis plus the
    top pattern each returns (informativeness shows the quality gap)."""
    rows = []
    t = parse_ptuple(ARTEMIS_PTUPLE)
    program = crimedesc_program()
    for n in sizes:
        db = witness_db(spark, n=n, seed=seed)
        with Catalog(spark, db) as catalog, Catalog(spark, db) as art_catalog:
            n_s = max(10, int(n * sample_frac))
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            s = summarize(
                catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s, seed=seed
            )
            t_pug = time.perf_counter() - t0
            row = {
                "n_rows": n,
                "n_s": n_s,
                "t_pug_summ": t_pug,
                "pug_top_info": s.patterns[0].info() if s.patterns else None,
                "pug_top_cp": s.patterns[0].cp if s.patterns else None,
            }
            # a catalog of its own and an empty Spark cache: no reuse of the
            # domains, Q(D) and goal projections that PUG-Summ's run left
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            try:
                art = artemis_explain(
                    art_catalog, program, t, max_derivations=artemis_budget
                )
                row["t_artemis"] = time.perf_counter() - t0
                row["artemis_top_info"] = art.top().info()
            except ArtemisTimeout:
                row["t_artemis"] = None
                row["artemis_top_info"] = None
            rows.append(row)
    return rows


def run_single_derivation_comparison(
    spark: SparkSession,
    sizes: list[int],
    n_s: int = 1000,
    k: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Fig. 12b rows: per size, single-derivation vs top-3 summary time."""
    spec = QUERIES["r1"]
    program = spec.program()
    # one untimed question of each system first: the first why-not
    # question in a JVM runs slower, and neither size should pay for it
    db = spec.build_db(spark, min(sizes), seed)
    with Catalog(spark, db) as catalog, Catalog(spark, db) as summary_catalog:
        t = spec.ptuple(catalog, program, WHYNOT)
        single_derivation(catalog, program, t, seed=seed)
        summarize(summary_catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s,
                  seed=seed)
    rows = []
    for n in sizes:
        db = spec.build_db(spark, n, seed)
        with Catalog(spark, db) as catalog, Catalog(spark, db) as summary_catalog:
            t = spec.ptuple(catalog, program, WHYNOT)
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            d = single_derivation(catalog, program, t, seed=seed)
            t_single = time.perf_counter() - t0
            # a catalog of its own and an empty Spark cache: no reuse of the
            # single-derivation run's domains, Q(D) and goal projections
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            s = summarize(
                summary_catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s,
                seed=seed,
            )
            t_summ = time.perf_counter() - t0
            rows.append(
                {
                    "n_rows": n,
                    "t_single_derivation": t_single,
                    "t_pug_summ": t_summ,
                    "slowdown": t_summ / t_single if t_single else None,
                    "found_derivation": d is not None,
                    "summary_completeness": s.completeness,
                }
            )
    return rows
