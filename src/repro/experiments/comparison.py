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
from repro.experiments.common import SEED, ask
from repro.experiments.queries import QUERIES

ARTEMIS_PTUPLE = (
    "CrimeDesc('trespassing', 'Aarongolden', 'MidnightBlue', 'lavender')"
)
#: 12a: PUG-Summ's sample is this share of the rows (at least 10), its
#: summary a top-5
ARTEMIS_SAMPLE_FRAC = 0.1
ARTEMIS_K = 5
#: 12b: PUG-Summ's summary is a top-3
SINGLE_DERIVATION_K = 3


def run_artemis_comparison(
    spark: SparkSession,
    sizes: list[int],
    artemis_budget: int = 500_000,
) -> list[dict]:
    """Fig. 12a rows: per size, runtimes of PUG-Summ and Artemis plus the
    top pattern each returns (informativeness shows the quality gap)."""
    rows = []
    t = parse_ptuple(ARTEMIS_PTUPLE)
    question = PQuestion(t, WHYNOT)
    program = crimedesc_program()
    for n in sizes:
        db = witness_db(spark, n=n, seed=SEED)
        with Catalog(spark, db) as catalog, Catalog(spark, db) as art_catalog:
            n_s = max(10, int(n * ARTEMIS_SAMPLE_FRAC))
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            s = ask(catalog, program, question, ARTEMIS_K, n_s)
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
) -> list[dict]:
    """Fig. 12b rows: per size, single-derivation vs top-3 summary time."""
    spec = QUERIES["r1"]
    program = spec.program()
    t = parse_ptuple(spec.whynot)
    question = PQuestion(t, WHYNOT)
    # one untimed question of each system first: the first why-not
    # question in a JVM runs slower, and neither size should pay for it
    db = spec.build_db(spark, min(sizes), SEED)
    with Catalog(spark, db) as catalog, Catalog(spark, db) as summary_catalog:
        single_derivation(catalog, program, t, seed=SEED)
        ask(summary_catalog, program, question, SINGLE_DERIVATION_K, n_s)
    rows = []
    for n in sizes:
        db = spec.build_db(spark, n, SEED)
        with Catalog(spark, db) as catalog, Catalog(spark, db) as summary_catalog:
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            d = single_derivation(catalog, program, t, seed=SEED)
            t_single = time.perf_counter() - t0
            # a catalog of its own and an empty Spark cache: no reuse of the
            # single-derivation run's domains, Q(D) and goal projections
            spark.catalog.clearCache()
            t0 = time.perf_counter()
            s = ask(summary_catalog, program, question, SINGLE_DERIVATION_K, n_s)
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
