"""Command line for the evaluation tables T6–T12 (the paper's Figs. 6–12).

    python -m repro.experiments t8 --queries r1 --size 300 --n-s 50 --ks 1,3

Each table runs its harnesses from ``repro.experiments`` on one Spark
session and prints one ``== T… ==`` headed table per configuration.
``python -m repro.experiments <table> -h`` lists a table's flags;
EXPERIMENTS.md quotes the flags each reported table was run with.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Sequence

from pyspark.sql import SparkSession

from repro.core.unify import WHY, WHYNOT
from repro.experiments.common import format_rows
from repro.experiments.comparison import (
    run_artemis_comparison,
    run_single_derivation_comparison,
)
from repro.experiments.completeness import run_completeness
from repro.experiments.perf_scaling import run_perf_scaling
from repro.experiments.quality_error import run_quality_error
from repro.experiments.query_complexity import (
    run_bound_vars,
    run_dblp_hops,
    run_join_scaling,
    run_tpch_bound_vars,
)
from repro.experiments.topk_runtime import run_topk_runtime


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _names(text: str) -> list[str]:
    return text.split(",")


def _show(title: str, rows: list[dict]) -> None:
    print(f"\n== {title} ==")
    print(format_rows(rows))


def _perf_scaling(table: str) -> Callable[[SparkSession, argparse.Namespace], None]:
    def run_table(spark: SparkSession, a: argparse.Namespace) -> None:
        for query in a.queries:
            for qtype in (WHY, WHYNOT):
                rows = run_perf_scaling(
                    spark, query, qtype, a.sizes, a.samples, k=a.k,
                    include_full=a.full,
                )
                _show(f"{table} {query} {qtype}", rows)

    return run_table


def _t8(spark: SparkSession, a: argparse.Namespace) -> None:
    for query in a.queries:
        for qtype in (WHY, WHYNOT):
            rows = run_topk_runtime(spark, query, qtype, a.size, a.n_s, a.ks)
            _show(f"T8 {query} {qtype}", rows)


def _t9(spark: SparkSession, a: argparse.Namespace) -> None:
    for shape in ("chain", "star"):
        rows = run_join_scaling(spark, shape, [2, 4, 6], n_rows=a.rows, n_s=a.n_s)
        _show(f"T9 {shape}: varying #joins", rows)
    for shape, m in (("chain", 6), ("star", 5)):
        rows = run_bound_vars(
            spark, shape, m, [0, 2, 4], n_rows=a.rows, n_s=a.n_s
        )
        _show(f"T9 {shape}: {m} joins, varying #bound vars", rows)
    rows = run_dblp_hops(spark, [2, 3, 4], n_edges=a.rows, n_s=a.n_s)
    _show("T9 DBLP hops", rows)
    rows = run_tpch_bound_vars(spark, [0, 4, 8, 12], n_s=a.n_s)
    _show("T9 TPC-H r10 bound vars", rows)


def _t10(spark: SparkSession, a: argparse.Namespace) -> None:
    if a.unbound_why:
        rows = run_quality_error(
            spark, "r1", WHY, a.size, a.samples, a.ks, unbound_why=True
        )
        _show(f"T10 r1 why unbound (ref=FULL, {a.size} rows)", rows)
        return
    rows = run_quality_error(spark, "r1", WHY, a.size, a.samples, a.ks)
    _show("T10 r1 why (reference: FULL provenance)", rows)
    rows = run_quality_error(spark, "r6", WHYNOT, a.size, a.samples, a.ks)
    _show("T10 r6 why-not (reference: largest sample)", rows)


def _t11(spark: SparkSession, a: argparse.Namespace) -> None:
    for qtype in (WHY, WHYNOT):
        rows = run_completeness(spark, a.queries, qtype, a.size, a.ks, n_s=a.n_s)
        _show(f"T11 completeness ({qtype})", rows)


def _t12(spark: SparkSession, a: argparse.Namespace) -> None:
    rows = run_artemis_comparison(spark, a.artemis_sizes)
    _show("T12a PUG-Summ vs Artemis (CrimeDesc)", rows)
    rows = run_single_derivation_comparison(spark, a.single_sizes)
    _show("T12b PUG-Summ vs single-derivation (r1)", rows)


def parser() -> argparse.ArgumentParser:
    """The argument parser: one subcommand per table, with its flags."""
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's evaluation tables T6–T12.",
    )
    tables = ap.add_subparsers(dest="table", required=True)

    def table(name: str, help: str, run_table) -> argparse.ArgumentParser:
        p = tables.add_parser(name, help=help)
        p.set_defaults(run_table=run_table)
        return p

    def perf_table(name: str, queries: str, help: str) -> argparse.ArgumentParser:
        p = table(name, help, _perf_scaling(name.upper()))
        p.add_argument("--queries", type=_names, default=queries)
        p.add_argument("--sizes", type=_ints, default="1000,10000,100000")
        p.add_argument("--samples", type=_ints, default="50,100,1000")
        p.add_argument("--k", type=int, default=3)
        return p

    p = perf_table("t6", "r1,r3,r4", "Fig. 6: per-phase runtime vs data and n_S")
    p.add_argument("--full", action="store_true", help="include FULL rows")
    p = perf_table("t7", "r2,r11,r12", "Fig. 7: the same for more queries")
    p.set_defaults(full=False)

    p = table("t8", "Fig. 8: top-k runtime vs k, patterns as input", _t8)
    p.add_argument("--queries", type=_names, default="r1,r4")
    p.add_argument("--size", type=int, default=10000)
    p.add_argument("--n-s", type=int, default=1000)
    p.add_argument("--ks", type=_ints, default="1,3,5,10")

    p = table("t9", "Fig. 9: runtime vs query complexity", _t9)
    p.add_argument("--rows", type=int, default=2000)
    p.add_argument("--n-s", type=int, default=100)

    p = table("t10", "Fig. 10: quality-metric error from sampling", _t10)
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--samples", type=_ints, default="50,100,500")
    p.add_argument("--ks", type=_ints, default="1,3,5,10")
    p.add_argument(
        "--unbound-why", action="store_true",
        help="only the all-placeholder r1 why question",
    )

    p = table("t11", "Fig. 11: summary completeness vs k", _t11)
    p.add_argument("--queries", type=_names, default="r1,r2,r3,r5,r6")
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--ks", type=_ints, default="1,3,5,10")
    p.add_argument("--n-s", type=int, default=500)

    p = table("t12", "Fig. 12: PUG-Summ vs Artemis and single-derivation", _t12)
    p.add_argument("--artemis-sizes", type=_ints, default="200,500,1400,5000")
    p.add_argument("--single-sizes", type=_ints, default="1000,10000,100000")
    return ap


def run(spark: SparkSession, argv: Sequence[str]) -> None:
    """Parse ``argv``, run the table it names on ``spark`` and print it."""
    args = parser().parse_args(argv)
    args.run_table(spark, args)


def session_conf() -> dict[str, str]:
    """The tables' session settings: 16 shuffle partitions, Arrow, no
    automatic broadcast joins (the configuration EXPERIMENTS.md was
    measured with), and the driver memory ``SPARK_DRIVER_MEM`` names, if
    it is set (Spark's default of 1g is too small for 1M-row tables).
    The question statements still broadcast small persisted relations
    by hint (``repro.engine.statement``)."""
    conf = {
        "spark.sql.shuffle.partitions": "16",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }
    if memory := os.environ.get("SPARK_DRIVER_MEM"):
        conf["spark.driver.memory"] = memory
    return conf


def session() -> SparkSession:
    """A session with :func:`session_conf`'s settings; the driver memory
    applies only when this call starts the JVM."""
    builder = SparkSession.builder.appName("repro.experiments")
    for key, value in session_conf().items():
        builder = builder.config(key, value)
    return builder.getOrCreate()


def main(argv: Sequence[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    parser().parse_args(argv)  # reject bad flags before starting a JVM
    spark = session()
    try:
        run(spark, argv)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
