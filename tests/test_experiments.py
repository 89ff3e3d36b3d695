"""Smoke tests of the experiment harnesses (tiny scales) — every
table-reproduction entry point must produce well-formed rows."""
import re
import shlex
from pathlib import Path

import pytest

from repro.core.ast import Const
from repro.core.unify import WHY, WHYNOT, unify_program
from repro.engine.catalog import Catalog
from repro.engine.eval import evaluate, successful_derivations
from repro.experiments.__main__ import parser, run, session_conf
from repro.experiments.common import format_rows, whynot_space
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
from repro.experiments.queries import QUERIES
from repro.experiments.topk_runtime import run_topk_runtime


class TestRegistry:
    def test_all_queries_present(self):
        assert set(QUERIES) == {
            "r1", "r2", "r3", "r4", "r5", "r6", "r9", "r10", "r11", "r12",
        }

    @pytest.mark.parametrize("name", ["r1", "r5"])
    def test_bindings_resolve(self, spark, name):
        spec = QUERIES[name]
        db = spec.build_db(spark, 400, 0)
        catalog = Catalog(spark, db)
        prog = spec.program()
        why = spec.ptuple(catalog, prog, WHY)
        whynot = spec.ptuple(catalog, prog, WHYNOT)
        assert why.pred == whynot.pred == prog.head_pred

    @pytest.mark.parametrize("name", ["r1", "r6"])
    def test_why_binds_smallest_answer_under_any_partitioning(self, spark, name):
        spec = QUERIES[name]
        prog = spec.program()
        old = spark.conf.get("spark.sql.shuffle.partitions")
        bound = []
        try:
            for parts in ("4", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", parts)
                catalog = Catalog(spark, spec.build_db(spark, 2000, 0))
                smallest = min(r["h0"] for r in evaluate(catalog, prog).collect())
                t = spec.ptuple(catalog, prog, WHY)
                assert t.args == (Const(smallest),)
                bound.append(t)
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)
        assert bound[0] == bound[1]


class _ClosesItsCatalogs:
    """Each test leaves no persisted RDD and no temp view behind: every
    catalog a harness opens is closed. The ids and names, not only their
    counts, are compared, because T12 clears the whole Spark cache."""

    @pytest.fixture(autouse=True)
    def _no_leaks(self, spark):
        def left():
            rdds = set(spark.sparkContext._jsc.getPersistentRDDs().keySet())
            return rdds, {t.name for t in spark.catalog.listTables()}

        rdds, views = left()
        yield
        new_rdds, new_views = left()
        assert new_rdds <= rdds and new_views <= views


class TestPerfScaling(_ClosesItsCatalogs):
    def test_whynot_rows(self, spark):
        rows = run_perf_scaling(
            spark, "r1", WHYNOT, sizes=[300], sample_sizes=[30], k=2
        )
        assert len(rows) == 1
        r = rows[0]
        assert r["prov_size"] > 0
        assert r["t_total"] > 0
        assert r["t_sample"] + r["t_pattern"] + r["t_metrics"] + r["t_topk"] <= (
            r["t_total"] + 1e-6
        )

    def test_why_rows(self, spark):
        rows = run_perf_scaling(
            spark, "r1", WHY, sizes=[300], sample_sizes=[30], k=2
        )
        assert rows[0]["completeness"] > 0

    def test_why_prov_size_is_exact(self, spark):
        # |Why| of the bound question, not the n_S = 3 rows it keeps, and
        # the FULL row's count index
        rows = run_perf_scaling(
            spark, "r1", WHY, sizes=[300], sample_sizes=[3, 1000], k=2,
            include_full=True,
        )
        spec = QUERIES["r1"]
        program = spec.program()
        with Catalog(spark, spec.build_db(spark, 300, 0)) as catalog:
            t = spec.ptuple(catalog, program, WHY)
            (u,) = unify_program(program, t)
            n_why = successful_derivations(catalog, u.rule).count()
        assert n_why > 3
        assert [r["prov_size"] for r in rows] == [n_why] * 3
        assert rows[2]["sample"] == "FULL" and rows[2]["t_total"] is not None

    def test_full_timeout_row(self, spark):
        rows = run_perf_scaling(
            spark, "r1", WHYNOT, sizes=[300], sample_sizes=[],
            include_full=True, full_budget=10, k=2,
        )
        assert rows[0]["t_total"] is None  # FULL over budget → timeout row


class TestTopkRuntime(_ClosesItsCatalogs):
    def test_rows(self, spark):
        rows = run_topk_runtime(
            spark, "r1", WHYNOT, n=300, n_s=50, ks=[1, 3]
        )
        assert [r["k"] for r in rows] == [1, 3]
        assert all(r["t_topk"] >= 0 for r in rows)
        assert rows[0]["n_patterns"] == rows[1]["n_patterns"]


class TestQueryComplexity(_ClosesItsCatalogs):
    def test_chain_joins(self, spark):
        rows = run_join_scaling(
            spark, "chain", [2, 3], n_rows=150, n_s=20, k=2
        )
        assert [r["n_joins"] for r in rows] == [2, 3]
        assert rows[1]["prov_size"] >= rows[0]["prov_size"]

    def test_star_bound_vars(self, spark):
        rows = run_bound_vars(
            spark, "star", 3, [0, 2], n_rows=150, n_s=20, k=2
        )
        assert rows[0]["prov_size"] > rows[1]["prov_size"]

    def test_dblp_hops(self, spark):
        rows = run_dblp_hops(spark, [2], n_edges=200, n_s=20, k=2)
        assert rows[0]["t_total"] > 0

    def test_tpch_bound(self, spark):
        rows = run_tpch_bound_vars(spark, [0, 4], n_rows=400, n_s=20, k=2)
        assert rows[0]["n_existential"] == 16
        assert rows[1]["n_existential"] == 12
        assert rows[0]["prov_size"] > rows[1]["prov_size"]


class TestQualityError(_ClosesItsCatalogs):
    def test_why_error_rows(self, spark):
        rows = run_quality_error(
            spark, "r1", WHY, 300, sample_sizes=[30], ks=[2]
        )
        r = rows[0]
        assert 0 <= r["cp_rel_err"]
        assert 0 <= r["sc_rel_err"]

    def test_whynot_error_rows(self, spark):
        rows = run_quality_error(
            spark, "r6", WHYNOT, 300, sample_sizes=[30], ks=[2],
            reference_n_s=100,
        )
        assert rows and rows[0]["cp_ref"] >= 0


class TestCompleteness(_ClosesItsCatalogs):
    def test_rows(self, spark):
        rows = run_completeness(
            spark, ["r1"], WHYNOT, 300, ks=[1, 3], n_s=50
        )
        assert [r["k"] for r in rows] == [1, 3]
        assert rows[1]["completeness"] >= rows[0]["completeness"] - 1e-9


class TestComparison(_ClosesItsCatalogs):
    def test_artemis(self, spark):
        rows = run_artemis_comparison(
            spark, sizes=[120], artemis_budget=500_000
        )
        r = rows[0]
        assert r["t_pug_summ"] > 0
        assert r["t_artemis"] is None or r["t_artemis"] > 0

    def test_single_derivation(self, spark):
        rows = run_single_derivation_comparison(spark, sizes=[300], n_s=50)
        r = rows[0]
        assert r["found_derivation"]
        assert r["t_single_derivation"] > 0 and r["t_pug_summ"] > 0


class TestCommon:
    def test_whynot_space(self, spark):
        from repro.core.unify import parse_ptuple
        from repro.datasets.graph_r import graph_r, rex_program
        from repro.engine.catalog import Catalog

        catalog = Catalog(spark, graph_r(spark))
        # X domain {1,2,5} filtered by X<4 → 2; Z domain (6 values)
        assert whynot_space(
            catalog, rex_program(), parse_ptuple("Qex(X, 4)")
        ) == 12

    def test_format_rows(self):
        out = format_rows([{"a": 1, "b": None}, {"a": 2.5, "b": "x"}])
        assert "timeout" in out and "2.500" in out

    def test_format_empty(self):
        assert format_rows([]) == "(no rows)"


def _headers(out: str) -> list[str]:
    return re.findall(r"^== (.*) ==$", out, re.M)


class TestCommandLine:
    def test_t8(self, spark, capsys):
        run(spark, ["t8", "--queries", "r1", "--size", "300", "--n-s", "50",
                    "--ks", "1,3"])
        out = capsys.readouterr().out
        assert _headers(out) == ["T8 r1 why", "T8 r1 whynot"]
        assert "t_topk" in out and "proved_optimal" in out

    def test_t6_t7(self, spark, capsys):
        # r1 and r4 are summarized by other tests; these are the rest of
        # T6/T7's queries
        flags = ["--sizes", "200", "--samples", "20", "--k", "2"]
        run(spark, ["t6", "--queries", "r3", *flags])
        run(spark, ["t7", *flags])
        out = capsys.readouterr().out
        assert _headers(out) == [
            f"{table} {query} {qtype}"
            for table, queries in (("T6", ["r3"]), ("T7", ["r2", "r11", "r12"]))
            for query in queries
            for qtype in (WHY, WHYNOT)
        ]
        # None prints as "timeout": every t_* cell of a run that failed;
        # a why row's prov_size is its exact |Why|
        assert out.count("timeout") == 0

    def test_t11(self, spark, capsys):
        run(spark, ["t11", "--queries", "r1", "--size", "300", "--n-s", "50",
                    "--ks", "1,3"])
        out = capsys.readouterr().out
        assert _headers(out) == [
            "T11 completeness (why)", "T11 completeness (whynot)",
        ]
        assert "completeness" in out.splitlines()[2]

    def test_t9_t10_t12(self, spark, capsys):
        run(spark, ["t9", "--rows", "150", "--n-s", "20"])
        run(spark, ["t10", "--size", "300", "--samples", "30", "--ks", "2"])
        run(spark, ["t12", "--artemis-sizes", "120", "--single-sizes", "300"])
        assert _headers(capsys.readouterr().out) == [
            "T9 chain: varying #joins",
            "T9 star: varying #joins",
            "T9 chain: 6 joins, varying #bound vars",
            "T9 star: 5 joins, varying #bound vars",
            "T9 DBLP hops",
            "T9 TPC-H r10 bound vars",
            "T10 r1 why (reference: FULL provenance)",
            "T10 r6 why-not (reference: largest sample)",
            "T12a PUG-Summ vs Artemis (CrimeDesc)",
            "T12b PUG-Summ vs single-derivation (r1)",
        ]

    def test_session_driver_memory(self, monkeypatch):
        # the settings only: asserting on them starts no second JVM
        monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
        conf = session_conf()
        assert conf["spark.driver.memory"] == "3g"
        assert conf["spark.sql.shuffle.partitions"] == "16"
        monkeypatch.delenv("SPARK_DRIVER_MEM")
        assert "spark.driver.memory" not in session_conf()

    @pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md"])
    def test_documented_commands_parse(self, doc):
        text = (Path(__file__).resolve().parents[1] / doc).read_text()
        commands = re.findall(
            r"(?:^|`)python -m repro\.experiments ([^`\n]*)", text, re.M
        )
        assert commands
        for command in commands:
            parser().parse_args(shlex.split(command, comments=True))
