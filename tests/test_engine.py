"""Tests for the Spark UCQ¬< engine against the DuckDB oracle."""
import datetime
import decimal
import math

import pandas as pd
import pytest
from pyspark.sql.types import (
    BooleanType,
    DateType,
    DecimalType,
    DoubleType,
    IntegerType,
    LongType,
    StringType,
    StructField,
    StructType,
    TimestampType,
)

from repro.core.ast import parse_program, parse_rule
from repro.core.sqlgen import program_to_sql, rule_to_sql
from repro.datasets.graph_r import graph_r, rex_program
from repro.engine.catalog import Catalog
from repro.engine.eval import evaluate, evaluate_rule, successful_derivations
from repro.engine.statement import local_frame
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def rex(spark):
    db = graph_r(spark)
    return Catalog(spark, db), rex_program()


class TestEvaluate:
    def test_rex_answers(self, rex):
        catalog, prog = rex
        rows = {(r["h0"], r["h1"]) for r in evaluate(catalog, prog).collect()}
        assert rows == {(1, 3), (1, 4), (5, 6)}

    def test_rex_oracle(self, spark, rex):
        catalog, prog = rex
        sql = program_to_sql(prog, catalog.column_map())
        assert_equivalent(
            evaluate(catalog, prog), sql, R=catalog.df("R").toPandas()
        )

    def test_constant_filter(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Out(X) :- R(2, X).")
        rows = {r["h0"] for r in evaluate(catalog, prog).collect()}
        assert rows == {3, 4}

    def test_repeated_var_in_atom(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Loop(X) :- R(X, X).")
        rows = {r["h0"] for r in evaluate(catalog, prog).collect()}
        assert rows == {5}

    def test_constant_in_head(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Tag(X, marked) :- R(X, X).")
        rows = {(r["h0"], r["h1"]) for r in evaluate(catalog, prog).collect()}
        assert rows == {(5, "marked")}

    def test_negation(self, spark):
        db = {
            "R": spark.createDataFrame(pd.DataFrame({"a": [1, 2, 3]})),
            "S": spark.createDataFrame(pd.DataFrame({"a": [2]})),
        }
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X), not S(X).")
        rows = {r["h0"] for r in evaluate(catalog, prog).collect()}
        assert rows == {1, 3}

    def test_negation_oracle(self, spark):
        r = pd.DataFrame({"a": [1, 2, 3, 4]})
        s = pd.DataFrame({"a": [2, 4]})
        db = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X), not S(X).")
        sql = program_to_sql(prog, catalog.column_map())
        assert_equivalent(evaluate(catalog, prog), sql, R=r, S=s)

    def test_negation_on_join_column(self, spark):
        r = pd.DataFrame({"a": [1, 2, 3], "b": [10, 20, 30]})
        s = pd.DataFrame({"x": [10, 30]})
        db = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X, Y), not S(Y).")
        rows = {r_["h0"] for r_ in evaluate(catalog, prog).collect()}
        assert rows == {2}

    def test_union_program(self, spark):
        r = pd.DataFrame({"a": [1, 2]})
        s = pd.DataFrame({"a": [2, 3]})
        db = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X).", "Q(X) :- S(X).")
        rows = {r_["h0"] for r_ in evaluate(catalog, prog).collect()}
        assert rows == {1, 2, 3}
        sql = program_to_sql(prog, catalog.column_map())
        assert_equivalent(evaluate(catalog, prog), sql, R=r, S=s)

    def test_set_semantics(self, spark):
        r = pd.DataFrame({"a": [1, 1, 1, 2], "b": [7, 8, 9, 9]})
        db = {"R": spark.createDataFrame(r)}
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X, Y).")
        assert evaluate(catalog, prog).count() == 2

    def test_comparison_between_vars(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Q(X, Y) :- R(X, Y), X >= Y.")
        rows = {(r["h0"], r["h1"]) for r in evaluate(catalog, prog).collect()}
        assert rows == {(5, 3), (5, 5)}

    def test_cross_product_goals(self, spark):
        r = pd.DataFrame({"a": [1, 2]})
        s = pd.DataFrame({"b": [10]})
        db = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X, Y) :- R(X), S(Y).")
        assert evaluate(catalog, prog).count() == 2

    def test_ground_positive_goal_exists(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Q(X) :- R(X, X), R(1, 2).")
        assert {r["h0"] for r in evaluate(catalog, prog).collect()} == {5}

    def test_ground_positive_goal_missing(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Q(X) :- R(X, X), R(9, 9).")
        assert evaluate(catalog, prog).count() == 0

    def test_ground_negated_goal(self, spark, rex):
        catalog, _ = rex
        prog = parse_program("Q(X) :- R(X, X), not R(9, 9).")
        assert {r["h0"] for r in evaluate(catalog, prog).collect()} == {5}
        prog2 = parse_program("Q(X) :- R(X, X), not R(1, 2).")
        assert evaluate(catalog, prog2).count() == 0


class TestSuccessfulDerivations:
    def test_rex_derivations(self, rex):
        catalog, prog = rex
        d = successful_derivations(catalog, prog.rules[0])
        rows = {(r["X"], r["Y"], r["Z"]) for r in d.collect()}
        # paths: 1-2-3, 1-2-4, 5-5-6 (X<Y holds); 5-5-3 fails X<Y
        assert rows == {(1, 3, 2), (1, 4, 2), (5, 6, 5)}

    def test_columns_in_paper_order(self, rex):
        catalog, prog = rex
        d = successful_derivations(catalog, prog.rules[0])
        assert d.columns == ["X", "Y", "Z"]

    def test_unsafe_negation_raises(self, spark):
        from repro.core.ast import Atom, Rule, Var

        r = pd.DataFrame({"a": [1]})
        s = pd.DataFrame({"a": [1], "b": [2]})
        db = {"R": spark.createDataFrame(r), "S": spark.createDataFrame(s)}
        catalog = Catalog(spark, db)
        # construct an unsafe rule directly (parser would reject it)
        rule = Rule(
            Atom("Q", (Var("X"),)),
            (Atom("R", (Var("X"),)), Atom("S", (Var("X"), Var("Y")), True)),
        )
        with pytest.raises(ValueError, match="unsafe"):
            successful_derivations(catalog, rule)


class TestSqlgenOracle:
    """Random-ish rules: Spark engine vs DuckDB compiled SQL."""

    @pytest.fixture(scope="class")
    def db(self, spark):
        import numpy as np

        g = np.random.default_rng(7)
        r = pd.DataFrame(
            {"a": g.integers(0, 10, 200), "b": g.integers(0, 10, 200)}
        ).drop_duplicates()
        s = pd.DataFrame(
            {"x": g.integers(0, 10, 60), "y": g.integers(0, 5, 60)}
        ).drop_duplicates()
        tabs = {"R": r, "S": s}
        return Catalog(spark, {k: spark.createDataFrame(v) for k, v in tabs.items()}), tabs

    @pytest.mark.parametrize(
        "text",
        [
            "Q(X) :- R(X, Y).",
            "Q(X, Y) :- R(X, Z), S(Z, Y).",
            "Q(X) :- R(X, Y), X < Y.",
            "Q(X) :- R(X, Y), not S(Y, X).",
            "Q(X, Y) :- R(X, Y), S(Y, Z), Z >= 2, X != Y.",
            "Q(X) :- R(X, X).",
            "Q(X) :- R(X, 3).",
            "Q(X, c) :- S(X, 2).",
            "Q(X) :- R(X, Y), S(Y, Z), not R(Z, X).",
            "Q(X) :- R(X, Y), Y <= 4, not S(X, Y).",
        ],
    )
    def test_engine_matches_duckdb(self, db, text):
        catalog, tabs = db
        prog = parse_program(text)
        sql = program_to_sql(prog, catalog.column_map())
        assert_equivalent(evaluate(catalog, prog), sql, **tabs)

    def test_rule_to_sql_single(self, db):
        catalog, tabs = db
        rule = parse_rule("Q(X) :- R(X, Y), Y > 5.")
        sql = rule_to_sql(rule, catalog.column_map())
        assert_equivalent(evaluate_rule(catalog, rule), sql, **tabs)


class TestLocalFrame:
    """Driver rows to Spark and back: ``local_frame`` then ``collect()``
    returns exactly the rows it was given."""

    SCHEMA = StructType([
        StructField("l", LongType()),
        StructField("i", IntegerType()),
        StructField("d", DoubleType()),
        StructField("s", StringType()),
        StructField("b", BooleanType()),
        StructField("dt", DateType()),
        StructField("ts", TimestampType()),
        StructField("dec", DecimalType(10, 2)),
    ])
    ROWS = [
        (1, 2, 0.5, "a", True, datetime.date(2020, 1, 2),
         datetime.datetime(2020, 1, 2, 3, 4, 5, 6), decimal.Decimal("1.25")),
        (2**40, -3, float("nan"), "", False, datetime.date(1900, 1, 1),
         datetime.datetime(1969, 12, 31, 23, 59, 59), decimal.Decimal("-3.00")),
        (None,) * 8,
    ]

    @staticmethod
    def _comparable(rows):
        # NaN != NaN: compare it by name, and keep every value's type
        return [
            tuple(
                ("nan",) if isinstance(v, float) and math.isnan(v) else (type(v), v)
                for v in r
            )
            for r in rows
        ]

    def test_round_trip(self, spark):
        df = local_frame(spark, self.ROWS, self.SCHEMA)
        assert df.schema == self.SCHEMA
        out = [tuple(r) for r in df.collect()]
        assert self._comparable(out) == self._comparable(self.ROWS)

    def test_no_rows(self, spark):
        df = local_frame(spark, [], self.SCHEMA)
        assert df.schema == self.SCHEMA and df.collect() == []
