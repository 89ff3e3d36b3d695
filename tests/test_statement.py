"""Tests for the one-statement question plans (``repro.engine.statement``):
the catalog's views keep its persisted relations cached, small relations
are broadcast and large ones are not, the question's constants reach
Spark as named parameters, and neither the join strategy nor the
shuffle partition count changes a summary."""
import datetime

import duckdb
import pytest

import repro.engine.statement as statement
from repro.core.ast import Const, Var, parse_program
from repro.core.unify import WHY, WHYNOT, PQuestion, PTuple, parse_ptuple
from repro.datasets.license import license_db, r1_program
from repro.engine.catalog import Catalog
from repro.engine.statement import Statement
from repro.experiments.queries import QUERIES
from repro.provenance.whynot_full import whynot_full
from repro.sampling.whynot import sample_whynot
from repro.summarize.pipeline import summarize


def _temp_views(spark) -> set[str]:
    return {t.name for t in spark.catalog.listTables() if t.isTemporary}


def _persisted(catalog):
    return [df for df, _ in catalog._relations.values()]


def _summary_key(s):
    return (
        [(p.rule_id, p.args, p.goals, p.count) for p in s.patterns],
        round(s.score, 12),
        [(r["rule_id"], r["n_survivors"], r["capped"]) for r in s.per_rule],
        {
            rid: sorted(zip(r.args, r.goals), key=repr)
            for rid, r in s.store.rules.items()
        },
    )


class TestStatement:
    def test_collect_tags_and_pads_each_select(self, spark):
        stmt = Statement(spark)
        stmt.add(f"SELECT {stmt.param('a')} AS x, 1 AS y", 2)
        stmt.add("SELECT CAST(NULL AS STRING) AS z", 1)
        stmt.add("SELECT 1 AS w WHERE false", 1)
        assert stmt.collect() == [[("a", 1)], [(None,)], []]

    def test_empty_statement_collects_nothing(self, spark):
        assert Statement(spark).collect() == []

    def test_quote(self):
        assert statement.quote("a`b") == "`a``b`"


class TestViews:
    def test_questions_keep_the_persisted_relations_cached(self, spark):
        """No statement passes a persisted relation to the formatter, whose
        dropped temp views would uncache it, and no question leaves a
        temp view behind."""
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        prog = r1_program()
        questions = [
            PQuestion(parse_ptuple(f"InvalidD('city_{7 * (i % 3)}')"), WHYNOT)
            for i in range(5)
        ] + [PQuestion(parse_ptuple("InvalidD(C)"), WHY)] * 5
        for q in questions[:1] + questions[5:6]:  # warm: every view exists
            summarize(catalog, prog, q, k=2, n_s=30)
        views = _temp_views(spark)
        for seed, q in enumerate(questions):
            summarize(catalog, prog, q, k=2, n_s=30, seed=seed)
        cache = spark._jsparkSession.sharedState().cacheManager()
        persisted = _persisted(catalog)
        assert len(persisted) == 4  # 2 goal projections, Q(D), derivations
        assert all(cache.lookupCachedData(df._jdf).isDefined() for df in persisted)
        assert _temp_views(spark) == views

    def test_close_drops_the_views_and_unpersists(self, spark):
        prog = r1_program()
        questions = [
            PQuestion(parse_ptuple("InvalidD('city_0')"), WHYNOT),
            PQuestion(parse_ptuple("InvalidD(C)"), WHY),
        ]
        cache = spark._jsparkSession.sharedState().cacheManager()
        with Catalog(spark, license_db(spark, n=300, seed=0)) as catalog:
            for q in questions:
                summarize(catalog, prog, q, k=2, n_s=30)
            prefix = catalog._view_prefix
            persisted = _persisted(catalog)
            assert len(persisted) == 4
            assert any(v.startswith(prefix) for v in _temp_views(spark))
        assert not any(v.startswith(prefix) for v in _temp_views(spark))
        assert not any(cache.lookupCachedData(df._jdf).isDefined() for df in persisted)
        # a closed catalog persists and registers what a question needs again
        assert summarize(catalog, prog, questions[1], k=2, n_s=30).patterns
        assert any(v.startswith(prefix) for v in _temp_views(spark))
        catalog.close()
        assert not any(v.startswith(prefix) for v in _temp_views(spark))

    def test_each_relation_is_registered_once(self, spark):
        catalog = Catalog(spark, license_db(spark, n=100, seed=0))
        atom = r1_program().rules[0].body[1]
        view = catalog.goal_view(atom)
        assert catalog.goal_view(atom) is view
        assert view.name in _temp_views(spark)
        assert 0 < view.size <= statement.BROADCAST_LIMIT


class TestJoinStrategy:
    """r1 at 1K rows: each goal relation's estimate is far below 10 MiB."""

    @pytest.fixture(scope="class")
    def r1(self, spark):
        return Catalog(spark, license_db(spark, n=1000, seed=0)), r1_program()

    @staticmethod
    def _sample_and_plan(monkeypatch, catalog, prog):
        plans = []
        orig = Statement.dataframe

        def spy(self, select):
            df = orig(self, select)
            plans.append(df._jdf.queryExecution().executedPlan().toString())
            return df

        with monkeypatch.context() as m:
            m.setattr(Statement, "dataframe", spy)
            samples = sample_whynot(
                catalog, prog, parse_ptuple("InvalidD('city_7')"), n_s=100, seed=4
            )
        *domains, plan = plans  # a fresh catalog collects its domains first
        assert len(domains) <= 1
        return [rs.rows for rs in samples], plan

    def test_small_goal_relations_are_broadcast(self, r1, monkeypatch):
        catalog, prog = r1
        rows, plan = self._sample_and_plan(monkeypatch, catalog, prog)
        assert plan.count("BroadcastHashJoin") == 2  # one per goal
        assert "SortMergeJoin" not in plan
        monkeypatch.setattr(statement, "BROADCAST_LIMIT", 0)
        shuffled, plan = self._sample_and_plan(monkeypatch, catalog, prog)
        assert plan.count("SortMergeJoin") == 2
        assert "BroadcastHashJoin" not in plan
        assert shuffled == rows and rows[0]

    def test_variable_head_summaries_match_under_both_strategies(
        self, spark, monkeypatch
    ):
        # r3's head keeps two variables, so Q_der anti-joins Q(D)
        spec = QUERIES["r3"]
        tables = spec.build_db(spark, 200, 0)
        prog = spec.program()
        q = PQuestion(parse_ptuple("CasualWatch(T, 'family', N)"), WHYNOT)
        keys = []
        for limit in (statement.BROADCAST_LIMIT, 0):
            monkeypatch.setattr(statement, "BROADCAST_LIMIT", limit)
            catalog = Catalog(spark, tables)
            keys.append(_summary_key(summarize(catalog, prog, q, k=3, n_s=50, seed=1)))
        assert keys[0] == keys[1] and keys[0][0]


class TestParameters:
    """Constants a statement must not splice into its text: a string with
    a quote, a date, and a NULL inside a domain."""

    R = [
        ("o'hara", datetime.date(2020, 1, 2), 1),
        ("o'hara", datetime.date(2021, 5, 6), 2),
        ("smith", datetime.date(2020, 1, 2), 3),
        (None, datetime.date(2021, 5, 6), 1),
        ("smith", None, 2),
        ("jones", datetime.date(2020, 1, 2), 5),
    ]
    S = [("o'hara", 1), ("o'hara", 2), ("smith", 3)]
    PROGRAM = "Q(N, D) :- R(N, D, K), not S(N, K)."

    @pytest.fixture(scope="class")
    def catalog(self, spark):
        return Catalog(spark, {
            "R": spark.createDataFrame(self.R, "name string, day date, k int"),
            "S": spark.createDataFrame(self.S, "name string, k int"),
        })

    def _duckdb(self, bound: str, free: str, value) -> set[tuple]:
        """Whynot(Q, D, t) of the rule when head variable ``bound`` is set to
        ``value``: every (free, K) valuation over the active domains whose
        head is no answer, with its goal annotations."""
        col = {"N": "name", "D": "day"}
        con = duckdb.connect()
        try:
            con.execute("CREATE TABLE R (name VARCHAR, day DATE, k INTEGER)")
            con.execute("CREATE TABLE S (name VARCHAR, k INTEGER)")
            con.executemany("INSERT INTO R VALUES (?, ?, ?)", self.R)
            con.executemany("INSERT INTO S VALUES (?, ?)", self.S)
            fdom = "SELECT DISTINCT name AS v FROM R UNION SELECT name FROM S"
            if free == "D":
                fdom = "SELECT DISTINCT day AS v FROM R"
            b, f = col[bound], col[free]
            rows = con.execute(f"""
                WITH ans AS (
                    SELECT DISTINCT name, day FROM R r WHERE NOT EXISTS (
                        SELECT 1 FROM S s WHERE s.name = r.name AND s.k = r.k)),
                fd AS ({fdom}),
                kd AS (SELECT DISTINCT k AS v FROM R UNION SELECT k FROM S)
                SELECT fd.v, kd.v,
                    EXISTS (SELECT 1 FROM R r WHERE r.{b} = $c AND r.{f} = fd.v
                            AND r.k = kd.v),
                    NOT EXISTS (SELECT 1 FROM S s WHERE s.name = {
                        "$c" if bound == "N" else "fd.v"} AND s.k = kd.v)
                FROM fd, kd
                WHERE NOT EXISTS (
                    SELECT 1 FROM ans WHERE ans.{b} = $c AND ans.{f} = fd.v)
            """, {"c": value}).fetchall()
        finally:
            con.close()
        return set(rows)

    @pytest.mark.parametrize("bound,free,value", [
        ("N", "D", "o'hara"),
        ("D", "N", datetime.date(2020, 1, 2)),
    ])
    def test_full_and_sample_match_duckdb(self, catalog, bound, free, value):
        prog = parse_program(self.PROGRAM)
        args = (Const(value), Var("D")) if bound == "N" else (Var("N"), Const(value))
        t = PTuple("Q", args)
        ((_, rows),) = whynot_full(catalog, prog, t)
        full = set(rows)
        expected = self._duckdb(bound, free, value)
        assert full == expected
        assert any(r[0] is None for r in full)  # NULL is a domain value
        if bound == "D":  # jones has an answer on that day: Q_der drops it
            assert not any(r[0] == "jones" for r in full)
        (rs,) = sample_whynot(catalog, prog, t, n_s=300, seed=2)
        assert set(rs.rows) == full and rs.n_survivors == len(full)


class TestShufflePartitions:
    @pytest.mark.parametrize("limit", [statement.BROADCAST_LIMIT, 0])
    def test_summaries_identical_at_4_and_64(self, spark, monkeypatch, limit):
        monkeypatch.setattr(statement, "BROADCAST_LIMIT", limit)
        tables = license_db(spark, n=500, seed=0)
        prog = r1_program()
        questions = [
            PQuestion(parse_ptuple("InvalidD('city_7')"), WHYNOT),
            PQuestion(parse_ptuple("InvalidD(C)"), WHY),
        ]
        old = spark.conf.get("spark.sql.shuffle.partitions")
        keys = []
        try:
            for parts in ("4", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", parts)
                catalog = Catalog(spark, tables)
                keys.append([
                    _summary_key(summarize(catalog, prog, q, k=3, n_s=40, seed=9))
                    for q in questions
                ])
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)
        assert keys[0] == keys[1]
        assert all(k[0] for k in keys[0])
