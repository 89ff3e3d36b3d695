"""Tests for the batch why-not sampling pipeline (Sec. 5)."""
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import SparkSession
from pyspark.sql.types import IntegerType

from repro.core.ast import Var, parse_program
from repro.core.unify import (
    WHY,
    WHYNOT,
    PQuestion,
    parse_ptuple,
    unify_program,
    unify_rule,
)
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import graph_r, rex_catalog, rex_program
from repro.datasets.license import license_db, r1_program, r2_program
from repro.engine.catalog import Catalog, canonical_sort
from repro.engine.eval import successful_derivations
from repro.engine.statement import Statement
from repro.provenance.whynot_full import (
    fill_variable_domains,
    variable_domain,
    variable_values,
    whynot_full,
)
from repro.sampling.ops import sample_with_replacement
from repro.sampling.whynot import sample_whynot, sample_whynot_rule
from repro.summarize.pipeline import summarize


def _records(rs, rows=None):
    """A RuleSample's rows, or ``rows`` of the same rule, as dicts keyed
    by its schema's column names."""
    rows = rs.rows if rows is None else rows
    return [dict(zip(rs.schema.names, r)) for r in rows]


@pytest.fixture(scope="module")
def rex(spark):
    return rex_catalog(spark), rex_program()


def _rex_with_x(spark, values):
    """The rex catalog with X's attribute R.a overridden by ``values``;
    attrs(Z) = {R.b, R.a}, so Z keeps {1,…,6}."""
    catalog = rex_catalog(spark)
    catalog.set_domain("R", 0, spark.createDataFrame(pd.DataFrame({"v": values})))
    return catalog


@pytest.fixture(scope="module")
def airbnb(spark):
    return Catalog(spark, s_airbnb(spark)), airbnb_program()


class TestOps:
    def test_sample_size(self):
        out = sample_with_replacement([1, 2, 3], 50, np.random.default_rng(3))
        assert len(out) == 50

    def test_sample_ids_are_picks(self):
        # pick i is the i-th draw of the generator, so per-variable picks
        # zip into bindings by position
        vals = [10, 20, 30]
        out = sample_with_replacement(vals, 20, np.random.default_rng(3))
        idx = np.random.default_rng(3).integers(0, 3, size=20)
        assert list(out) == [vals[i] for i in idx]

    def test_sample_values_from_domain(self):
        out = sample_with_replacement([10, 20], 30, np.random.default_rng(1))
        assert set(out) <= {10, 20}

    def test_sample_with_replacement_covers(self):
        # 200 picks from a 3-value domain hit every value w.h.p.
        out = sample_with_replacement([1, 2, 3], 200, np.random.default_rng(5))
        assert set(out) == {1, 2, 3}

    def test_empty_domain_raises(self):
        with pytest.raises(ValueError, match="empty"):
            sample_with_replacement([], 5, np.random.default_rng(0))

    def test_nonpositive_n_raises(self):
        with pytest.raises(ValueError):
            sample_with_replacement([1], 0, np.random.default_rng(0))

    def test_canonical_sort_puts_none_last(self):
        rows = [("b", 2), (None, 1), ("a", None), ("a", 1)]
        assert canonical_sort(rows) == [("a", 1), ("a", None), ("b", 2), (None, 1)]


class TestSampleWhynot:
    def test_sample_subset_of_whynot(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=30, seed=0)
        rows = {(r["X"], r["Z"], r["g1"], r["g2"]) for r in _records(rs)}
        assert rows  # non-empty
        (_, full_rows), = whynot_full(catalog, prog, parse_ptuple("Qex(X, 4)"))
        full = {
            (r["X"], r["Z"], r["g1"], r["g2"]) for r in _records(rs, full_rows)
        }
        assert rows <= full

    def test_large_sample_covers_everything(self, rex):
        # n_S >> |Whynot| (12): the distinct sampled derivations must
        # converge to the full set
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=500, seed=1)
        assert len(rs.rows) == 12

    def test_predicate_respected(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=50, seed=2)
        assert all(r["X"] < 4 for r in _records(rs))

    def test_no_existing_answer_heads(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=50, seed=3)
        assert all(r["X"] != 1 for r in _records(rs))

    def test_p_prov_and_n_os(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=10, seed=0)
        # one existing answer over the 3-value filtered X domain
        assert rs.p_prov == pytest.approx(1 - 1 / 3)
        assert rs.n_os >= 10
        assert rs.n_all_derivations == 18

    def test_airbnb_sampling(self, airbnb):
        catalog, prog = airbnb
        samples = sample_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), n_s=100, seed=0
        )
        assert len(samples) == 1
        rs = samples[0]
        assert rs.p_prov == 1.0  # no existing shared answers
        assert 0 < len(rs.rows) <= 100
        cols = set(rs.schema.names)
        assert cols == {"N", "I", "T", "E", "P", "g1", "g2"}

    def test_airbnb_annotations_consistent(self, airbnb):
        # every sampled derivation's annotations must match the full
        # enumeration (same derivation → same goal vector)
        catalog, prog = airbnb
        samples = sample_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), n_s=50, seed=4
        )
        (_, full_rows), = whynot_full(catalog, prog, parse_ptuple("AL(N, shared)"))
        full = {
            (r["N"], r["I"], r["T"], r["E"], r["P"]): (r["g1"], r["g2"])
            for r in _records(samples[0], full_rows)
        }
        for r in _records(samples[0]):
            key = (r["N"], r["I"], r["T"], r["E"], r["P"])
            assert full[key] == (r["g1"], r["g2"])

    def test_deterministic_given_seed(self, airbnb):
        catalog, prog = airbnb
        t = parse_ptuple("AL(N, shared)")
        a = sample_whynot(catalog, prog, t, n_s=20, seed=9)[0].rows
        b = sample_whynot(catalog, prog, t, n_s=20, seed=9)[0].rows
        assert sorted(map(tuple, a)) == sorted(map(tuple, b))

    def test_sampling_is_roughly_uniform(self, rex):
        # Theorem 1: each of the 12 why-not derivations should appear
        # with similar frequency across repeated small samples
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        counts: dict = {}
        for seed in range(12):
            rs = sample_whynot_rule(catalog, prog, u, n_s=4, seed=seed * 13)
            for r in _records(rs):
                counts[(r["X"], r["Z"])] = counts.get((r["X"], r["Z"]), 0) + 1
        assert len(counts) >= 9  # most derivations were seen at least once

    def test_empty_theta_x_domain_gives_empty_sample(self, rex, spark):
        # the rule requires X < 4: a domain of X values ≥ 4 leaves no
        # derivation, hence no why-not provenance
        _, prog = rex
        catalog = _rex_with_x(spark, [4, 5, 6])
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=10, seed=0)
        assert rs.n_os == 0 and rs.n_survivors == 0
        assert len(rs.rows) == 0
        assert rs.schema.names == ["X", "Z", "g1", "g2"]
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Qex(X, 4)"), WHYNOT),
            k=3, n_s=10,
        )
        assert s.patterns == () and s.per_rule == []

    def test_cap_reports_shortfall(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=10, seed=0, max_n_os=5)
        assert rs.n_os == 5 and rs.capped
        assert 0 < rs.n_survivors < 10
        assert len(rs.rows) == rs.n_survivors
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Qex(X, 4)"), WHYNOT),
            k=1, n_s=10, max_n_os=5,
        )
        (stats,) = s.per_rule
        assert stats["capped"] and stats["n_survivors"] == stats["n_sample"] < 10

    def test_uncapped_reports_survivors(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=5, seed=0)
        assert not rs.capped
        assert len(rs.rows) == 5 < rs.n_survivors <= 12

    def test_rows_are_the_sample(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(catalog, prog, u, n_s=5, seed=0)
        assert len(rs.rows) == 5
        assert all(len(r) == len(rs.schema) for r in rs.rows)
        assert all(isinstance(g, bool) for r in rs.rows for g in r[2:])

    def test_p_prov_counts_only_answers_in_the_domain(self, rex, spark):
        # the existing answer Qex(1, 4) lies outside X's domain {3}: no
        # draw can hit it, so every drawn derivation survives Q_der
        warm, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        sample_whynot_rule(warm, prog, u, n_s=10)  # warm
        catalog = _rex_with_x(spark, [3])
        t0 = time.perf_counter()
        rs = sample_whynot_rule(catalog, prog, u, n_s=10, seed=0)
        assert time.perf_counter() - t0 < 15
        assert rs.p_prov == 1.0
        assert not rs.capped and rs.n_os <= 20
        assert {r[0] for r in rs.rows} == {3}
        assert 0 < rs.n_survivors == len(rs.rows) <= 6  # 6 values of Z


class TestPartitioningInvariance:
    """A sampled summary is a function of (data, question, seed, k, n_S):
    neither the shuffle partition count nor the partitioning of the
    input tables may change it."""

    T = "AL(N, shared)"

    @staticmethod
    def _run(spark, tables, prog):
        catalog = Catalog(spark, tables)
        t = parse_ptuple(TestPartitioningInvariance.T)
        rows = sorted(
            sample_whynot(catalog, prog, t, n_s=30, seed=5)[0].rows
        )
        s = summarize(
            catalog, prog, PQuestion(t, WHYNOT), k=3, n_s=30, seed=5
        )
        return rows, sorted(p.pretty() for p in s.patterns), round(s.score, 12)

    @staticmethod
    def _under_partitionings(spark, tables, run):
        """run(tables) under shuffle partitions 4, 16 and 64, then with
        every input table repartitioned to 1 and to 7 partitions."""
        old = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            results = []
            for parts in ("4", "16", "64"):
                spark.conf.set("spark.sql.shuffle.partitions", parts)
                results.append(run(tables))
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", old)
        for n in (1, 7):
            results.append(run({k: df.repartition(n) for k, df in tables.items()}))
        return results

    def test_same_sample_and_summary_under_any_partitioning(self, spark):
        prog = airbnb_program()
        results = self._under_partitionings(
            spark, s_airbnb(spark), lambda ts: self._run(spark, ts, prog)
        )
        rows, patterns, score = results[0]
        assert 0 < len(rows) <= 30 and patterns
        assert results[1:] == [results[0]] * 4

    def test_same_why_summary_under_any_partitioning(self, spark):
        # more why derivations than n_S: the n_S cut picks the sample
        prog = r1_program()

        def run(tables):
            s = summarize(
                Catalog(spark, tables), prog,
                PQuestion(parse_ptuple("InvalidD(C)"), WHY), k=3, n_s=40, seed=5,
            )
            assert s.per_rule[0]["n_survivors"] > 40
            return sorted(p.pretty() for p in s.patterns), round(s.score, 12)

        results = self._under_partitionings(
            spark, license_db(spark, n=500, seed=0), run
        )
        assert results[0][0]
        assert results[1:] == [results[0]] * 4


def _jobs_of(spark, fn):
    """fn()'s result and the number of Spark jobs it launched."""
    tracker = spark.sparkContext.statusTracker()

    def last() -> int:
        ids = tracker.getJobIdsForGroup(None)
        return max(ids) if ids else -1

    j0 = last()
    out = fn()
    return out, last() - j0


def _actions_of(monkeypatch, spark, fn):
    """fn()'s result and the number of DataFrame actions it ran (an
    action that calls another, like ``first`` → ``take``, counts once)."""
    cls = type(spark.range(1))
    calls = []

    def counted(orig):
        def action(df, *args, **kwargs):
            if calls and calls[-1] is None:  # inside another action
                return orig(df, *args, **kwargs)
            calls.append(None)
            try:
                return orig(df, *args, **kwargs)
            finally:
                calls[-1] = orig.__name__

        return action

    with monkeypatch.context() as m:
        for name in ("collect", "count", "take", "head", "first", "tail",
                     "isEmpty", "toPandas", "toArrow", "toLocalIterator",
                     "foreach", "foreachPartition", "show"):
            if name in vars(cls):
                m.setattr(cls, name, counted(vars(cls)[name]))
        out = fn()
    return out, calls


def _plan_nodes(df) -> list[str]:
    """The node names of ``df``'s executed physical plan, adaptive query
    stages included; not those of the cached plans its scans read."""
    out, todo = [], [df._jdf.queryExecution().executedPlan()]
    while todo:
        plan = todo.pop()
        out.append(plan.nodeName())
        if out[-1] == "AdaptiveSparkPlan":
            todo.append(plan.executedPlan())
        elif out[-1].endswith("QueryStage"):
            todo.append(plan.plan())
        children = plan.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return out


def _summary_key(s):
    """Everything a summary answers: patterns, score, per-rule stats and
    the stored sample rows."""
    rows = {rid: (r.args, r.goals) for rid, r in s.store.rules.items()}
    return [p.pretty() for p in s.patterns], s.score, s.per_rule, rows


class TestCatalogReuse:
    """Variable domains and Q(D) do not depend on the question: a catalog
    computes them once and later questions reuse them, with the same
    summaries as a fresh catalog."""

    def test_second_question_reuses_domains_and_result(self, spark):
        tables = license_db(spark, n=300, seed=0)
        prog = r1_program()
        catalog = Catalog(spark, tables)

        def ask(cat, city, seed):
            q = PQuestion(parse_ptuple(f"InvalidD('{city}')"), WHYNOT)
            return summarize(cat, prog, q, k=3, n_s=50, seed=seed)

        _, first_jobs = _jobs_of(spark, lambda: ask(catalog, "city_0", 1))
        second, second_jobs = _jobs_of(spark, lambda: ask(catalog, "city_7", 2))
        assert second_jobs < first_jobs
        fresh = ask(Catalog(spark, tables), "city_7", 2)
        assert second.patterns
        assert _summary_key(second) == _summary_key(fresh)

    def test_filtered_and_unfiltered_domains_kept_apart(self, spark):
        # r2 filters byear by B < 1953, r1 does not: on one catalog each
        # gets its own domain, whichever is asked for first
        tables = license_db(spark, n=300, seed=0)
        u2 = unify_rule(r2_program().rules[0], parse_ptuple("Fsenior('x')"))
        u1 = unify_rule(r1_program().rules[0], parse_ptuple("InvalidD('city_0')"))
        B = Var("B")
        fresh_filtered = variable_values(Catalog(spark, tables), u2, B)
        fresh_all = variable_values(Catalog(spark, tables), u1, B)
        assert max(fresh_filtered[1]) < 1953 <= max(fresh_all[1])
        for first in (u2, u1):
            catalog = Catalog(spark, tables)
            variable_values(catalog, first, B)
            assert variable_values(catalog, u2, B) == fresh_filtered
            assert variable_values(catalog, u1, B) == fresh_all
            assert catalog.domain_size([("LICENSE", 1)]) == len(fresh_all[1])

    def test_one_collect_fills_the_domains_a_direct_collect_gives(
        self, spark, monkeypatch
    ):
        # attrs(X) = {R.a INT, S.c BIGINT}, both with a NULL, filtered by
        # θ_X = X != 3; Y's and Z's domains keep their NULL
        tables = {
            "R": spark.createDataFrame(
                [(1, 10), (2, None), (3, 30), (None, 10)], "a int, b bigint"
            ),
            "S": spark.createDataFrame(
                [(2, "x"), (5, None), (None, "y")], "c bigint, d string"
            ),
        }
        prog = parse_program("Q(X) :- R(X, Y), S(X, Z), X != 3.")
        (u,) = unify_program(prog, parse_ptuple("Q(X)"))
        catalog = Catalog(spark, tables)
        _, actions = _actions_of(
            monkeypatch, spark, lambda: fill_variable_domains(catalog, [u])
        )
        assert actions == ["collect"]
        got, actions = _actions_of(
            monkeypatch, spark,
            lambda: [variable_values(catalog, u, v) for v in u.unbound],
        )
        assert actions == []
        for var, (field, values) in zip(u.unbound, got):
            direct = variable_domain(catalog, u, var)
            assert field.name == var.name
            assert field.dataType == direct.schema[0].dataType
            assert values == tuple(r[0] for r in canonical_sort(direct.collect()))
        assert [values for _, values in got] == [
            (1, 2, 5), (10, 30, None), ("x", "y", None)
        ]
        assert got[0][0].dataType == IntegerType()  # R.a's type, first in attrs(X)
        size, actions = _actions_of(
            monkeypatch, spark, lambda: catalog.domain_size([("R", 1)])
        )
        assert size == 3 and actions == []  # Y's domain: the same entry

    def test_set_domain_reaches_every_variable_of_the_attribute(self, spark):
        # attrs(X) = {R.a}, attrs(Z) = {R.b, R.a}: overriding R.a fixes X
        # and joins Z's union. Qex(X, Y) leaves X < Y to θ_join, so X's
        # domain is not filtered.
        u = unify_rule(rex_program().rules[0], parse_ptuple("Qex(X, Y)"))
        X, Z = Var("X"), Var("Z")
        catalog = _rex_with_x(spark, [4, 5, 6])
        assert variable_values(catalog, u, X)[1] == (4, 5, 6)
        assert variable_values(catalog, u, Z)[1] == (1, 2, 3, 4, 5, 6)
        active = Catalog(spark, graph_r(spark))  # R.b's values are {2,…,6}
        active.set_domain(
            "R", 0, spark.createDataFrame(pd.DataFrame({"v": [4, 5, 6, 7]}))
        )
        assert variable_values(active, u, X)[1] == (4, 5, 6, 7)
        assert variable_values(active, u, Z)[1] == (2, 3, 4, 5, 6, 7)

    def test_set_domain_replaces_cached_domain(self, spark):
        prog = airbnb_program()
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        prices = spark.createDataFrame(pd.DataFrame({"v": [10, 20, 30]}))
        names = [v.name for v in unify_rule(prog.rules[0], q.ptuple).unbound]

        def p_values(summary):
            return {a[names.index("P")] for a in summary.store.rules["r1"].args}

        catalog = Catalog(spark, s_airbnb(spark))
        before = summarize(catalog, prog, q, k=3, n_s=30, seed=5)
        assert p_values(before) - {10, 20, 30}
        catalog.set_domain("AVAILABILITY", 2, prices)
        after = summarize(catalog, prog, q, k=3, n_s=30, seed=5)
        assert p_values(after) <= {10, 20, 30}
        fresh = Catalog(spark, s_airbnb(spark))
        fresh.set_domain("AVAILABILITY", 2, prices)
        assert _summary_key(after) == _summary_key(
            summarize(fresh, prog, q, k=3, n_s=30, seed=5)
        )


#: A tiny database for unions. Q(D) = {Q(1), Q(3)}, both from rule 1.
_UNION_DB = {
    "R": pd.DataFrame({"a": [1, 2, 3], "b": [1, 2, 3]}),
    "S": pd.DataFrame({"a": [2]}),
    "T": pd.DataFrame({"a": [1, 4]}),
}
_UNION_RULES = (
    "Q(X) :- R(X, Y), not S(Y).",
    "Q(X) :- T(X), S(X).",
    "Q(X) :- T(X), not S(2).",  # S(2) exists: the ground negated goal fails
)


class TestOneAction:
    """A why-not question on a warm catalog is one Spark action, however
    many rules its query has; a why question is one action too."""

    def test_warm_r1_whynot(self, spark, monkeypatch):
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        prog = r1_program()

        def ask(city, seed):
            q = PQuestion(parse_ptuple(f"InvalidD('{city}')"), WHYNOT)
            return summarize(catalog, prog, q, k=3, n_s=50, seed=seed)

        ask("city_0", 1)
        s, actions = _actions_of(monkeypatch, spark, lambda: ask("city_7", 2))
        assert s.patterns
        assert actions == ["collect"]

    def test_r1_why(self, spark, monkeypatch):
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        q = PQuestion(parse_ptuple("InvalidD(C)"), WHY)
        s, actions = _actions_of(
            monkeypatch, spark,
            lambda: summarize(catalog, r1_program(), q, k=3, n_s=40, seed=3),
        )
        assert s.patterns
        assert actions == ["collect"]

    def test_warm_r1_why_is_one_job(self, spark, monkeypatch):
        # the cut is a top-n and |Why| comes from the catalog's count
        # index: no window, so nothing moves rows to one partition
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        q = PQuestion(parse_ptuple("InvalidD(C)"), WHY)

        def ask(seed):
            return summarize(catalog, r1_program(), q, k=3, n_s=40, seed=seed)

        ask(3)
        frames = []
        orig = Statement.dataframe

        def spy(self, select):
            frames.append(orig(self, select))
            return frames[-1]

        monkeypatch.setattr(Statement, "dataframe", spy)
        s, jobs = _jobs_of(spark, lambda: ask(4))
        assert s.patterns and s.per_rule[0]["n_survivors"] > 40
        assert jobs == 1
        (df,) = frames
        nodes = _plan_nodes(df)
        assert "TakeOrderedAndProject" in nodes
        assert not [
            n for n in nodes
            if n in ("ShuffleQueryStage", "Window") or "Exchange" in n
        ]

    def test_why_with_ground_goals(self, spark, monkeypatch):
        # S(2) exists and S(5) does not: both ground goals hold
        catalog = Catalog(
            spark, {k: spark.createDataFrame(v) for k, v in _UNION_DB.items()}
        )
        prog = parse_program("Q(X) :- T(X), S(2), not S(5).")
        q = PQuestion(parse_ptuple("Q(X)"), WHY)
        s, actions = _actions_of(
            monkeypatch, spark, lambda: summarize(catalog, prog, q, k=1, n_s=10)
        )
        assert actions == ["collect"]
        assert s.per_rule[0]["n_survivors"] == 2  # X = 1 and X = 4

    def test_why_union(self, spark, monkeypatch):
        # every rule's cut runs in the one collect, and each rule's
        # observation counts all its derivations, not the n_S = 1 it keeps
        catalog = Catalog(
            spark, {k: spark.createDataFrame(v) for k, v in _UNION_DB.items()}
        )
        prog = parse_program(*_UNION_RULES, "Q(X) :- T(X), not S(X).")
        q = PQuestion(parse_ptuple("Q(X)"), WHY)
        s, actions = _actions_of(
            monkeypatch, spark, lambda: summarize(catalog, prog, q, k=1, n_s=1)
        )
        assert actions == ["collect"]
        counts = {
            u.rule_id: successful_derivations(catalog, u.rule).count()
            for u in unify_program(prog, q.ptuple)
        }
        assert counts == {"r": 2, "r_2": 0, "r_3": 0, "r_4": 2}
        assert {r["rule_id"]: r["n_survivors"] for r in s.per_rule} == {
            rid: n for rid, n in counts.items() if n
        }
        assert all(r["n_sample"] == 1 for r in s.per_rule)

    def test_cold_r1_whynot(self, spark, monkeypatch):
        # a fresh catalog: Q(D)'s answers, every domain in one collect,
        # then the fused plan
        tables = license_db(spark, n=300, seed=0)
        q = PQuestion(parse_ptuple("InvalidD('city_0')"), WHYNOT)
        s, actions = _actions_of(
            monkeypatch, spark,
            lambda: summarize(Catalog(spark, tables), r1_program(), q, n_s=50),
        )
        assert s.patterns
        assert actions == ["collect"] * 3

    @pytest.mark.parametrize("n_rules", [2, 3])
    def test_union_matches_full(self, spark, monkeypatch, n_rules):
        catalog = Catalog(
            spark, {k: spark.createDataFrame(v) for k, v in _UNION_DB.items()}
        )
        prog = parse_program(*_UNION_RULES[:n_rules])
        t = parse_ptuple("Q(X)")
        sample_whynot(catalog, prog, t, n_s=5, seed=1)  # warm
        samples, actions = _actions_of(
            monkeypatch, spark, lambda: sample_whynot(catalog, prog, t, n_s=50)
        )
        assert actions == ["collect"]
        full = {u.rule_id: set(rows) for u, rows in whynot_full(catalog, prog, t)}
        assert {rs.rule_id: set(rs.rows) for rs in samples} == full
        assert full["r"] == {(2, 1, False, True), (2, 2, True, False),
                             (2, 3, False, True)}
        if n_rules == 3:
            assert full["r_3"] == {(4, True, False)}
        # FULL on the warm catalog: every rule's enumeration in one collect
        s, actions = _actions_of(
            monkeypatch, spark,
            lambda: summarize(catalog, prog, PQuestion(t, WHYNOT), use_full=True),
        )
        assert actions == ["collect"]
        assert {r["rule_id"]: r["n_sample"] for r in s.per_rule} == {
            rid: len(rows) for rid, rows in full.items() if rows
        }

    def test_warm_full_whynot(self, spark, monkeypatch):
        # a ground head: the answer index decides whether its answer
        # exists, so only the enumeration itself runs
        catalog = Catalog(spark, license_db(spark, n=6, seed=0))
        q = PQuestion(parse_ptuple("InvalidD('city_0')"), WHYNOT)

        def ask():
            return summarize(catalog, r1_program(), q, k=3, use_full=True)

        cold, cold_actions = _actions_of(monkeypatch, spark, ask)
        warm, actions = _actions_of(monkeypatch, spark, ask)
        # the enumeration's row order is Spark's: compare all but the rows
        assert warm.patterns and _summary_key(warm)[:3] == _summary_key(cold)[:3]
        # cold: Q(D)'s answers, every domain in one collect, the enumeration
        assert cold_actions == ["collect"] * 3
        assert actions == ["collect"]


class TestBindingsTransfer:
    """The drawn bindings go to Spark as one Arrow-built local relation:
    no Python RDD is pickled for them, and the values, None included,
    come back as drawn."""

    @staticmethod
    def _collected_plans(monkeypatch, spark, fn):
        """fn()'s result and the optimized plan of every DataFrame it
        collected."""
        cls = type(spark.range(1))
        orig = vars(cls)["collect"]
        plans = []

        def collect(df):
            plans.append(df._jdf.queryExecution().optimizedPlan().toString())
            return orig(df)

        with monkeypatch.context() as m:
            m.setattr(cls, "collect", collect)
            out = fn()
        return out, plans

    def test_warm_r1_whynot_plan_reads_a_local_relation(self, spark, monkeypatch):
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        prog = r1_program()

        def ask(city, seed):
            q = PQuestion(parse_ptuple(f"InvalidD('{city}')"), WHYNOT)
            return summarize(catalog, prog, q, k=3, n_s=50, seed=seed)

        ask("city_0", 1)
        s, (plan,) = self._collected_plans(
            monkeypatch, spark, lambda: ask("city_7", 2)
        )
        assert s.patterns
        assert "LocalRelation" in plan and "LogicalRDD" not in plan

    def test_no_python_list_reaches_create_data_frame(self, spark, monkeypatch):
        tables = license_db(spark, n=300, seed=0)
        passed = []
        orig = SparkSession.createDataFrame

        def create(self, data, *args, **kwargs):
            passed.append(type(data))
            return orig(self, data, *args, **kwargs)

        monkeypatch.setattr(SparkSession, "createDataFrame", create)
        catalog = Catalog(spark, tables)
        for text, qtype in (("InvalidD(C)", WHY), ("InvalidD('city_0')", WHYNOT),
                            ("InvalidD('city_7')", WHYNOT)):
            q = PQuestion(parse_ptuple(text), qtype)
            assert summarize(catalog, r1_program(), q, k=3, n_s=50).patterns
        assert set(passed) == {pa.Table}

    def test_null_in_domains_matches_full(self, spark):
        # Q(D) = {Q(1), Q(4)}; X's domain {1, 2, 4, None} and Y's domain
        # {1, 2, None} both hold a NULL. A None binding has no join
        # partner: R(None, 2) exists, yet (None, 2)'s positive goal is F
        catalog = Catalog(spark, {
            "R": spark.createDataFrame(
                [(1, 1), (2, 2), (None, 2), (4, None)], "a long, b long"
            ),
            "S": spark.createDataFrame([(2,)], "a long"),
        })
        prog = parse_program("Q(X) :- R(X, Y), not S(Y).")
        t = parse_ptuple("Q(X)")
        ((_, full_rows),) = whynot_full(catalog, prog, t)
        full = canonical_sort(full_rows)
        assert full == [
            (2, 1, False, True), (2, 2, True, False), (2, None, False, True),
            (None, 1, False, True), (None, 2, False, False),
            (None, None, False, True),
        ]
        (rs,) = sample_whynot(catalog, prog, t, n_s=50, seed=0)
        assert rs.rows == full and rs.n_survivors == len(full)


class TestEdgeCases:
    def test_fully_bound_existing_answer_gives_empty_summary(
        self, rex, spark, monkeypatch
    ):
        # Qex(1, 4) exists: Whynot is empty. Once the catalog holds Q(D)
        # and Z's domain, that is decided without a Spark action.
        catalog, prog = rex
        q = PQuestion(parse_ptuple("Qex(1, 4)"), WHYNOT)
        summarize(catalog, prog, PQuestion(parse_ptuple("Qex(X, 4)"), WHYNOT),
                  n_s=5)  # warm
        s, actions = _actions_of(
            monkeypatch, spark, lambda: summarize(catalog, prog, q, k=3, n_s=10)
        )
        assert s.patterns == () and s.per_rule == [] and s.score == 0.0
        assert actions == []

    def test_why_without_derivations_gives_empty_summary(self, spark):
        # T ⋈ S is empty: adaptive execution prunes the empty plan, and
        # with it the cut's observation, which then must not be read
        catalog = Catalog(
            spark, {k: spark.createDataFrame(v) for k, v in _UNION_DB.items()}
        )
        prog = parse_program("Q(X) :- T(X), S(X).")
        s = summarize(catalog, prog, PQuestion(parse_ptuple("Q(X)"), WHY), n_s=5)
        assert s.patterns == () and s.per_rule == [] and s.score == 0.0

    def test_ground_negated_goal_that_holds_gives_empty_sample(self, spark):
        # ¬S(5) holds, and every X in R's domain has its answer via Y = X:
        # every derivation derives an existing answer, and the answer index
        # shows it before anything is drawn
        catalog = Catalog(
            spark, {k: spark.createDataFrame(v) for k, v in _UNION_DB.items()}
        )
        prog = parse_program("Q(X) :- R(X, Y), not S(5).")
        (rs,) = sample_whynot(catalog, prog, parse_ptuple("Q(X)"), n_s=20)
        assert rs.n_os == 0 and rs.rows == [] and rs.n_survivors == 0
        ((_, full),) = whynot_full(catalog, prog, parse_ptuple("Q(X)"))
        assert len(full) == 0

    def test_every_head_value_existing_draws_nothing(self, spark, monkeypatch):
        # Q(D) = {Q(1), Q(2)} holds every value of X's domain: Whynot is
        # empty. Nothing is drawn, no shortfall is reported, and once the
        # catalog holds Q(D) and the domains no Spark action runs.
        catalog = Catalog(spark, {
            "R": spark.createDataFrame([(1, 1), (2, 2), (1, 2)], "a long, b long"),
        })
        prog = parse_program("Q(X) :- R(X, Y).")
        t = parse_ptuple("Q(X)")
        (rs,), actions = _actions_of(
            monkeypatch, spark, lambda: sample_whynot(catalog, prog, t, n_s=20)
        )
        assert rs.rows == [] and rs.n_survivors == 0
        assert rs.n_os == 0 and not rs.capped
        assert actions == ["collect", "collect"]  # Q(D), then the domains
        _, actions = _actions_of(
            monkeypatch, spark, lambda: sample_whynot(catalog, prog, t, n_s=20)
        )
        assert actions == []
        ((_, full),) = whynot_full(catalog, prog, t)
        assert full == []

    def test_null_head_answer_is_not_counted_as_existing(self, spark):
        # Q(D) = {Q(1), Q(NULL)}. Q_der's anti-join compares with SQL =,
        # so it never removes the X = NULL derivations: only X = 1 has an
        # answer the draws can hit, and p_prov is 2/3 of X's 3 values
        catalog = Catalog(spark, {
            "R": spark.createDataFrame(
                [(1, 1), (None, 3), (2, 2)], "a long, b long"
            ),
            "S": spark.createDataFrame([(2,)], "a long"),
        })
        prog = parse_program("Q(X) :- R(X, Y), not S(Y).")
        t = parse_ptuple("Q(X)")
        (rs,) = sample_whynot(catalog, prog, t, n_s=50, seed=0)
        assert rs.p_prov == pytest.approx(2 / 3)
        ((_, full_rows),) = whynot_full(catalog, prog, t)
        full = set(full_rows)
        assert rs.rows and set(rs.rows) <= full
