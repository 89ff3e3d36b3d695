"""Tests for provenance capture: why derivations, full why-not
enumeration, and goal annotation — pinned to the paper's Fig. 1–3
numbers (2160 Airbnb derivations, the Example 6 annotations, etc.)."""
import pandas as pd
import pytest

from repro.core.ast import parse_program
from repro.core.unify import (
    WHY,
    WHYNOT,
    PQuestion,
    parse_ptuple,
    unify_program,
    unify_rule,
)
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import R_EX, graph_r, rex_catalog, rex_program
from repro.datasets.license import license_db, r1_program, r2_program
from repro.datasets.movies import movies, r4_program
from repro.engine.catalog import Catalog
from repro.engine.eval import successful_derivations
from repro.engine.statement import Statement
from repro.provenance.annotate import annotate_select
from repro.engine.statement import quote
from repro.provenance.annotate import goal_column_names
from repro.provenance.why import sample_why, why_count, why_select, why_size
from repro.summarize.pipeline import summarize
from repro.provenance.whynot_full import (
    all_valuations,
    count_all_derivations,
    der_select,
    whynot_full,
)
from tests.test_sampling import _actions_of


@pytest.fixture(scope="module")
def rex(spark):
    return rex_catalog(spark), rex_program()


@pytest.fixture(scope="module")
def airbnb(spark):
    return Catalog(spark, s_airbnb(spark)), airbnb_program()


#: An n_S above every |Why| below: the cut keeps every derivation.
ALL = 1 << 30


def _records(u, rows):
    """Rows of one rule as dicts keyed by column: the unbound variables,
    then ``g1 … gm``."""
    names = [v.name for v in u.unbound] + goal_column_names(u.n_goals)
    return [dict(zip(names, r)) for r in rows]


class TestWhy:
    def test_rex_why_all_goals_true(self, rex):
        catalog, prog = rex
        ((u, d, _),) = sample_why(catalog, prog, parse_ptuple("Qex(X, 4)"), ALL, 0)
        rows = {(r["X"], r["Z"], r["g1"], r["g2"]) for r in _records(u, d)}
        # only existing answer matching Qex(X,4) is (1,4) via 1-2-4
        assert rows == {(1, 2, True, True)}

    def test_why_provenance_multi(self, rex):
        catalog, prog = rex
        triples = sample_why(catalog, prog, parse_ptuple("Qex(X, Y)"), ALL, 0)
        assert len(triples) == 1
        u, rows, n = triples[0]
        assert len(rows) == n == 3  # three successful derivations

    def test_airbnb_why(self, airbnb):
        catalog, prog = airbnb
        triples = sample_why(catalog, prog, parse_ptuple("AL(N, R)"), ALL, 0)
        _, rows, _ = triples[0]
        rows = set(rows)
        # two successful derivations: cozy homebase (2445, $45) and
        # modern view (2332, $350)
        assert len(rows) == 2


class TestWhyFromCatalog:
    """``sample_why`` filters the catalog's persisted derivations of the
    base rule; its oracle evaluates the unified rule from scratch."""

    @staticmethod
    def _check(catalog, program, ptuple):
        """Per rule of ``program``: the derivations both paths agree on."""
        t = parse_ptuple(ptuple)
        rules = unify_program(program, t)
        assert rules
        cut = {
            u.rule_id: (rows, k)
            for u, rows, k in sample_why(catalog, program, t, ALL, 0)
        }
        out = []
        for u in rules:
            names = [v.name for v in u.unbound]
            n = len(names)
            rows, k = cut.get(u.rule_id, ([], 0))
            assert len(rows) == k  # the cut keeps them all
            assert all(len(r) == n + u.n_goals for r in rows)
            assert all(all(r[n:]) for r in rows)
            oracle = successful_derivations(catalog, u.rule)
            assert oracle.columns == names
            expected = {tuple(r) for r in oracle.collect()}
            assert len(rows) == len(expected)  # no duplicate derivation
            assert {tuple(r[:n]) for r in rows} == expected
            out.append(expected)
        return out

    @pytest.fixture(scope="class")
    def license_cat(self, spark):
        return Catalog(spark, license_db(spark, n=300, seed=0))

    @pytest.mark.parametrize("ptuple", ["InvalidD(C)", "InvalidD('city_1')"])
    def test_r1(self, license_cat, ptuple):
        assert all(self._check(license_cat, r1_program(), ptuple))

    @pytest.mark.parametrize("ptuple", ["Fsenior(C)", "Fsenior('city_0')"])
    def test_r2_body_constant_and_comparison(self, license_cat, ptuple):
        assert all(self._check(license_cat, r2_program(), ptuple))

    @pytest.mark.parametrize("rule,ptuple,expected", [
        # a repeated placeholder adds X = Y
        ("P(X, Y) :- R(X, Z), R(Z, Y).", "P(X, X)", {(5, 5, 5)}),
        # binding Y leaves the ground goal R(2, 3), which holds ...
        ("P(X, Y) :- R(X, Y), R(Y, 3).", "P(X, 2)", {(1,)}),
        # ... or R(4, 3), which does not
        ("P(X, Y) :- R(X, Y), R(Y, 3).", "P(X, 4)", set()),
    ])
    def test_repeated_placeholder_and_ground_goals(
        self, spark, rule, ptuple, expected
    ):
        catalog = Catalog(spark, graph_r(spark))
        assert self._check(catalog, parse_program(rule), ptuple) == [expected]

    def test_bound_variable_in_negated_goal(self, spark):
        # R(5, 5) is an edge, so ¬R(Y, 5) fails for Y = 5
        catalog = Catalog(spark, graph_r(spark))
        prog = parse_program("P(X, Y) :- R(X, Y), not R(Y, X).")
        assert self._check(catalog, prog, "P(5, Y)") == [{(3,), (6,)}]

    @pytest.mark.parametrize("ptuple", ["Players(A)", "Players('jack black')"])
    def test_r4_union(self, spark, ptuple):
        catalog = Catalog(spark, movies(spark, n_movies=500, seed=0))
        assert all(self._check(catalog, r4_program(), ptuple))

    def test_second_question_reads_the_persisted_derivations(
        self, spark, monkeypatch
    ):
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        prog = r1_program()
        t1 = parse_ptuple("InvalidD('city_1')")
        t2 = parse_ptuple("InvalidD(C)")
        assert sample_why(catalog, prog, t1, ALL, 0)
        persisted = spark.sparkContext._jsc.getPersistentRDDs().size()
        rows, actions = _actions_of(
            monkeypatch, spark, lambda: sample_why(catalog, prog, t2, ALL, 0)
        )
        assert rows and actions == ["collect"]
        assert spark.sparkContext._jsc.getPersistentRDDs().size() == persisted


class TestWhyCountIndex:
    """|Why| from the catalog's count index (``why_size``, ``why_count``)
    equals ``COUNT(*)`` of ``why_select``, rule by rule."""

    @staticmethod
    def _check(catalog, program, ptuple):
        t = parse_ptuple(ptuple)
        rules = unify_program(program, t)
        assert rules
        total = why_size(catalog, program, t)
        counts = []
        for u in rules:
            stmt = Statement(catalog.spark)
            sql = f"SELECT COUNT(*) FROM ({why_select(stmt, catalog, u)})"
            want = stmt.dataframe(sql).collect()[0][0]
            assert why_count(catalog, u) == want
            counts.append(want)
        assert total == sum(counts)
        return counts

    @pytest.fixture(scope="class")
    def license_cat(self, spark):
        return Catalog(spark, license_db(spark, n=300, seed=0))

    @pytest.fixture(scope="class")
    def movies_cat(self, spark):
        return Catalog(spark, movies(spark, n_movies=500, seed=0))

    @pytest.mark.parametrize("ptuple", ["InvalidD(C)", "InvalidD('city_1')"])
    def test_r1(self, license_cat, ptuple):
        assert all(self._check(license_cat, r1_program(), ptuple))

    @pytest.mark.parametrize("ptuple", ["Players(A)", "Players('jack black')"])
    def test_r4_union(self, movies_cat, ptuple):
        assert any(self._check(movies_cat, r4_program(), ptuple))

    @pytest.fixture(scope="class")
    def null_graph(self, spark):
        # graph R of Fig. 3 with NULL endpoints: a 2-path through NULL is
        # no join match, and 2-paths from or to NULL give NULL head values
        edges = pd.DataFrame(
            {"a": [1, 2, 2, 5, 5, 5, 3, None, 2, None],
             "b": [2, 3, 4, 3, 5, 6, None, 3, None, 2]}
        )
        return Catalog(spark, {"R": spark.createDataFrame(edges.astype("Int64"))})

    @pytest.mark.parametrize("rule,ptuple,expected", [
        # X < Y holds for no NULL, and with X = Y for no row
        (R_EX, "Qex(X, X)", [0]),
        (R_EX, "Qex(X, Y)", [3]),
        # heads (NULL, NULL) and (5, 5): NULL = NULL is not true in SQL
        ("P(X, Y) :- R(X, Z), R(Z, Y).", "P(X, X)", [1]),
        ("P(X, Y) :- R(X, Z), R(Z, Y).", "P(X, Y)", [12]),
        # one head variable twice: no comparison, so a NULL head counts
        ("P(X, X) :- R(X, Z), R(Z, Y).", "P(Y, Y)", [12]),
        # a head constant: 1 → 2 → 3, NULL → 2 → 3 and 5 → 5 → 3
        ("P(X, 3) :- R(X, Z), R(Z, 3).", "P(X, Y)", [3]),
        ("P(X, 3) :- R(X, Z), R(Z, 3).", "P(5, Y)", [1]),
        ("P(X, 3) :- R(X, Z), R(Z, 3).", "P(Y, Y)", [0]),
        ("P(X, 5) :- R(X, Z), R(Z, 5).", "P(Y, Y)", [1]),
    ])
    def test_nulls_repeated_placeholders_and_head_constants(
        self, null_graph, rule, ptuple, expected
    ):
        assert self._check(null_graph, parse_program(rule), ptuple) == expected

    def test_one_action_fills_the_index(self, spark, monkeypatch):
        catalog = Catalog(spark, license_db(spark, n=300, seed=0))
        prog, t = r1_program(), parse_ptuple("InvalidD(C)")
        catalog.answers(prog)
        n, actions = _actions_of(
            monkeypatch, spark, lambda: why_size(catalog, prog, t)
        )
        assert n > 0 and actions == ["collect"]
        again, actions = _actions_of(
            monkeypatch, spark, lambda: why_size(catalog, prog, t)
        )
        assert again == n and actions == []


class TestWhySeed:
    """The why cut's seed reaches Spark as the bytes XXH64 hashes for it:
    the cut keeps the rows an integer seed keeps, and a new seed compiles
    no new generated code."""

    @pytest.fixture(scope="class")
    def r1(self, spark):
        return Catalog(spark, license_db(spark, n=1000, seed=0)), r1_program()

    @staticmethod
    def _explicit_cut(catalog, program, t, n_s, seed):
        """The cut with the seed as an INT (32 bits) or BIGINT literal."""
        typ = "INT" if -(1 << 31) <= seed < 1 << 31 else "BIGINT"
        out = []
        for u in unify_program(program, t):
            stmt = Statement(catalog.spark)
            names = [v.name for v in u.unbound] + goal_column_names(u.n_goals)
            cols = ", ".join(map(quote, names))
            rows = stmt.dataframe(
                f"SELECT *, COUNT(*) OVER () AS __n FROM "
                f"({why_select(stmt, catalog, u)}) ORDER BY "
                f"xxhash64(CAST({seed} AS {typ}), {cols}), {cols} LIMIT {n_s}"
            ).collect()
            out.append((u.rule_id, [tuple(r[:-1]) for r in rows], rows[0][-1]))
        return out

    @pytest.mark.parametrize(
        "seed", [0, -1, (1 << 31) - 1, 1 << 31, -(1 << 31) - 1, 1 << 40]
    )
    def test_same_cut_as_an_integer_seed(self, r1, seed):
        catalog, prog = r1
        t = parse_ptuple("InvalidD(C)")
        got = [
            (u.rule_id, rows, n) for u, rows, n in sample_why(catalog, prog, t, 40, seed)
        ]
        want = self._explicit_cut(catalog, prog, t, 40, seed)
        assert got == want
        assert want[0][2] > 40  # the cut drops rows

    def test_fresh_seeds_compile_no_code(self, spark, r1):
        catalog, prog = r1
        t = parse_ptuple("InvalidD(C)")
        metrics = spark._jvm.org.apache.spark.metrics.source.CodegenMetrics
        compiled = metrics.METRIC_COMPILATION_TIME()
        q = PQuestion(t, WHY)
        summarize(catalog, prog, q, k=2, n_s=40, seed=918_273)  # warm
        before = compiled.getCount()
        for seed in range(10):
            summarize(catalog, prog, q, k=2, n_s=40, seed=918_274 + seed)
        assert compiled.getCount() == before


class TestWhynotFull:
    def test_rex_counts(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        # X < 4 pre-filters X's domain to {1,2,3}; Z keeps 6 values
        assert count_all_derivations(catalog, u) == 18

    def test_rex_all_valuations(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        vals = all_valuations(catalog, u)
        assert vals.count() == 18
        assert set(vals.columns) == {"X", "Z"}

    def test_rex_whynot_is_12(self, rex):
        # 18 valuations minus the 6 derivations of existing answer (1,4)
        catalog, prog = rex
        full = whynot_full(catalog, prog, parse_ptuple("Qex(X, 4)"))
        (u, df), = full
        assert len(df) == 12
        assert {r["X"] for r in _records(u, df)} == {2, 3}

    def test_example6_annotations(self, rex):
        catalog, prog = rex
        full = whynot_full(catalog, prog, parse_ptuple("Qex(X, 4)"))
        (u, df), = full
        rows = {(r["X"], r["Z"]): (r["g1"], r["g2"]) for r in _records(u, df)}
        assert rows[(2, 2)] == (False, True)   # R(2,2) missing, R(2,4) exists
        assert rows[(2, 4)] == (True, False)   # R(2,4) exists, R(4,4) missing
        assert rows[(2, 3)] == (True, False)   # R(2,3) exists, R(3,4) missing
        assert rows[(3, 2)] == (False, True)

    def test_airbnb_2160(self, airbnb):
        # Sec. 1: 6·6·3·5·4 = 2160 derivations for AL(N, shared)
        catalog, prog = airbnb
        u = unify_rule(prog.rules[0], parse_ptuple("AL(N, shared)"))
        assert count_all_derivations(catalog, u) == 2160

    def test_airbnb_whynot_complete(self, airbnb):
        # AL(N, shared) has no existing answers → all 2160 are why-not
        catalog, prog = airbnb
        full = whynot_full(catalog, prog, parse_ptuple("AL(N, shared)"))
        (_, df), = full
        assert len(df) == 2160

    def test_airbnb_p1_match_count(self, airbnb):
        # pattern p1 (Fig. 2b): T = apt, goals (T, F) — matches exactly
        # the 8 derivations of the two unavailable shared apartments
        catalog, prog = airbnb
        full = whynot_full(catalog, prog, parse_ptuple("AL(N, shared)"))
        (u, df), = full
        n = sum(
            r["T"] == "apt" and r["g1"] is True and r["g2"] is False
            for r in _records(u, df)
        )
        assert n == 8

    def test_budget_guard(self, airbnb):
        catalog, prog = airbnb
        with pytest.raises(ValueError, match="exceeds"):
            whynot_full(
                catalog, prog, parse_ptuple("AL(N, shared)"),
                max_derivations=100,
            )

    def test_fully_bound_missing_head(self, rex):
        catalog, prog = rex
        t = parse_ptuple("Qex(2, 4)")  # missing answer, X bound too
        full = whynot_full(catalog, prog, t)
        (_, df), = full
        assert len(df) == 6  # all Z values, head is missing

    def test_fully_bound_existing_head(self, rex):
        catalog, prog = rex
        t = parse_ptuple("Qex(1, 4)")  # existing answer → empty why-not
        full = whynot_full(catalog, prog, t)
        (_, df), = full
        assert len(df) == 0


def _annotated(catalog, u, deriv):
    stmt = Statement(catalog.spark)
    return stmt.dataframe(annotate_select(stmt, catalog, u, stmt.frame(deriv)))


class TestAnnotate:
    def test_negated_goal_annotation(self, spark):
        db = {
            "R": spark.createDataFrame(pd.DataFrame({"a": [1, 2]})),
            "S": spark.createDataFrame(pd.DataFrame({"a": [2]})),
        }
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X), not S(X).")
        u = unify_rule(prog.rules[0], parse_ptuple("Q(X)"))
        deriv = spark.createDataFrame(pd.DataFrame({"X": [1, 2, 3]}))
        ann = _annotated(catalog, u, deriv)
        rows = {r["X"]: (r["g1"], r["g2"]) for r in ann.collect()}
        # X=1: R(1) exists (T), S(1) missing → ¬S succeeds (T)
        assert rows[1] == (True, True)
        # X=2: R(2) exists, S(2) exists → ¬S fails
        assert rows[2] == (True, False)
        # X=3: R(3) missing, S(3) missing → ¬S succeeds
        assert rows[3] == (False, True)

    def test_no_row_multiplication(self, spark):
        # duplicate-friendly relation: annotation must not duplicate rows
        db = {"R": spark.createDataFrame(pd.DataFrame({"a": [1, 1, 1]}))}
        catalog = Catalog(spark, db)
        prog = parse_program("Q(X) :- R(X).")
        u = unify_rule(prog.rules[0], parse_ptuple("Q(X)"))
        deriv = spark.createDataFrame(pd.DataFrame({"X": [1, 2]}))
        assert _annotated(catalog, u, deriv).count() == 2

    def test_anti_join_existing(self, rex):
        catalog, prog = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        deriv = catalog.spark.createDataFrame(
            pd.DataFrame({"X": [1, 2, 3], "Z": [9, 9, 9]})
        )
        stmt = Statement(catalog.spark)
        kept = stmt.dataframe(der_select(stmt, catalog, prog, u, stmt.frame(deriv)))
        assert {r["X"] for r in kept.collect()} == {2, 3}
