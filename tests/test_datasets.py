"""Tests for the synthetic dataset generators: schemas, determinism, and
the guarantees the provenance questions of Fig. 5 rely on."""
import pytest

from repro.core.unify import parse_ptuple
from repro.datasets.airbnb import airbnb_program, f_airbnb, s_airbnb
from repro.datasets.crimes import crimes, r5_program, r6_program
from repro.datasets.dblp import dblp, hops_rule
from repro.datasets.graph_r import graph_r
from repro.datasets.license import existing_city, license_db, r1_program, r2_program
from repro.datasets.movies import movies, r3_program, r4_program, r11_program, r12_program
from repro.datasets.synthetic_joins import chain_db, chain_query, star_db, star_query
from repro.datasets.tpch import R10_BINDABLE, r10_program, sample_constants, tpch_db
from repro.datasets.witness import crimedesc_program, witness_db
from repro.engine.catalog import Catalog
from repro.engine.eval import evaluate
from repro.experiments.queries import QUERIES


def _answers(spark, db, prog):
    return evaluate(Catalog(spark, db), prog)


class TestAirbnb:
    def test_s_airbnb_shapes(self, spark):
        db = s_airbnb(spark)
        assert db["LISTING"].count() == 6
        assert db["AVAILABILITY"].count() == 4

    def test_s_airbnb_answers(self, spark):
        rows = {
            (r["h0"], r["h1"])
            for r in _answers(spark, s_airbnb(spark), airbnb_program()).collect()
        }
        assert rows == {("cozy homebase", "private"), ("modern view", "entire")}

    def test_f_airbnb_shared_missing(self, spark):
        db = f_airbnb(spark, n_listings=300, seed=1)
        res = _answers(spark, db, airbnb_program())
        assert res.filter("h1 = 'shared'").count() == 0


class TestLicense:
    def test_schema(self, spark):
        db = license_db(spark, n=200, seed=0)
        assert db["LICENSE"].columns == [
            "id", "byear", "gender", "city", "ltype", "status",
        ]
        assert db["VALID"].columns == ["id"]

    def test_city0_all_valid(self, spark):
        db = license_db(spark, n=500, seed=0)
        res = _answers(spark, db, r1_program())
        assert res.filter("h0 = 'city_0'").count() == 0

    def test_r1_has_answers(self, spark):
        db = license_db(spark, n=500, seed=0)
        catalog = Catalog(spark, db)
        assert existing_city(db)  # some invalid city exists
        assert evaluate(catalog, r1_program()).count() > 0

    def test_r2_has_answers(self, spark):
        db = license_db(spark, n=500, seed=0)
        assert _answers(spark, db, r2_program()).count() > 0

    def test_deterministic(self, spark):
        a = license_db(spark, n=100, seed=3)["LICENSE"].toPandas()
        b = license_db(spark, n=100, seed=3)["LICENSE"].toPandas()
        assert a.equals(b)


class TestMovies:
    @pytest.fixture(scope="class")
    def db(self, spark):
        return movies(spark, n_movies=150, seed=0)

    def test_arities(self, db):
        assert len(db["MOVIES"].columns) == 7
        assert len(db["CASTS"].columns) == 5
        assert len(db["CREWS"].columns) == 5
        assert len(db["RATINGS"].columns) == 4

    def test_family_genre_never_assigned(self, db):
        assert db["GENRES"].filter("genre = 'family'").count() == 0

    def test_tom_ford_never_cast(self, db):
        assert db["CASTS"].filter("actor = 'tom ford'").count() == 0

    def test_spying_keyword_never_assigned(self, db):
        assert db["KEYWORDS"].filter("keyword = 'spying'").count() == 0

    def test_r3_why_binding_exists(self, spark, db):
        res = _answers(spark, db, r3_program())
        assert res.filter("h1 = 'drama'").count() > 0

    def test_r4_jack_black_exists(self, spark, db):
        res = _answers(spark, db, r4_program())
        assert res.filter("h0 = 'jack black'").count() == 1

    def test_r11_crew0_exists(self, spark, db):
        res = _answers(spark, db, r11_program())
        assert res.filter("h0 = 'crew_0'").count() == 1

    def test_r12_mission_exists(self, spark, db):
        res = _answers(spark, db, r12_program())
        assert res.filter("h1 = 'mission'").count() > 0


class TestCrimes:
    def test_ritualism_missing(self, spark):
        db = crimes(spark, n=800, seed=0)
        for prog in (r5_program(), r6_program()):
            res = _answers(spark, db, prog)
            assert res.filter("h0 = 'ritualism'").count() == 0

    def test_r5_r6_have_answers(self, spark):
        db = crimes(spark, n=800, seed=0)
        assert _answers(spark, db, r5_program()).count() > 0
        assert _answers(spark, db, r6_program()).count() > 0


class TestDblp:
    def test_xueni_pan_missing(self, spark):
        db = dblp(spark, n_edges=400, seed=0)
        for hops in (2, 3):
            res = _answers(spark, db, hops_rule(hops))
            assert res.filter("h0 = 'xueni pan'").count() == 0

    def test_builds_without_arrow(self, spark):
        # without Arrow, createDataFrame infers each column's type from
        # its Python values, and it cannot infer one for numpy.str_
        key = "spark.sql.execution.arrow.pyspark.enabled"
        before = spark.conf.get(key)
        spark.conf.set(key, "false")
        try:
            db = QUERIES["r9"].build_db(spark, 100, 0)
        finally:
            spark.conf.set(key, before)
        assert [f.dataType.simpleString() for f in db["DBLP"].schema] == [
            "string", "string"
        ]
        assert _answers(spark, db, QUERIES["r9"].program()).count() > 0

    def test_hops_rule_shape(self):
        prog = hops_rule(4)
        assert len(prog.rules[0].body) == 4

    def test_hops_requires_positive(self):
        with pytest.raises(ValueError):
            hops_rule(0)


class TestWitness:
    def test_question_answer_missing(self, spark):
        db = witness_db(spark, n=300, seed=0)
        res = _answers(spark, db, crimedesc_program())
        n = res.filter(
            "h0 = 'trespassing' AND h1 = 'Aarongolden' "
            "AND h2 = 'MidnightBlue' AND h3 = 'lavender'"
        ).count()
        assert n == 0

    def test_query_has_answers(self, spark):
        db = witness_db(spark, n=300, seed=0)
        assert _answers(spark, db, crimedesc_program()).count() > 0


class TestSyntheticJoins:
    def test_chain_schema(self, spark):
        db = chain_db(spark, 3, n_rows=50)
        assert set(db) == {"C1", "C2", "C3"}
        assert db["C1"].columns == ["src", "dst", "payload"]

    def test_chain_query_vars(self):
        prog = chain_query(4)
        assert len(prog.rules[0].vars()) == 4 + 1 + 4  # X0..X4 + P1..P4

    def test_chain_query_bound(self):
        prog = chain_query(4, n_bound=2)
        assert len(prog.rules[0].vars()) == 4 + 1 + 2

    def test_chain_bound_validation(self):
        with pytest.raises(ValueError):
            chain_query(3, n_bound=4)

    def test_star_schema(self, spark):
        db = star_db(spark, 3, n_rows=50)
        assert set(db) == {"H", "D1", "D2", "D3"}
        assert len(db["H"].columns) == 4

    def test_star_query_evaluates(self, spark):
        db = star_db(spark, 2, n_rows=200, key_domain=10)
        res = _answers(spark, db, star_query(2))
        assert res.count() > 0

    def test_chain_query_evaluates(self, spark):
        db = chain_db(spark, 2, n_rows=200, key_domain=10)
        res = _answers(spark, db, chain_query(2))
        assert res.count() > 0


class TestTpch:
    def test_r10_program_parses(self):
        prog = r10_program()
        assert len(prog.rules[0].body) == 3
        assert len(prog.rules[0].vars()) == 2 + 16  # CK,NK + existentials

    def test_r10_binding(self, spark):
        db = tpch_db(spark, sf=0.0005)
        consts = sample_constants(db)
        prog = r10_program(3, consts)
        # 3 fewer variables than the unbound version
        assert len(prog.rules[0].vars()) == len(r10_program().rules[0].vars()) - 3

    def test_r10_binding_requires_constants(self):
        with pytest.raises(ValueError):
            r10_program(2)

    def test_r10_evaluates(self, spark):
        db = tpch_db(spark, sf=0.0005)
        res = _answers(spark, db, r10_program())
        assert res.count() > 0

    def test_bindable_list(self):
        assert len(R10_BINDABLE) == 13


class TestGraphR:
    def test_six_edges(self, spark):
        assert graph_r(spark)["R"].count() == 6
