"""Tests for the single-derivation and Artemis-like baselines."""
import pytest

from repro.baselines.artemis import ArtemisTimeout, artemis_explain
from repro.baselines.single_derivation import single_derivation
from repro.core.unify import parse_ptuple
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import graph_r, rex_program
from repro.datasets.witness import crimedesc_program, witness_db
from repro.engine.catalog import Catalog
from repro.provenance.whynot_full import whynot_full


@pytest.fixture(scope="module")
def rex(spark):
    # active domains, no override: the baselines' counts below rely on them
    return Catalog(spark, graph_r(spark)), rex_program()


class TestSingleDerivation:
    def test_returns_a_failed_derivation(self, rex):
        catalog, prog = rex
        p = single_derivation(catalog, prog, parse_ptuple("Qex(X, 4)"))
        assert p is not None
        assert p.count == 1
        assert all(a is not None for a in p.args)  # fully constant
        # it must be a real why-not derivation
        (u, full_rows), = whynot_full(
            catalog, prog, parse_ptuple("Qex(X, 4)")
        )
        assert [v.name for v in u.unbound] == ["X", "Z"]
        full = {(r[:2], r[2:]) for r in full_rows}  # (X, Z), (g1, g2)
        assert (p.args, p.goals) in full

    def test_airbnb(self, spark):
        catalog = Catalog(spark, s_airbnb(spark))
        p = single_derivation(catalog, airbnb_program(), parse_ptuple("AL(N, shared)"))
        assert p is not None and len(p.args) == 5

    def test_existing_answer_returns_none(self, rex):
        catalog, prog = rex
        # Qex(1,4) exists → no why-not derivations at all
        assert single_derivation(catalog, prog, parse_ptuple("Qex(1, 4)")) is None


class TestArtemis:
    def test_explains_rex(self, rex):
        catalog, prog = rex
        exp = artemis_explain(catalog, prog, parse_ptuple("Qex(X, 4)"))
        # without domain overrides X's domain is {1,2,5}∩(<4)={1,2} minus
        # the existing answer 1 → X=2, Z over 6 values = 6 derivations
        assert exp.n_derivations == 6
        assert sum(p.count for p in exp.patterns) == 6
        assert abs(sum(p.cp for p in exp.patterns) - 1.0) < 1e-9

    def test_top_is_most_general(self, rex):
        catalog, prog = rex
        exp = artemis_explain(catalog, prog, parse_ptuple("Qex(X, 4)"))
        top = exp.top()
        assert top.count == max(p.count for p in exp.patterns)

    @pytest.mark.parametrize("name", ["rex", "airbnb"])
    def test_groups_equal_a_grouping_of_whynot_full(self, spark, rex, name):
        # per goal vector: the number of derivations, and the constants
        # every derivation of the group agrees on
        if name == "rex":
            (catalog, prog), t = rex, parse_ptuple("Qex(X, 4)")
        else:
            catalog, prog = Catalog(spark, s_airbnb(spark)), airbnb_program()
            t = parse_ptuple("AL(N, shared)")
        want = {}
        for u, rows in whynot_full(catalog, prog, t):
            n = len(u.unbound)
            groups = {}
            for r in rows:
                groups.setdefault(r[n:], []).append(r[:n])
            for goals, args in groups.items():
                agreed = tuple(
                    col[0] if len(set(col)) == 1 else None for col in zip(*args)
                )
                want[(u.rule_id, goals)] = (len(args), agreed)
        exp = artemis_explain(catalog, prog, t)
        got = {(p.rule_id, p.goals): (p.count, p.args) for p in exp.patterns}
        assert len(got) == len(exp.patterns) > 1
        assert got == want
        assert exp.n_derivations == sum(n for n, _ in want.values())

    def test_timeout_guard(self, spark):
        db = witness_db(spark, n=400, seed=0)
        catalog = Catalog(spark, db)
        with pytest.raises(ArtemisTimeout):
            artemis_explain(
                catalog,
                crimedesc_program(),
                parse_ptuple(
                    "CrimeDesc('trespassing', 'Aarongolden', "
                    "'MidnightBlue', 'lavender')"
                ),
                max_derivations=10,
            )

    def test_witness_small(self, spark):
        db = witness_db(spark, n=120, seed=0)
        catalog = Catalog(spark, db)
        exp = artemis_explain(
            catalog,
            crimedesc_program(),
            parse_ptuple(
                "CrimeDesc('trespassing', 'Aarongolden', "
                "'MidnightBlue', 'lavender')"
            ),
            max_derivations=500_000,
        )
        assert exp.n_derivations > 0
        # Artemis' top-1 is the (near) most-general pattern: its
        # informativeness is low (the paper's quality criticism)
        assert exp.top().info() <= 0.5
