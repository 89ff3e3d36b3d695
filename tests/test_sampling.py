"""Tests for the batch why-not sampling pipeline (Sec. 5)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.unify import WHY, WHYNOT, PQuestion, parse_ptuple, unify_rule
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import graph_r, rex_program
from repro.datasets.license import license_db, r1_program
from repro.engine.catalog import Catalog
from repro.sampling.ops import canonical_sort, sample_with_replacement
from repro.sampling.whynot import sample_whynot, sample_whynot_rule
from repro.summarize.pipeline import summarize


@pytest.fixture(scope="module")
def rex(spark):
    catalog = Catalog(spark, graph_r(spark))
    prog = rex_program()
    dom = spark.createDataFrame(pd.DataFrame({"v": [1, 2, 3, 4, 5, 6]}))
    return catalog, prog, {"X": dom, "Z": dom}


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
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=30, seed=0, domains=domains
        )
        rows = {(r["X"], r["Z"], r["g1"], r["g2"]) for r in rs.sample.collect()}
        assert rows  # non-empty
        from repro.provenance.whynot_full import whynot_full

        (_, full_df), = whynot_full(
            catalog, prog, parse_ptuple("Qex(X, 4)"), domains
        )
        full = {
            (r["X"], r["Z"], r["g1"], r["g2"]) for r in full_df.collect()
        }
        assert rows <= full

    def test_large_sample_covers_everything(self, rex):
        # n_S >> |Whynot| (12): the distinct sampled derivations must
        # converge to the full set
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=500, seed=1, domains=domains
        )
        assert rs.sample.count() == 12

    def test_predicate_respected(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=50, seed=2, domains=domains
        )
        assert all(r["X"] < 4 for r in rs.sample.collect())

    def test_no_existing_answer_heads(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=50, seed=3, domains=domains
        )
        assert all(r["X"] != 1 for r in rs.sample.collect())

    def test_p_prov_and_n_os(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=10, seed=0, domains=domains
        )
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
        assert 0 < rs.sample.count() <= 100
        cols = set(rs.sample.columns)
        assert cols == {"N", "I", "T", "E", "P", "g1", "g2"}

    def test_airbnb_annotations_consistent(self, airbnb):
        # every sampled derivation's annotations must match the full
        # enumeration (same derivation → same goal vector)
        catalog, prog = airbnb
        from repro.provenance.whynot_full import whynot_full

        (_, full_df), = whynot_full(catalog, prog, parse_ptuple("AL(N, shared)"))
        full = {
            (r["N"], r["I"], r["T"], r["E"], r["P"]): (r["g1"], r["g2"])
            for r in full_df.collect()
        }
        samples = sample_whynot(
            catalog, prog, parse_ptuple("AL(N, shared)"), n_s=50, seed=4
        )
        for r in samples[0].sample.collect():
            key = (r["N"], r["I"], r["T"], r["E"], r["P"])
            assert full[key] == (r["g1"], r["g2"])

    def test_deterministic_given_seed(self, airbnb):
        catalog, prog = airbnb
        t = parse_ptuple("AL(N, shared)")
        a = sample_whynot(catalog, prog, t, n_s=20, seed=9)[0].sample.collect()
        b = sample_whynot(catalog, prog, t, n_s=20, seed=9)[0].sample.collect()
        assert sorted(map(tuple, a)) == sorted(map(tuple, b))

    def test_sampling_is_roughly_uniform(self, rex):
        # Theorem 1: each of the 12 why-not derivations should appear
        # with similar frequency across repeated small samples
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        counts: dict = {}
        for seed in range(12):
            rs = sample_whynot_rule(
                catalog, prog, u, n_s=4, seed=seed * 13, domains=domains
            )
            for r in rs.sample.collect():
                counts[(r["X"], r["Z"])] = counts.get((r["X"], r["Z"]), 0) + 1
        assert len(counts) >= 9  # most derivations were seen at least once

    def test_empty_theta_x_domain_gives_empty_sample(self, rex, spark):
        # the rule requires X < 4: a domain of X values ≥ 4 leaves no
        # derivation, hence no why-not provenance
        catalog, prog, domains = rex
        high = spark.createDataFrame(pd.DataFrame({"v": [4, 5, 6]}))
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=10, seed=0, domains={**domains, "X": high}
        )
        assert rs.n_os == 0 and rs.n_survivors == 0
        assert rs.sample.count() == 0
        assert rs.sample.columns == ["X", "Z", "g1", "g2"]
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Qex(X, 4)"), WHYNOT),
            k=3, n_s=10, domains={**domains, "X": high},
        )
        assert s.patterns == () and s.per_rule == []

    def test_cap_reports_shortfall(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=10, seed=0, domains=domains, max_n_os=5
        )
        assert rs.n_os == 5 and rs.capped
        assert 0 < rs.n_survivors < 10
        assert rs.sample.count() == rs.n_survivors
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Qex(X, 4)"), WHYNOT),
            k=1, n_s=10, domains=domains, max_n_os=5,
        )
        (stats,) = s.per_rule
        assert stats["capped"] and stats["n_survivors"] == stats["n_sample"] < 10

    def test_uncapped_reports_survivors(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=5, seed=0, domains=domains
        )
        assert not rs.capped
        assert rs.sample.count() == 5 < rs.n_survivors <= 12

    def test_rows_are_the_sample(self, rex):
        catalog, prog, domains = rex
        u = unify_rule(prog.rules[0], parse_ptuple("Qex(X, 4)"))
        rs = sample_whynot_rule(
            catalog, prog, u, n_s=5, seed=0, domains=domains
        )
        assert len(rs.rows) == 5
        assert sorted(tuple(r) for r in rs.sample.collect()) == sorted(rs.rows)


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
            tuple(r) for r in sample_whynot(catalog, prog, t, n_s=30, seed=5)[0]
            .sample.collect()
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
