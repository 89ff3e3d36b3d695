"""End-to-end summarization tests (the four phases glued together),
including the paper's worked Airbnb example."""
import heapq

import pandas as pd
import pytest

from repro.core.unify import WHY, WHYNOT, PQuestion, parse_ptuple
from repro.datasets.airbnb import airbnb_program, s_airbnb
from repro.datasets.graph_r import rex_catalog, rex_program
from repro.datasets.license import license_db, r1_program
from repro.datasets.movies import movies, r4_program
from repro.core.ast import parse_program
from repro.engine.catalog import Catalog
from repro.provenance.why import sample_why
from repro.summarize.metrics import _RuleRows
from repro.summarize.topk import rank_key, rank_order
from repro.summarize.pipeline import (
    MAX_PATTERNS,
    pattern_inputs,
    select_topk,
    summarize,
)


@pytest.fixture(scope="module")
def airbnb(spark):
    return Catalog(spark, s_airbnb(spark)), airbnb_program()


@pytest.fixture(scope="module")
def rex(spark):
    return rex_catalog(spark), rex_program()


class TestWhynotPipeline:
    def test_airbnb_full_recovers_p1(self, airbnb):
        # The paper's pattern p1 = r1(N, shared, I, apt, E, P)-(T,F)
        # (Fig. 2b) must appear among the LCA candidates over FULL
        # provenance, with exactly its 8 matching derivations (on
        # S-Airbnb the (F,F) group dominates, so p1 is a candidate, not
        # necessarily in the top-3; on F-Airbnb it covers ~12.8%).
        catalog, prog = airbnb
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, use_full=True, seed=0)
        p1 = [
            p for p in inputs.patterns
            if p.goals == (True, False)
            and p.args == (None, None, "apt", None, None)
        ]
        assert len(p1) == 1
        assert p1[0].count == 8
        assert p1[0].cp == pytest.approx(8 / 2160)
        assert p1[0].info() == pytest.approx(0.2)

    def test_airbnb_sampled(self, airbnb):
        catalog, prog = airbnb
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT),
            k=3, n_s=200, seed=1,
        )
        assert len(s.patterns) == 3
        assert 0 < s.completeness <= 1
        assert 0 <= s.informativeness <= 1
        assert s.score > 0

    def test_timings_present(self, airbnb):
        catalog, prog = airbnb
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT),
            k=2, n_s=50, seed=2,
        )
        for key in ("sample", "pattern_gen", "metrics", "topk", "total"):
            assert s.timings[key] >= 0

    def test_rex_full_equals_known(self, rex):
        catalog, prog = rex
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Qex(X, 4)"), WHYNOT),
            k=2, use_full=True,
        )
        # the dominant group (F,F) has 8/12 of the provenance; the top-2
        # summary must cover well over half of it
        assert s.completeness >= 0.5

    def test_existing_answer_empty_summary(self, rex):
        catalog, prog = rex
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Qex(1, 4)"), WHYNOT), use_full=True
        )
        assert s.patterns == ()
        assert s.completeness == 0.0

    def test_k1_is_single_pattern(self, airbnb):
        catalog, prog = airbnb
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT),
            k=1, n_s=100, seed=3,
        )
        assert len(s.patterns) == 1

    def test_completeness_grows_with_k(self, airbnb):
        catalog, prog = airbnb
        cps = []
        for k in (1, 3, 5):
            s = summarize(
                catalog, prog, PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT),
                k=k, n_s=200,
                seed=4,
            )
            cps.append(s.completeness)
        assert cps[0] <= cps[1] + 1e-9 <= cps[2] + 2e-9

    def test_pretty_output(self, airbnb):
        catalog, prog = airbnb
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT),
            k=2, n_s=50, seed=5,
        )
        text = s.pretty()
        assert "top-2 summary" in text and "r1(" in text


class TestWhyPipeline:
    def test_rex_why(self, rex):
        catalog, prog = rex
        s = summarize(catalog, prog, PQuestion(parse_ptuple("Qex(X, Y)"), WHY), k=2)
        assert s.patterns
        # why derivations have all goals T
        assert all(all(g for g in p.goals) for p in s.patterns)

    def test_license_why(self, spark):
        db = license_db(spark, n=500, seed=0)
        catalog = Catalog(spark, db)
        prog = r1_program()
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("InvalidD(C)"), WHY), k=3, n_s=200
        )
        assert s.patterns
        assert s.completeness > 0

    def test_why_sampled_when_large(self, spark):
        db = license_db(spark, n=500, seed=0)
        catalog = Catalog(spark, db)
        prog = r1_program()
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("InvalidD(C)"), WHY), k=2, n_s=20
        )
        assert s.per_rule[0]["n_sample"] <= 20


class TestWhyCount:
    """``n_survivors`` of a why question is |Why|, whatever n_S is: also
    when Spark proves there are at most n_S derivations and drops the
    cut's limit."""

    @pytest.fixture(scope="class")
    def license_1k(self, spark):
        return Catalog(spark, license_db(spark, n=1000, seed=0)), r1_program()

    @pytest.mark.parametrize(
        "ptuple, n_s",
        [
            ("InvalidD('city_1')", 7),  # below |Why| = 8
            ("InvalidD('city_1')", 8),  # equal
            ("InvalidD('city_1')", 9),  # above
            ("InvalidD('city_1')", 1000),
            ("InvalidD(C)", 1000),
        ],
    )
    def test_n_survivors_is_why_count(self, license_1k, ptuple, n_s):
        catalog, prog = license_1k
        t = parse_ptuple(ptuple)
        ((_, rows, _),) = sample_why(catalog, prog, t, 1 << 30, 0)
        s = summarize(catalog, prog, PQuestion(t, WHY), k=3, n_s=n_s, seed=0)
        (stats,) = s.per_rule
        assert stats["n_survivors"] == len(rows)
        assert stats["n_sample"] == min(n_s, len(rows))

    def test_limit_dropped_with_exactly_n_s_derivations(self, spark):
        # five derivations over a five-row local relation: Spark knows
        # there are at most n_S = 5 rows and drops the limit
        tables = {"R": spark.createDataFrame(pd.DataFrame({"a": range(5), "b": range(5)}))}
        prog = parse_program("Q(X, Y) :- R(X, Y).")
        s = summarize(
            Catalog(spark, tables), prog, PQuestion(parse_ptuple("Q(X, Y)"), WHY), n_s=5
        )
        (stats,) = s.per_rule
        assert stats["n_survivors"] == stats["n_sample"] == 5


class TestMultiRule:
    def test_r4_union_whynot(self, spark, monkeypatch):
        db = movies(spark, n_movies=150, seed=0)
        catalog = Catalog(spark, db)
        prog = r4_program()
        built, encoded = [], []
        bits, encode = _RuleRows.bits, _RuleRows.encode_pattern
        monkeypatch.setattr(_RuleRows, "bits", lambda r: built.append(r) or bits(r))
        monkeypatch.setattr(
            _RuleRows, "encode_pattern", lambda r, p: encoded.append(p) or encode(r, p)
        )
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Players('tom ford')"), WHYNOT),
            k=3, n_s=60,
            seed=0, max_n_os=100_000,
        )
        # each rule's row bitsets are built once, in phase 3, and no
        # pattern is re-encoded for the search or for cp(S)
        assert len(built) == len(set(map(id, built))) == 3 and not encoded
        assert len(s.per_rule) == 3  # one sample per union branch
        assert abs(sum(r["weight"] for r in s.per_rule) - 1.0) < 1e-9
        assert s.patterns
        # cp(S) from the chosen candidates' match sets equals the Pattern path's
        assert s.completeness == s.store.cp_of_set(s.patterns)

    def test_r4_union_why(self, spark):
        db = movies(spark, n_movies=150, seed=0)
        catalog = Catalog(spark, db)
        prog = r4_program()
        s = summarize(
            catalog, prog, PQuestion(parse_ptuple("Players('jack black')"), WHY),
            k=3, n_s=100,
        )
        # the anchor movie guarantees jack black in all three branches
        assert s.patterns
        assert len(s.per_rule) == 3


class TestArguments:
    @pytest.mark.parametrize(
        "qtype, kwargs, name",
        [
            (WHY, {"k": 0}, "k"),
            (WHYNOT, {"k": -1}, "k"),
            (WHY, {"n_s": 0}, "n_s"),
            (WHYNOT, {"n_s": 0}, "n_s"),
        ],
    )
    def test_k_and_n_s_below_one_rejected(self, rex, qtype, kwargs, name):
        catalog, prog = rex
        q = PQuestion(parse_ptuple("Qex(X, 4)"), qtype)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            summarize(catalog, prog, q, **kwargs)


class TestPatternInputs:
    def test_inputs_then_topk(self, airbnb):
        catalog, prog = airbnb
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, n_s=100, seed=6)
        assert inputs.patterns and inputs.n_candidates >= len(inputs.patterns)
        r = select_topk(inputs, 3)
        assert len(set(r.chosen)) == 3

    def test_estimates_close_to_store(self, airbnb):
        # pattern cp estimates (Q_match counts) must equal the exact
        # per-pattern completeness over the same sample
        catalog, prog = airbnb
        q = PQuestion(parse_ptuple("AL(N, shared)"), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, n_s=100, seed=7)
        for p in inputs.patterns[:20]:
            assert inputs.store.cp_of_pattern(p) == pytest.approx(p.cp)

    @pytest.mark.parametrize("query", ["r4", "airbnb"])
    def test_rank_order_equals_sorted_by_rank_key(self, spark, airbnb, query):
        """The coded ranking orders the candidates as ``rank_key`` orders
        their patterns, so the cap keeps exactly the candidates
        ``heapq.nsmallest`` keeps, in that order, ties between equal
        scores and cps broken the same way."""
        if query == "r4":
            catalog = Catalog(spark, movies(spark, n_movies=150, seed=0))
            prog, t = r4_program(), "Players('tom ford')"
        else:
            (catalog, prog), t = airbnb, "AL(N, shared)"
        q = PQuestion(parse_ptuple(t), WHYNOT)
        inputs = pattern_inputs(catalog, prog, q, n_s=60, seed=0, max_n_os=100_000)
        decoded = inputs.patterns
        assert len(decoded) == inputs.n_candidates > MAX_PATTERNS
        ranked = sorted(decoded, key=rank_key)
        order = rank_order(inputs.candidates)
        assert inputs.decode(order) == ranked
        assert inputs.decode(order[:MAX_PATTERNS]) == heapq.nsmallest(
            MAX_PATTERNS, decoded, key=rank_key
        )
        keys = [rank_key(p)[:2] for p in ranked]
        assert len(set(keys)) < len(keys)  # the tie-breaks decide
        if query == "r4":
            assert len({p.rule_id for p in ranked[:MAX_PATTERNS]}) > 1
