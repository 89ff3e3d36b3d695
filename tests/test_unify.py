"""Tests for p-tuples, provenance questions, and unification."""
import pytest

from repro.core.ast import Const, Var, parse_rule
from repro.core.unify import (
    WHY,
    WHYNOT,
    PQuestion,
    PTuple,
    parse_ptuple,
    unify_program,
    unify_rule,
)
from repro.datasets.airbnb import airbnb_program


class TestPTuple:
    def test_parse_placeholder_and_constant(self):
        t = parse_ptuple("AL(N, shared)")
        assert t.pred == "AL"
        assert t.args == (Var("N"), Const("shared"))

    def test_parse_quoted(self):
        t = parse_ptuple("Q('queen anne', X)")
        assert t.args[0] == Const("queen anne")

    def test_parse_quoted_comma(self):
        # read as parse_rule reads the same atom: the comma is in the string
        t = parse_ptuple("Q('a, b', X)")
        assert t.args == (Const("a, b"), Var("X"))
        assert t.args == parse_rule("Q('a, b', X) :- R(X).").head.args

    def test_parse_numbers(self):
        t = parse_ptuple("Q(4, -1, 2.5)")
        assert t.args == (Const(4), Const(-1), Const(2.5))

    def test_n_constants(self):
        assert parse_ptuple("AL(N, shared)").n_constants() == 1
        assert parse_ptuple("AL(N, R)").n_constants() == 0
        assert parse_ptuple("AL(a, b)").n_constants() == 2

    def test_bad_text_raises(self):
        for text in ("no parens", "Q(,)", "Q()", "Q(X", "Q(X)(Y)", "Q(X) extra"):
            with pytest.raises(ValueError):
                parse_ptuple(text)

    def test_question_types(self):
        t = parse_ptuple("Q(X)")
        assert PQuestion(t, WHY).qtype == "why"
        assert PQuestion(t, WHYNOT).qtype == "whynot"
        with pytest.raises(ValueError):
            PQuestion(t, "maybe")


class TestUnify:
    def test_binds_constant_position(self):
        r = parse_rule("Q(X, Y) :- R(X, Z), R(Z, Y), X < Y.")
        u = unify_rule(r, parse_ptuple("Q(X, 4)"))
        assert u is not None
        assert u.binding == {Var("Y"): Const(4)}
        assert [v.name for v in u.unbound] == ["X", "Z"]

    def test_substitutes_into_body(self):
        r = parse_rule("Q(X, Y) :- R(X, Z), R(Z, Y).")
        u = unify_rule(r, parse_ptuple("Q(X, 4)"))
        assert u.rule.body[1].args[1] == Const(4)

    def test_const_const_comparison_dropped_when_true(self):
        r = parse_rule("Q(X, Y) :- R(X, Y), Y < 10.")
        u = unify_rule(r, parse_ptuple("Q(X, 4)"))
        assert u.rule.comparisons == ()

    def test_const_const_comparison_false_kills_rule(self):
        r = parse_rule("Q(X, Y) :- R(X, Y), Y < 10.")
        assert unify_rule(r, parse_ptuple("Q(X, 12)")) is None

    def test_remaining_comparison_substituted(self):
        r = parse_rule("Q(X, Y) :- R(X, Y), X < Y.")
        u = unify_rule(r, parse_ptuple("Q(X, 4)"))
        assert u.rule.comparisons[0].right == Const(4)

    def test_head_constant_clash(self):
        r = parse_rule("Q(X, a) :- R(X).")
        assert unify_rule(r, parse_ptuple("Q(X, b)")) is None
        u = unify_rule(r, parse_ptuple("Q(X, a)"))
        assert u is not None and u.unbound == (Var("X"),)

    def test_repeated_head_var_conflict(self):
        r = parse_rule("Q(X, X) :- R(X).")
        assert unify_rule(r, parse_ptuple("Q(1, 2)")) is None
        u = unify_rule(r, parse_ptuple("Q(1, 1)"))
        assert u is not None and u.unbound == ()

    def test_wrong_pred_or_arity(self):
        r = parse_rule("Q(X) :- R(X).")
        assert unify_rule(r, parse_ptuple("P(X)")) is None
        assert unify_rule(r, parse_ptuple("Q(X, Y)")) is None

    def test_repeated_placeholder_adds_equality(self):
        r = parse_rule("Q(X, Y) :- R(X, Y).")
        u = unify_rule(r, parse_ptuple("Q(P, P)"))
        assert u is not None
        assert any(c.op == "=" for c in u.rule.comparisons)

    def test_airbnb_unification(self):
        prog = airbnb_program()
        u = unify_rule(prog.rules[0], parse_ptuple("AL(N, shared)"))
        assert [v.name for v in u.unbound] == ["N", "I", "T", "E", "P"]
        # R is bound to 'shared' inside the body literal
        assert u.rule.body[0].args[3] == Const("shared")

    def test_unify_program_drops_dead_rules(self):
        from repro.core.ast import Program

        r1 = parse_rule("Q(X, a) :- R(X).", rule_id="a")
        r2 = parse_rule("Q(X, b) :- R(X).", rule_id="b")
        prog = Program((r1, r2))
        us = unify_program(prog, parse_ptuple("Q(X, a)"))
        assert [u.rule_id for u in us] == ["a"]

    def test_fully_bound_question(self):
        r = parse_rule("Q(X) :- R(X).")
        u = unify_rule(r, parse_ptuple("Q(3)"))
        assert u.unbound == ()
        assert u.rule.body[0].args[0] == Const(3)

    def test_n_goals(self):
        r = parse_rule("Q(X) :- R(X), not S(X), X < 5.")
        u = unify_rule(r, parse_ptuple("Q(X)"))
        assert u.n_goals == 2  # comparisons are not goals
