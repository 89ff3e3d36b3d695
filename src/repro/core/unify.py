"""Provenance questions and unification of rules with p-tuples (Sec. 2.2, 5.2).

A provenance question Φ = (t, type) carries a *p-tuple* — a tuple of
constants and placeholders over the query's head — and a type (Why or
Whynot). Unifying a rule r with t binds the head variables at constant
positions of t, yielding the rule r_t whose derivations are exactly the
derivations of answers matching t.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ast import (
    Atom,
    Comparison,
    Const,
    Program,
    Rule,
    Term,
    Var,
    _Parser,
    _tokenize,
    vars_in_order,
)

WHY = "why"
WHYNOT = "whynot"


@dataclass(frozen=True)
class PTuple:
    """A pattern tuple over the head predicate: constants + placeholders."""

    pred: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def n_constants(self) -> int:
        """C(t) of Def. 8 — number of constants in the p-tuple."""
        return sum(1 for a in self.args if isinstance(a, Const))


@dataclass(frozen=True)
class PQuestion:
    """A provenance question Φ = (t, type), type ∈ {why, whynot} (Def. 2)."""

    ptuple: PTuple
    qtype: str

    def __post_init__(self) -> None:
        if self.qtype not in (WHY, WHYNOT):
            raise ValueError(f"qtype must be {WHY!r} or {WHYNOT!r}")


def parse_ptuple(text: str) -> PTuple:
    """Parse ``"AL(N, shared)"`` as the rule parser reads an atom:
    uppercase = placeholder; quoted strings, numbers and bare lowercase
    identifiers are constants."""
    p = _Parser(_tokenize(text))
    atom = p.atom()
    if p.peek() is not None:
        raise ValueError(f"unexpected {p.peek()!r} after p-tuple {text!r}")
    return PTuple(atom.pred, atom.args)


@dataclass(frozen=True)
class UnifiedRule:
    """A rule r_t: the original rule with p-tuple constants substituted.

    ``binding`` maps the bound head variables to their constants;
    ``unbound`` lists the remaining variables in the paper's
    first-occurrence order (these are the arguments of derivations and
    patterns produced for this rule). ``equal_positions`` holds the pairs
    ``(i, j)`` of head positions whose values r_t's comparisons require
    equal (:func:`_placeholder_equalities`).
    """

    rule: Rule
    base: Rule
    binding: dict[Var, Const] = field(hash=False)
    unbound: tuple[Var, ...]
    equal_positions: tuple[tuple[int, int], ...]

    @property
    def rule_id(self) -> str:
        return self.base.rule_id

    @property
    def n_goals(self) -> int:
        return len(self.rule.body)


def _substitute_term(t: Term, binding: dict[Var, Const]) -> Term:
    return binding.get(t, t) if isinstance(t, Var) else t


def _substitute_atom(a: Atom, binding: dict[Var, Const]) -> Atom:
    return Atom(a.pred, tuple(_substitute_term(t, binding) for t in a.args), a.negated)


def _placeholder_equalities(head: Atom, t: PTuple) -> tuple[tuple[int, int], ...]:
    """The pairs ``(i, j)``, i < j, of head positions where ``t`` repeats
    a placeholder over two different head arguments: a derivation matches
    ``t`` only if its head holds equal values at both, so unification adds
    the comparison ``head.args[i] = head.args[j]``."""
    first: dict[Term, int] = {}
    out = []
    for j, (harg, targ) in enumerate(zip(head.args, t.args)):
        if isinstance(targ, Var):
            i = first.setdefault(targ, j)
            if head.args[i] != harg:
                out.append((i, j))
    return tuple(out)


def unify_rule(rule: Rule, t: PTuple) -> UnifiedRule | None:
    """Unify ``rule`` with p-tuple ``t`` (Sec. 5.2, "Generating Derivations").

    Returns ``None`` when the rule cannot derive any tuple matching ``t``
    (head constant clashes with ``t``, conflicting bindings for one head
    variable, or a comparison that becomes a false constant check).
    Repeated placeholders in ``t`` add variable-equality comparisons.
    """
    if rule.head.pred != t.pred or rule.head.arity != t.arity:
        return None
    binding: dict[Var, Const] = {}
    for harg, targ in zip(rule.head.args, t.args):
        if isinstance(targ, Const):
            if isinstance(harg, Const):
                if harg.value != targ.value:
                    return None
            else:
                prev = binding.get(harg)
                if prev is not None and prev.value != targ.value:
                    return None
                binding[harg] = targ
    equal_positions = _placeholder_equalities(rule.head, t)
    extra_comparisons = [
        Comparison(rule.head.args[i], "=", rule.head.args[j])
        for i, j in equal_positions
    ]

    head = _substitute_atom(rule.head, binding)
    body = tuple(_substitute_atom(g, binding) for g in rule.body)
    comparisons: list[Comparison] = []
    for c in list(rule.comparisons) + extra_comparisons:
        sub = Comparison(
            _substitute_term(c.left, binding), c.op, _substitute_term(c.right, binding)
        )
        if isinstance(sub.left, Const) and isinstance(sub.right, Const):
            if not sub.eval_const():
                return None  # comparison false for every derivation
        else:
            comparisons.append(sub)
    unified = Rule(head, body, tuple(comparisons), rule_id=rule.rule_id)
    unbound = tuple(v for v in vars_in_order(rule) if v not in binding)
    return UnifiedRule(
        rule=unified, base=rule, binding=binding, unbound=unbound,
        equal_positions=equal_positions,
    )


def unify_program(program: Program, t: PTuple) -> list[UnifiedRule]:
    """Unify every rule of a UCQ¬< program with ``t``, dropping dead rules."""
    out = []
    for r in program.rules:
        u = unify_rule(r, t)
        if u is not None:
            out.append(u)
    return out
