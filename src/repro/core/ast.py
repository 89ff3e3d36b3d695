"""Abstract syntax for UCQ¬< Datalog (Sec. 2.1 of the paper).

A :class:`Program` is a union of conjunctive queries with negation and
comparison predicates: every rule shares the same head predicate, goals
are positive or negated literals, and comparisons relate variables and
constants with one of ``< <= != >= > =``.

Terms are :class:`Var` (uppercase-leading identifier) or :class:`Const`
(int, float, or string). Variables are ordered by first occurrence
scanning head, then body goals, then comparisons — the paper's
convention for writing rule derivations ``r(c̄)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Var:
    """A Datalog variable, e.g. ``X``."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant term: int, float, or string."""

    value: object

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(self.value)


Term = Var | Const


@dataclass(frozen=True)
class Atom:
    """A (possibly negated) literal ``R(t1, …, tn)`` / ``¬R(t1, …, tn)``."""

    pred: str
    args: tuple[Term, ...]
    negated: bool = False

    @property
    def arity(self) -> int:
        return len(self.args)

    def vars(self) -> list[Var]:
        """Variables in argument order (with duplicates)."""
        return [a for a in self.args if isinstance(a, Var)]


#: Comparison operators supported in rule bodies.
COMPARISON_OPS = ("<=", ">=", "!=", "<", ">", "=")


@dataclass(frozen=True)
class Comparison:
    """A comparison goal ``a ◇ b`` with ``◇ ∈ {<, <=, !=, >=, >, =}``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def vars(self) -> list[Var]:
        return [t for t in (self.left, self.right) if isinstance(t, Var)]

    def eval_const(self) -> bool:
        """Evaluate when both sides are constants (used after unification)."""
        if not (isinstance(self.left, Const) and isinstance(self.right, Const)):
            raise ValueError("eval_const requires both sides to be constants")
        lv, rv = self.left.value, self.right.value
        return {
            "<": lv < rv,
            "<=": lv <= rv,
            "!=": lv != rv,
            ">=": lv >= rv,
            ">": lv > rv,
            "=": lv == rv,
        }[self.op]


@dataclass(frozen=True)
class Rule:
    """A safe Datalog rule ``head :- body, comparisons``."""

    head: Atom
    body: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = field(default_factory=tuple)
    rule_id: str = "r"

    def __post_init__(self) -> None:
        if self.head.negated:
            raise ValueError("rule head cannot be negated")
        if not self.body:
            raise ValueError("rule body must contain at least one literal")

    def positive_body(self) -> list[Atom]:
        return [g for g in self.body if not g.negated]

    def negative_body(self) -> list[Atom]:
        return [g for g in self.body if g.negated]

    def vars(self) -> set[Var]:
        vs: set[Var] = set(self.head.vars())
        for g in self.body:
            vs.update(g.vars())
        for c in self.comparisons:
            vs.update(c.vars())
        return vs


@dataclass(frozen=True)
class Program:
    """A UCQ¬< query: a union of rules sharing one head predicate."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("program must contain at least one rule")
        preds = {r.head.pred for r in self.rules}
        if len(preds) != 1:
            raise ValueError(f"all rules must share one head predicate, got {preds}")
        arities = {r.head.arity for r in self.rules}
        if len(arities) != 1:
            raise ValueError("all rules must share one head arity")

    @property
    def head_pred(self) -> str:
        return self.rules[0].head.pred

    @property
    def head_arity(self) -> int:
        return self.rules[0].head.arity


def vars_in_order(rule: Rule) -> list[Var]:
    """Rule variables ordered by first occurrence (head, body, comparisons).

    This is the argument order of rule derivations ``r(c̄)`` in the paper,
    e.g. for r1 of Fig. 1 the order is (N, R, I, T, E, P).
    """
    seen: list[Var] = []
    for v in rule.head.vars():
        if v not in seen:
            seen.append(v)
    for g in rule.body:
        for v in g.vars():
            if v not in seen:
                seen.append(v)
    for c in rule.comparisons:
        for v in c.vars():
            if v not in seen:
                seen.append(v)
    return seen


def check_safe(rule: Rule) -> None:
    """Raise ``ValueError`` unless every variable occurs in a positive literal."""
    positive_vars = {v for g in rule.positive_body() for v in g.vars()}
    unsafe = sorted(v.name for v in rule.vars() - positive_vars)
    if unsafe:
        raise ValueError(f"unsafe rule {rule.rule_id}: variables {unsafe} "
                         "do not occur in a positive literal")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
_IDENT = r"[A-Za-z_][A-Za-z0-9_\-]*"
_IDENT_RE = re.compile(_IDENT)
_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<string>'[^']*')
      | (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<ident>{_IDENT})
      | (?P<op><=|>=|!=|:-|<|>|=|\(|\)|,|\.|¬|not\b)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize near {rest[:30]!r}")
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


def _term(tok: str) -> Term:
    if tok.startswith("'"):
        return Const(tok[1:-1])
    if re.fullmatch(r"-?\d+", tok):
        return Const(int(tok))
    if re.fullmatch(r"-?\d+\.\d+", tok):
        return Const(float(tok))
    if not _IDENT_RE.fullmatch(tok):
        raise ValueError(f"expected a term, got {tok!r}")
    if tok[0].isupper() or tok[0] == "_":
        return Var(tok)
    return Const(tok)  # bare lowercase identifier = string constant


class _Parser:
    """Recursive-descent parser for one rule."""

    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def pop(self, expect: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise ValueError(f"unexpected end of rule (expected {expect!r})")
        t = self.toks[self.i]
        if expect is not None and t != expect:
            raise ValueError(f"expected {expect!r}, got {t!r}")
        self.i += 1
        return t

    def atom(self, negated: bool = False) -> Atom:
        pred = self.pop()
        self.pop("(")
        args: list[Term] = []
        while True:
            args.append(_term(self.pop()))
            if self.peek() == ",":
                self.pop(",")
            else:
                break
        self.pop(")")
        return Atom(pred, tuple(args), negated=negated)

    def goal(self) -> Atom | Comparison:
        if self.peek() in ("not", "¬"):
            self.pop()
            return self.atom(negated=True)
        # lookahead: ident followed by "(" is an atom, else a comparison
        if self.i + 1 < len(self.toks) and self.toks[self.i + 1] == "(":
            return self.atom()
        left = _term(self.pop())
        op = self.pop()
        if op not in COMPARISON_OPS:
            raise ValueError(f"expected comparison operator, got {op!r}")
        right = _term(self.pop())
        return Comparison(left, op, right)


def parse_rule(text: str, rule_id: str = "r") -> Rule:
    """Parse one Datalog rule, e.g.::

        Q(X, Y) :- R(X, Z), not S(Z, 'a'), X < Y, Z != 3.

    Uppercase-leading identifiers are variables; bare lowercase identifiers,
    quoted strings, and numbers are constants. Negation is ``not`` or ``¬``.
    """
    p = _Parser(_tokenize(text))
    head = p.atom()
    p.pop(":-")
    body: list[Atom] = []
    comparisons: list[Comparison] = []
    while True:
        g = p.goal()
        if isinstance(g, Atom):
            body.append(g)
        else:
            comparisons.append(g)
        if p.peek() == ",":
            p.pop(",")
        elif p.peek() in (".", None):
            break
        else:
            raise ValueError(f"unexpected token {p.peek()!r}")
    rule = Rule(head, tuple(body), tuple(comparisons), rule_id=rule_id)
    check_safe(rule)
    return rule


def parse_program(*rule_texts: str, name: str = "r") -> Program:
    """Parse several rules into a :class:`Program` (ids ``name``, ``name_2``…)."""
    rules = tuple(
        parse_rule(t, rule_id=name if i == 0 else f"{name}_{i + 1}")
        for i, t in enumerate(rule_texts)
    )
    return Program(rules)
