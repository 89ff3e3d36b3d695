"""Evaluating UCQ¬< rules as Spark DataFrame plans.

``successful_derivations`` is the instrumented evaluation of Sec. 4 /
[20, 22]: it returns one row per *successful* rule derivation, keeping
the bindings of every rule variable as columns — this is exactly the
why-provenance of the rule's answers (a successful derivation has all
goals annotated T by Def. 1). ``evaluate`` projects derivations onto
heads and unions rules with set semantics, i.e. plain query evaluation.

Positive literals become (natural) joins, negated literals become
left-anti joins on the literal's variables, comparisons become filters —
all Catalyst-optimized DataFrame operations.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Atom, Comparison, Const, Program, Rule, Var, vars_in_order
from repro.core.sqlgen import head_columns

if TYPE_CHECKING:  # the catalog caches Q(D), so it imports this module
    from repro.engine.catalog import Catalog

_OP_FN = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}


def atom_df(catalog: Catalog, atom: Atom) -> DataFrame:
    """Distinct bindings of an atom's variables, columns named by variable.

    Constant arguments become filters; a variable repeated inside the
    atom becomes an intra-atom equality filter. The result has one
    column per distinct variable of the atom (set semantics); a ground
    atom has no column and one row iff its tuple exists.
    """
    df = catalog.df(atom.pred)
    cols = df.columns
    if atom.arity != len(cols):
        raise ValueError(
            f"atom {atom.pred}/{atom.arity} does not match relation arity {len(cols)}"
        )
    first_col: dict[str, str] = {}
    conds: list[Column] = []
    for pos, arg in enumerate(atom.args):
        c = F.col(cols[pos])
        if isinstance(arg, Const):
            conds.append(c == F.lit(arg.value))
        elif arg.name in first_col:
            conds.append(c == F.col(first_col[arg.name]))
        else:
            first_col[arg.name] = cols[pos]
    for cond in conds:
        df = df.filter(cond)
    if not first_col:
        return df.limit(1).select()
    return df.select(
        *[F.col(col).alias(var) for var, col in first_col.items()]
    ).distinct()


def comparison_column(c: Comparison) -> Column:
    left = F.lit(c.left.value) if isinstance(c.left, Const) else F.col(c.left.name)
    right = F.lit(c.right.value) if isinstance(c.right, Const) else F.col(c.right.name)
    return _OP_FN[c.op](left, right)


def successful_derivations(catalog: Catalog, rule: Rule) -> DataFrame:
    """One row per successful derivation; columns = rule variables in order."""
    positives = rule.positive_body()
    if not positives:
        raise ValueError("rule must have at least one positive literal")
    acc: DataFrame | None = None
    for atom in positives:
        g = atom_df(catalog, atom)
        if acc is None:
            acc = g
        else:
            # no shared variable (a ground goal included, whose relation
            # has at most one row): a cross join
            shared = [c for c in g.columns if c in acc.columns]
            acc = acc.join(g, on=shared) if shared else acc.crossJoin(g)
    assert acc is not None
    for c in rule.comparisons:
        acc = acc.filter(comparison_column(c))
    for atom in rule.negative_body():
        g = atom_df(catalog, atom)
        shared = [c for c in g.columns if c in acc.columns]
        if len(shared) != len(g.columns):
            raise ValueError(
                f"unsafe negation {atom.pred}: variables {set(g.columns) - set(shared)}"
            )
        # a ground goal joins on no column: the rule dies iff its tuple exists
        acc = acc.join(g, on=shared or None, how="left_anti")
    # every goal relation is a set, and joins, filters and anti-joins of
    # sets over all the rule's variables are sets: no duplicate to drop
    return acc.select(*[v.name for v in vars_in_order(rule)])


def head_projection(deriv: DataFrame, rule: Rule) -> DataFrame:
    """Project derivations onto the rule head, columns ``h0 … h{n-1}``."""
    outs = []
    for i, arg in enumerate(rule.head.args):
        col = F.col(arg.name) if isinstance(arg, Var) else F.lit(arg.value)
        outs.append(col.alias(head_columns(rule.head.arity)[i]))
    return deriv.select(*outs).distinct()


def evaluate_rule(catalog: Catalog, rule: Rule) -> DataFrame:
    """Answers of one rule, columns ``h0 … h{n-1}`` (set semantics)."""
    return head_projection(successful_derivations(catalog, rule), rule)


def evaluate(catalog: Catalog, program: Program) -> DataFrame:
    """Answers of a UCQ¬< program: union of its rules, set semantics."""
    out: DataFrame | None = None
    for r in program.rules:
        res = evaluate_rule(catalog, r)
        out = res if out is None else out.unionByName(res)
    assert out is not None
    return out.distinct()
