"""Goal annotations (Sec. 5.2, step 3) as Spark SQL.

:func:`annotate_select` is Q_sample / Q_goals: a relation of derivations
(one column per unbound variable) is left-outer joined with each goal's
relation; the boolean goal column ``g{i}`` is T iff a join partner
exists (inverted for negated goals), exactly the ``if (isnull(h_i))
then F else T`` projection of the paper. The goal relations are the
catalog's persisted projections of the base rule's goals
(``Catalog.goal_view``), filtered by the question's constants, so no
question rebuilds them.
"""
from __future__ import annotations

from repro.core.ast import Const
from repro.core.unify import UnifiedRule
from repro.engine.catalog import Catalog
from repro.engine.statement import Statement, hint, quote, where


def goal_column_names(n_goals: int) -> list[str]:
    """Boolean goal-annotation columns ``g1 … gm`` of annotated derivations."""
    return [f"g{i + 1}" for i in range(n_goals)]


def head_constants(unified: UnifiedRule) -> dict[int, object]:
    """The head positions σ_t selects on, with the constant each must hold."""
    return {
        i: a.value for i, a in enumerate(unified.rule.head.args) if isinstance(a, Const)
    }


def annotate_select(
    stmt: Statement, catalog: Catalog, unified: UnifiedRule, deriv: str
) -> str:
    """A SELECT of ``deriv``'s unbound-variable columns and ``g1 … gm``.

    ``deriv`` is a relation (a view or a parenthesised query) with one
    column per unbound variable of ``unified``. Goal ``i`` is a left-outer
    join with the distinct bindings of its unbound variables: the
    catalog's projection of the *base* rule's goal, filtered by the
    values the question binds. A join partner is therefore unique and
    derivation rows are never multiplied; a goal left with no variable
    is a join on ``true`` against its at most one row.
    """
    joins, goals, partners = [], [], []
    names = goal_column_names(unified.n_goals)
    for i, (atom, base) in enumerate(zip(unified.rule.body, unified.base.body)):
        view = catalog.goal_view(base)
        alias = f"t{i + 1}"
        keys = [quote(v.name) for v in dict.fromkeys(atom.vars())]
        bound = [
            f"{quote(v.name)} = {stmt.param(unified.binding[v].value)}"
            for v in dict.fromkeys(base.vars())
            if v in unified.binding
        ]
        on = " AND ".join(f"d.{k} = {alias}.{k}" for k in keys) or "true"
        joins.append(
            f" LEFT JOIN (SELECT {''.join(k + ', ' for k in keys)}true AS __h "
            f"FROM {view.name}{where(bound)}) {alias} ON {on}"
        )
        test = "IS NULL" if atom.negated else "IS NOT NULL"
        goals.append(f"{alias}.__h {test} AS {names[i]}")
        partners.append((alias, view))
    cols = [f"d.{quote(v.name)}" for v in unified.unbound] + goals
    return f"SELECT {hint(partners)}{', '.join(cols)} FROM {deriv} d{''.join(joins)}"
