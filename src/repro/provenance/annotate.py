"""Goal annotations and answer filtering (Sec. 5.2, steps 2 and 3).

``annotate_goals`` is the Spark rendering of Q_sample / Q_goals: a
derivation DataFrame (one column per unbound variable) is left-outer
joined with each goal's relation; the boolean goal column ``g{i}`` is T
iff a join partner exists (inverted for negated goals), exactly the
``if (isnull(h_i)) then F else T`` projection of the paper. The goal
relations are the catalog's persisted projections of the base rule's
goals (``Catalog.goal_projection``), so no question rebuilds them.

``anti_join_existing`` is Q_der: the anti-join that removes derivations
of *existing* answers, keeping only why-not provenance.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Const, Var
from repro.core.unify import UnifiedRule
from repro.engine.catalog import Catalog


def goal_column_names(n_goals: int) -> list[str]:
    """Boolean goal-annotation columns ``g1 … gm`` of annotated derivations."""
    return [f"g{i + 1}" for i in range(n_goals)]


def goal_relation(catalog: Catalog, unified: UnifiedRule, i: int) -> DataFrame:
    """The relation goal ``i`` (0-based) of ``unified`` is checked against:
    the distinct bindings of the goal's unbound variables, one column each.

    It is the catalog's projection of the *base* rule's goal, filtered by
    the values the question binds and without those columns. A goal left
    with no variable keeps at most one row: the tuple, if it exists.
    """
    base = unified.base.body[i]
    proj = catalog.goal_projection(base)
    for var in dict.fromkeys(base.vars()):
        const = unified.binding.get(var)
        if const is not None:
            proj = proj.filter(F.col(var.name) == F.lit(const.value))
    return proj.select(*[v.name for v in dict.fromkeys(unified.rule.body[i].vars())])


def annotate_goals(
    catalog: Catalog, unified: UnifiedRule, deriv: DataFrame
) -> DataFrame:
    """Append goal annotations ``g1 … gm`` to a derivation DataFrame.

    ``deriv`` must have one column per unbound variable of ``unified``.
    Each goal is a left-outer join with its :func:`goal_relation`, whose
    rows are distinct, so a join partner is unique and derivation rows
    are never multiplied; a ground goal is a join without a condition
    against its at most one row. One final ``select`` turns the join
    markers into the ``g_i`` columns.
    """
    out = deriv
    goals: list[Column] = []
    for i, atom in enumerate(unified.rule.body):
        g = goal_relation(catalog, unified, i)
        marker = f"__h{i + 1}"
        renamed = g.select(
            *[F.col(v).alias(f"__g{i + 1}_{v}") for v in g.columns],
            F.lit(True).alias(marker),
        )
        cond: Column | None = None
        for v in g.columns:
            c = F.col(v) == F.col(f"__g{i + 1}_{v}")
            cond = c if cond is None else (cond & c)
        out = out.join(renamed, on=cond, how="left_outer")
        found = F.col(marker).isNotNull()
        goals.append((~found if atom.negated else found).alias(f"g{i + 1}"))
    return out.select(*[v.name for v in unified.unbound], *goals)


def head_constants(unified: UnifiedRule) -> dict[int, object]:
    """The head positions σ_t selects on, with the constant each must hold."""
    return {
        i: a.value for i, a in enumerate(unified.rule.head.args) if isinstance(a, Const)
    }


def filter_result_to_head(result: DataFrame, unified: UnifiedRule) -> Column | None:
    """σ_t condition: restrict query answers (cols h0…) to heads the
    unified rule can produce — constant head positions must match."""
    cond: Column | None = None
    for i, value in head_constants(unified).items():
        c = F.col(f"h{i}") == F.lit(value)
        cond = c if cond is None else (cond & c)
    return cond


def anti_join_existing(
    deriv: DataFrame, result: DataFrame, unified: UnifiedRule
) -> DataFrame:
    """Q_der: drop derivations whose head is an existing answer.

    ``result`` is the query output with columns ``h0 … h{n-1}``. Only a
    plan is built, no Spark job runs. A fully ground head gives an
    anti-join without a condition, which keeps ``deriv`` iff its answer
    is missing; the samplers decide that case from the catalog's answer
    index instead and call this only for heads with a variable.
    """
    sigma = filter_result_to_head(result, unified)
    matching = result.filter(sigma) if sigma is not None else result
    cond: Column | None = None
    for i, arg in enumerate(unified.rule.head.args):
        if isinstance(arg, Var):
            c = F.col(arg.name) == matching[f"h{i}"]
            cond = c if cond is None else (cond & c)
    return deriv.join(matching, on=cond, how="left_anti")
