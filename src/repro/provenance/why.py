"""Why-provenance capture via instrumented evaluation (Sec. 4, [20, 22]).

Why(Q, D, t) is the set of *successful* derivations of existing answers
matching t (Def. 3). A successful derivation has every goal annotated T
(Def. 1), so capture = evaluate the unified rule while retaining the
bindings of all unbound variables and annotate every goal with T.

Only σ_t depends on the question: the successful derivations of the
base rule depend on (D, Q) alone. The catalog keeps them persisted
(``Catalog.derivations``), and each question filters them by the
constants it binds and by the unified rule's comparisons.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.ast import Program
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import Catalog
from repro.engine.eval import comparison_column
from repro.provenance.annotate import goal_column_names


def why_derivations(catalog: Catalog, unified: UnifiedRule) -> DataFrame:
    """Annotated why-provenance of one unified rule.

    Columns: one per unbound variable, then ``g1 … gm`` (all True). The
    rows are those of ``successful_derivations(catalog, unified.rule)``:
    the base rule's derivations whose bound head variables hold the
    question's constants and which satisfy the unified comparisons,
    among them the equalities repeated placeholders add. The base rule's
    own comparisons hold already; applying them again changes nothing.
    """
    deriv = catalog.derivations(unified.base)
    for var, const in unified.binding.items():
        deriv = deriv.filter(F.col(var.name) == F.lit(const.value))
    for c in unified.rule.comparisons:
        deriv = deriv.filter(comparison_column(c))
    return deriv.select(
        *[v.name for v in unified.unbound],
        *[F.lit(True).alias(g) for g in goal_column_names(unified.n_goals)],
    )


def why_provenance(
    catalog: Catalog, program: Program, t: PTuple
) -> list[tuple[UnifiedRule, DataFrame]]:
    """Why(Q, D, t) per rule: [(unified rule, annotated derivations)]."""
    return [(u, why_derivations(catalog, u)) for u in unify_program(program, t)]
