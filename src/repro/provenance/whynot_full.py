"""Full why-not enumeration — the paper's "FULL" / naive baseline input.

Whynot(Q, D, t) for one unified rule r_t is materialized as the cross
product of the per-variable domains, filtered by the rule's comparison
predicates, anti-joined with the existing answers matching t, and
goal-annotated; the sampler runs the same last three steps over its
drawn bindings (:func:`whynot_select`, a Spark SQL SELECT). Its size is
Θ(Π|𝔻_v|) — exponential in the number of unbound variables — which is
exactly why the paper samples instead; we keep this implementation for
small instances (tests, FULL comparisons) and guard it with
``max_derivations``. :func:`whynot_full` collects every rule's rows with
one statement; :func:`full_select` is one rule's SELECT, which the
Artemis baseline aggregates in Spark.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import StructField

from repro.core.ast import Comparison, Program, Var
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import (
    Catalog,
    Occurrence,
    Values,
    attrs_of_vars,
)
from repro.engine.eval import comparison_column
from repro.engine.statement import Statement, hint, quote, where
from repro.provenance.annotate import annotate_select, head_constants


def split_comparisons(
    unified: UnifiedRule,
) -> tuple[dict[str, list[Comparison]], list[Comparison]]:
    """Partition comparisons into per-variable θ_X (variable vs constant)
    and θ_join (variable vs variable) — Sec. 5.2."""
    per_var: dict[str, list[Comparison]] = {}
    var_var: list[Comparison] = []
    for c in unified.rule.comparisons:
        vs = c.vars()
        if len(vs) == 1:
            per_var.setdefault(vs[0].name, []).append(c)
        else:
            var_var.append(c)
    return per_var, var_var


def variable_domain(catalog: Catalog, unified: UnifiedRule, var: Var) -> DataFrame:
    """𝔻 for one unbound variable: the union of the catalog's domains of
    attrs(X), with θ_X constant comparisons applied (values that can never
    satisfy them are removed before enumeration/sampling)."""
    per_var, _ = split_comparisons(unified)
    dom = catalog.domain(_occurrences(unified, var))
    out = dom.select(F.col("value").alias(var.name))
    for c in per_var.get(var.name, []):
        out = out.filter(comparison_column(c))
    return out


def _occurrences(unified: UnifiedRule, var: Var) -> list[Occurrence]:
    occs = attrs_of_vars(unified.rule).get(var)
    if not occs:
        raise ValueError(f"variable {var.name} has no attribute occurrences")
    return occs


def _domain_key(unified: UnifiedRule, var: Var) -> tuple:
    """The catalog key of ``var``'s domain: (attrs(X), θ_X)."""
    per_var, _ = split_comparisons(unified)
    return tuple(_occurrences(unified, var)), tuple(per_var.get(var.name, ()))


def variable_values(catalog: Catalog, unified: UnifiedRule, var: Var) -> Values:
    """:func:`variable_domain` collected and canonically sorted, once per
    catalog and (attrs(X), θ_X)."""
    key = _domain_key(unified, var)
    plans = {key: lambda: variable_domain(catalog, unified, var)}
    field, values = catalog.domain_values(plans)[key]
    return StructField(var.name, field.dataType, field.nullable), values


def fill_variable_domains(catalog: Catalog, rules: list[UnifiedRule]) -> None:
    """Collect in one Spark action every catalog domain that the unbound
    variables of ``rules`` need and the catalog does not hold yet."""
    catalog.domain_values({
        _domain_key(u, v): (lambda u=u, v=v: variable_domain(catalog, u, v))
        for u in rules
        for v in u.unbound
    })


def all_valuations(catalog: Catalog, unified: UnifiedRule) -> DataFrame:
    """All rule derivations of r_t: the cross product of the variable
    domains, one column per unbound variable. Only θ_X is applied (by the
    domains); :func:`whynot_select` applies θ_join."""
    acc: DataFrame | None = None
    for var in unified.unbound:
        # one partition per domain: a cross product has the product of its
        # inputs' partition counts, and a domain Spark answers from a
        # cached goal projection keeps that cache's partitions
        d = variable_domain(catalog, unified, var).coalesce(1)
        acc = d if acc is None else acc.crossJoin(d)
    if acc is None:  # fully bound rule: a single (empty) valuation
        acc = catalog.spark.range(1).drop("id")
    return acc


def count_all_derivations(catalog: Catalog, unified: UnifiedRule) -> int:
    """|A(Q, D, t)| ignoring comparisons: product of domain sizes (Sec. 5.3)."""
    total = 1
    for var in unified.unbound:
        total *= len(variable_values(catalog, unified, var)[1])
    return total


def der_select(
    stmt: Statement, catalog: Catalog, program: Program, unified: UnifiedRule,
    bind: str,
) -> str:
    """Q_der over candidate bindings ``bind`` (a relation with one column
    per unbound variable): the θ_join filter, then, when the head has a
    variable, the anti-join with σ_t(Q(D)). A ground head's answer is
    looked up in the catalog's answer index instead."""
    theta = [stmt.comparison(c) for c in split_comparisons(unified)[1]]
    out = f"SELECT * FROM {bind}{where(theta)}"
    keys = [(i, a) for i, a in enumerate(unified.rule.head.args) if isinstance(a, Var)]
    if not keys:
        return out
    view = catalog.result_view(program)
    sigma = [f"h{i} = {stmt.param(v)}" for i, v in head_constants(unified).items()]
    on = " AND ".join(f"b.{quote(a.name)} = q.h{i}" for i, a in keys)
    return (
        f"SELECT {hint([('q', view)])}b.* FROM ({out}) b LEFT ANTI JOIN "
        f"(SELECT * FROM {view.name}{where(sigma)}) q ON {on}"
    )


def whynot_select(
    stmt: Statement, catalog: Catalog, program: Program, unified: UnifiedRule,
    bind: str,
) -> str:
    """Steps 2–3 of Sec. 5.2 over candidate bindings ``bind``: Q_der, then
    the goal annotations. FULL feeds it the domains' cross product, the
    sampler its drawn bindings."""
    der = der_select(stmt, catalog, program, unified, bind)
    return annotate_select(stmt, catalog, unified, f"({der})")


def full_select(
    stmt: Statement,
    catalog: Catalog,
    program: Program,
    unified: UnifiedRule,
    max_derivations: int | None,
) -> str:
    """:func:`whynot_select` over the domains' cross product: Whynot(Q, D, t)
    restricted to one rule, columns the unbound variables, then ``g1 … gm``.

    Raises ``ValueError`` when the derivation space exceeds
    ``max_derivations`` (the stand-in for the paper's FULL timeouts).
    """
    if max_derivations is not None:
        n = count_all_derivations(catalog, unified)
        if n > max_derivations:
            raise ValueError(
                f"full why-not enumeration of {n} derivations exceeds "
                f"max_derivations={max_derivations}"
            )
    vals = all_valuations(catalog, unified)
    ground = not any(isinstance(a, Var) for a in unified.rule.head.args)
    if ground and catalog.answers(program).matching(head_constants(unified)):
        vals = vals.limit(0)  # the one head this rule derives exists
    # domains, their cross product and the joins with the distinct goal
    # relations are all sets: the result has no duplicate to drop
    return whynot_select(stmt, catalog, program, unified, stmt.frame(vals))


def whynot_full(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    max_derivations: int | None = 5_000_000,
) -> list[tuple[UnifiedRule, list[tuple]]]:
    """Whynot(Q, D, t) per rule: [(unified rule, annotated derivations)],
    each row the rule's unbound variables, then ``g1 … gm``.

    Every domain the rules need and the catalog lacks is collected first,
    in one Spark action; then every rule's rows come from one statement
    and one ``collect()``.
    """
    rules = unify_program(program, t)
    fill_variable_domains(catalog, rules)
    stmt = Statement(catalog.spark)
    for u in rules:
        select = full_select(stmt, catalog, program, u, max_derivations)
        stmt.add(select, len(u.unbound) + u.n_goals)
    return list(zip(rules, stmt.collect()))
