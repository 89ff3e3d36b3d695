"""Full why-not enumeration — the paper's "FULL" / naive baseline input.

Whynot(Q, D, t) for one unified rule r_t is materialized as the cross
product of the per-variable domains, filtered by the rule's comparison
predicates, anti-joined with the existing answers matching t, and
goal-annotated. Its size is Θ(Π|𝔻_v|) — exponential in the number of
unbound variables — which is exactly why the paper samples instead; we
keep this implementation for small instances (tests, FULL comparisons)
and guard it with ``max_derivations``.
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
    collect_values,
)
from repro.engine.eval import comparison_column
from repro.provenance.annotate import (
    annotate_goals,
    anti_join_existing,
    head_constants,
)


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


def variable_domain(
    catalog: Catalog,
    unified: UnifiedRule,
    var: Var,
    domains: dict[str, DataFrame] | None = None,
) -> DataFrame:
    """𝔻 for one unbound variable: explicit override or union of attrs(X),
    with θ_X constant comparisons applied (values that can never satisfy
    them are removed before enumeration/sampling)."""
    per_var, _ = split_comparisons(unified)
    if domains is not None and var.name in domains:
        dom = domains[var.name]
        dom = dom.select(F.col(dom.columns[0]).alias("value")).distinct()
    else:
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


def variable_values(
    catalog: Catalog,
    unified: UnifiedRule,
    var: Var,
    domains: dict[str, DataFrame] | None = None,
) -> Values:
    """:func:`variable_domain` collected and canonically sorted.

    A domain derived from the catalog is collected once per catalog and
    (attrs(X), θ_X); a per-question override in ``domains`` is collected
    on every call and never cached.
    """
    if domains is not None and var.name in domains:
        return collect_values(variable_domain(catalog, unified, var, domains))
    field, values = catalog.domain_values(
        _domain_key(unified, var), lambda: variable_domain(catalog, unified, var)
    )
    return StructField(var.name, field.dataType, field.nullable), values


def fill_variable_domains(
    catalog: Catalog,
    rules: list[UnifiedRule],
    domains: dict[str, DataFrame] | None = None,
) -> None:
    """Collect in one Spark action every catalog domain that the unbound
    variables of ``rules`` need and the catalog does not hold yet; a
    variable that ``domains`` overrides needs none."""
    catalog.fill_domains({
        _domain_key(u, v): (lambda u=u, v=v: variable_domain(catalog, u, v))
        for u in rules
        for v in u.unbound
        if domains is None or v.name not in domains
    })


def all_valuations(
    catalog: Catalog,
    unified: UnifiedRule,
    domains: dict[str, DataFrame] | None = None,
) -> DataFrame:
    """All rule derivations of r_t: cross product of variable domains,
    filtered by every comparison. One column per unbound variable."""
    acc: DataFrame | None = None
    for var in unified.unbound:
        # one partition per domain: a cross product has the product of its
        # inputs' partition counts, and a domain Spark answers from a
        # cached goal projection keeps that cache's partitions
        d = variable_domain(catalog, unified, var, domains).coalesce(1)
        acc = d if acc is None else acc.crossJoin(d)
    if acc is None:  # fully bound rule: a single (empty) valuation
        acc = catalog.spark.range(1).drop("id")
    _, var_var = split_comparisons(unified)
    for c in var_var:
        acc = acc.filter(comparison_column(c))
    return acc


def count_all_derivations(
    catalog: Catalog,
    unified: UnifiedRule,
    domains: dict[str, DataFrame] | None = None,
) -> int:
    """|A(Q, D, t)| ignoring comparisons: product of domain sizes (Sec. 5.3)."""
    total = 1
    for var in unified.unbound:
        total *= len(variable_values(catalog, unified, var, domains)[1])
    return total


def whynot_full_rule(
    catalog: Catalog,
    program: Program,
    unified: UnifiedRule,
    domains: dict[str, DataFrame] | None = None,
    result: DataFrame | None = None,
    max_derivations: int | None = 5_000_000,
) -> DataFrame:
    """Whynot(Q, D, t) restricted to one rule, fully materializable.

    Raises ``ValueError`` when the derivation space exceeds
    ``max_derivations`` (the stand-in for the paper's FULL timeouts).
    """
    if max_derivations is not None:
        n = count_all_derivations(catalog, unified, domains)
        if n > max_derivations:
            raise ValueError(
                f"full why-not enumeration of {n} derivations exceeds "
                f"max_derivations={max_derivations}"
            )
    vals = all_valuations(catalog, unified, domains)
    if any(isinstance(a, Var) for a in unified.rule.head.args):
        if result is None:
            result = catalog.result(program)
        vals = anti_join_existing(vals, result, unified)
    elif catalog.answers(program).matching(head_constants(unified)):
        vals = vals.limit(0)  # the one head this rule derives exists
    # domains, their cross product and the joins with the distinct goal
    # relations are all sets: the result has no duplicate to drop
    return annotate_goals(catalog, unified, vals)


def whynot_full(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    domains: dict[str, DataFrame] | None = None,
    max_derivations: int | None = 5_000_000,
) -> list[tuple[UnifiedRule, DataFrame]]:
    """Whynot(Q, D, t) per rule: [(unified rule, annotated derivations)].

    Every domain the rules need and the catalog lacks is collected first,
    in one Spark action.
    """
    rules = unify_program(program, t)
    fill_variable_domains(catalog, rules, domains)
    result = catalog.result(program)
    return [
        (u, whynot_full_rule(catalog, program, u, domains, result, max_derivations))
        for u in rules
    ]
