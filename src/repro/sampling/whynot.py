"""Batch sampling of why-not provenance (Sec. 5.2).

Per unified rule r_t the pipeline is the paper's three-step query:

1. **Q_X / Q_bind** — per unbound variable, sample n_OS values with
   replacement from its (θ_X-filtered) domain and zip the per-variable
   samples into bindings.
2. **Q_der** — anti-join with σ_t(Q(D)) to drop derivations of existing
   answers, after the θ_join filter.
3. **Q_sample** — left-outer joins with the body relations to compute
   goal annotations g1…gm, duplicate elimination, and a final uniform
   cut down to n_S derivations.

Work that touches the database stays in Catalyst: the domains, Q(D),
the anti-join and the goal annotation. Each domain is collected once
and the draws are made on the driver (``repro.sampling.ops``); the
drawn bindings go back as one DataFrame, steps 1–3 run as one plan
with one ``collect()``, and the n_S cut is drawn on the driver from the
canonically sorted survivors. Every draw comes from one
``numpy.random.Generator`` seeded with ``seed``, so the sample depends
on (data, question, seed, n_S) alone, not on Spark's partitioning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql.types import BooleanType, StructField, StructType

from repro.core.ast import Program, Var
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import Catalog
from repro.engine.eval import comparison_column, evaluate
from repro.provenance.annotate import (
    annotate_goals,
    anti_join_existing,
    filter_result_to_head,
    goal_column_names,
)
from repro.provenance.whynot_full import split_comparisons, variable_domain
from repro.sampling.ops import canonical_sort, sample_with_replacement
from repro.sampling.oversample import (
    comparison_selectivity,
    min_oversample_size,
    p_prov_estimate,
)


@dataclass
class RuleSample:
    """The sample of Whynot(Q, D, t) restricted to one rule, plus the
    statistics needed for reweighting and reporting."""

    unified: UnifiedRule
    sample: DataFrame  # local DataFrame of the ≤ n_S sampled rows
    rows: list[tuple]  # the same rows, collected, in the sample's column order
    n_s: int
    n_os: int
    p_prov: float
    n_all_derivations: int  # |A(Q, D, t)| for this rule (ignoring θ_join)
    est_whynot_size: float  # estimated |Whynot| share of this rule
    n_survivors: int  # distinct derivations after θ_join and Q_der
    capped: bool  # n_OS was cut to max_n_os

    @property
    def rule_id(self) -> str:
        return self.unified.rule_id


def sample_whynot_rule(
    catalog: Catalog,
    program: Program,
    unified: UnifiedRule,
    n_s: int,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    result: DataFrame | None = None,
    max_n_os: int = 5_000_000,
) -> RuleSample:
    """Sample ≤ n_S annotated derivations from Whynot restricted to one rule.

    A rule whose θ_X filters leave some variable with an empty domain
    has no derivations, hence no why-not provenance: its sample is empty
    and ``n_os`` is 0.
    """
    if result is None:
        result = evaluate(catalog, program)
    spark = catalog.spark

    # --- variable domains, each collected once and sorted ---
    fields: list[StructField] = []
    values: list[list] = []
    for var in unified.unbound:
        d = variable_domain(catalog, unified, var, domains)
        fields.append(d.schema[0])
        values.append([r[0] for r in canonical_sort(d.collect())])
    goals = goal_column_names(unified.n_goals)
    schema = StructType(fields + [StructField(g, BooleanType(), False) for g in goals])
    dom_sizes = {f.name: len(v) for f, v in zip(fields, values)}
    n_all = math.prod(dom_sizes.values())

    def empty() -> RuleSample:
        sample = spark.createDataFrame([], schema)
        return RuleSample(unified, sample, [], n_s, 0, 0.0, n_all, 0.0, 0, False)

    if n_all == 0:
        return empty()

    # --- over-sampling size from p_prov (Sec. 5.3) ---
    sigma = filter_result_to_head(result, unified)
    matching = result.filter(sigma) if sigma is not None else result
    n_existing = matching.count()
    head_has_unbound = any(isinstance(a, Var) for a in unified.rule.head.args)
    if not head_has_unbound and n_existing > 0:
        # the (single) head this rule can produce exists → Whynot is empty
        return empty()
    p_prov = p_prov_estimate(unified, n_existing, dom_sizes)
    _, var_var = split_comparisons(unified)
    sel = comparison_selectivity(var_var)
    if n_s / p_prov > max_n_os:
        n_os = max_n_os  # binomial target unreachable within the cap
    else:
        n_os = min_oversample_size(n_s, p_prov, p_success)
    n_os = min(max_n_os, max(n_s, int(n_os / max(sel, 1e-6)) + 1))

    # --- step 1: Q_X per variable, zipped into Q_bind ---
    rng = np.random.default_rng(seed)
    if fields:
        picks = [sample_with_replacement(v, n_os, rng) for v in values]
        bind = spark.createDataFrame(list(zip(*picks)), StructType(fields))
    else:  # fully bound question: the single empty valuation
        bind = spark.range(1).drop("id")
    for c in var_var:
        bind = bind.filter(comparison_column(c))

    # --- step 2: Q_der — drop derivations of existing answers; with a
    # ground head the count above already decided it (none exist) ---
    der = anti_join_existing(bind, result, unified) if head_has_unbound else bind

    # --- step 3: Q_sample — goal annotations, set semantics, cut to n_S ---
    annotated = annotate_goals(catalog, unified, der).distinct()
    survivors = canonical_sort(annotated.collect())
    if len(survivors) > n_s:
        keep = np.sort(rng.choice(len(survivors), n_s, replace=False))
        rows = [survivors[i] for i in keep]
    else:
        rows = survivors

    return RuleSample(
        unified=unified,
        sample=spark.createDataFrame(rows, schema),
        rows=rows,
        n_s=n_s,
        n_os=n_os,
        p_prov=p_prov,
        n_all_derivations=n_all,
        est_whynot_size=p_prov * n_all * sel,
        n_survivors=len(survivors),
        capped=n_os == max_n_os,
    )


def sample_whynot(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    n_s: int,
    p_success: float = 0.999,
    seed: int = 0,
    domains: dict[str, DataFrame] | None = None,
    max_n_os: int = 5_000_000,
) -> list[RuleSample]:
    """Sample Whynot(Q, D, t): per-rule samples for every rule of the UCQ.

    n_OS is determined separately per rule (end of Sec. 5.2); the final
    top-k step merges the per-rule pattern sets.
    """
    result = evaluate(catalog, program)
    samples = []
    for i, u in enumerate(unify_program(program, t)):
        samples.append(
            sample_whynot_rule(
                catalog,
                program,
                u,
                n_s,
                p_success=p_success,
                seed=seed + 1000 * i,
                domains=domains,
                result=result,
                max_n_os=max_n_os,
            )
        )
    return samples
