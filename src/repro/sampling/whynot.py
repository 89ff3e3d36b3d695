"""Batch sampling of why-not provenance (Sec. 5.2).

Per unified rule r_t the pipeline is the paper's three-step query:

1. **Q_X / Q_bind** — per unbound variable, sample n_OS values with
   replacement from its (θ_X-filtered) domain and zip the per-variable
   samples into bindings.
2. **Q_der** — anti-join with σ_t(Q(D)) to drop derivations of existing
   answers, after the θ_join filter.
3. **Q_sample** — left-outer joins with the goal relations to compute
   goal annotations g1…gm, duplicate elimination, and a final uniform
   cut down to n_S derivations.

Work that touches the database stays in Catalyst: the domains, Q(D),
the anti-join and the goal annotation. The domains, Q(D) and the goal
relations do not depend on the question, so the catalog computes them
once and every question reuses them (``Catalog.domain_values``,
``Catalog.result_view``, ``Catalog.goal_view``); the domains a question
finds missing are collected together, in one action. σ_t's count for
p_prov and the check that every head a rule can derive exists read
``Catalog.answers``, Q(D)'s answers collected once to the driver. The
draws are made on the driver (``repro.sampling.ops``) and deduplicated
there, since a derivation's annotation is a function of its binding.
Every rule's n_OS is thus known before Spark runs. Each rule's bindings
go back to Spark as a local relation built from an Arrow table
(``repro.engine.statement.local_frame``), not as a pickled Python RDD,
and steps 2–3 of all rules of a UCQ run as one Spark SQL statement over
them, tagged by rule, with one ``collect()``. Each rule's n_S cut is
drawn on the driver from its canonically sorted survivors. A rule's
draws come from one ``numpy.random.Generator`` seeded with its seed, so
the sample depends on (data, question, seed, n_S) alone, not on Spark's
partitioning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from pyspark.sql.types import BooleanType, StructField, StructType

from repro.core.ast import Program, Var
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import AnswerIndex, Catalog, canonical_sort
from repro.engine.statement import Statement, local_frame
from repro.provenance.annotate import goal_column_names, head_constants
from repro.provenance.whynot_full import (
    fill_variable_domains,
    split_comparisons,
    variable_values,
    whynot_select,
)
from repro.sampling.ops import sample_with_replacement
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
    schema: StructType  # unbound variables, then goals g1…gm
    rows: list[tuple]  # the ≤ n_S sampled rows, in the schema's column order
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


def _existing_answers(
    answers: AnswerIndex, unified: UnifiedRule, values: dict[str, set]
) -> int:
    """How many existing answers a draw can hit: the answers σ_t selects
    whose value for every head variable lies in that variable's domain
    (one value per variable, where the head repeats it). An answer with a
    NULL there is not counted: Q_der's anti-join compares with SQL ``=``,
    which never removes a derivation of it."""
    head = unified.rule.head.args
    n = 0
    for row in answers.matching(head_constants(unified)):
        seen: dict[str, object] = {}
        n += all(
            row[i] is not None
            and row[i] in values[a.name]
            and seen.setdefault(a.name, row[i]) == row[i]
            for i, a in enumerate(head)
            if isinstance(a, Var)
        )
    return n


@dataclass
class _Draw:
    """One rule's driver-side part of Q_bind: its statistics, its distinct
    drawn bindings and the generator that draws its n_S cut later."""

    sample: RuleSample  # rows and n_survivors are filled in after the collect
    fields: list[StructField]
    bindings: list[tuple]
    rng: np.random.Generator


def _draw(
    catalog: Catalog,
    answers: AnswerIndex,
    unified: UnifiedRule,
    n_s: int,
    seed: int,
    max_n_os: int,
) -> _Draw | RuleSample:
    """Domains, n_OS and the draws of one rule, all on the driver; a rule
    with no why-not derivation comes back as its final, empty sample."""
    # --- variable domains, collected and sorted once per catalog ---
    fields: list[StructField] = []
    values: list[tuple] = []
    for var in unified.unbound:
        field, vals = variable_values(catalog, unified, var)
        fields.append(field)
        values.append(vals)
    goals = goal_column_names(unified.n_goals)
    schema = StructType(fields + [StructField(g, BooleanType(), False) for g in goals])
    dom_sizes = {f.name: len(v) for f, v in zip(fields, values)}
    n_all = math.prod(dom_sizes.values())
    sample = RuleSample(unified, schema, [], n_s, 0, 0.0, n_all, 0.0, 0, False)
    if n_all == 0:
        return sample

    # --- over-sampling size from p_prov (Sec. 5.3), σ_t from the index ---
    head_vars = {a.name for a in unified.rule.head.args if isinstance(a, Var)}
    n_existing = _existing_answers(
        answers,
        unified,
        {f.name: set(v) for f, v in zip(fields, values) if f.name in head_vars},
    )
    if n_existing == math.prod(dom_sizes[v] for v in head_vars):
        # every head this rule can derive exists (a ground head: its one
        # head) → every derivation is Q_der's, and Whynot is empty
        return sample
    p_prov = p_prov_estimate(unified, n_existing, dom_sizes)
    _, var_var = split_comparisons(unified)
    sel = comparison_selectivity(var_var)
    if n_s / p_prov > max_n_os:
        n_os = max_n_os  # binomial target unreachable within the cap
    else:
        n_os = min_oversample_size(n_s, p_prov)
    n_os = min(max_n_os, max(n_s, int(n_os / max(sel, 1e-6)) + 1))
    sample.n_os, sample.p_prov, sample.capped = n_os, p_prov, n_os == max_n_os
    sample.est_whynot_size = p_prov * n_all * sel

    # --- step 1: Q_X per variable, zipped into Q_bind; a derivation's
    # annotation depends on its binding alone, so duplicates are dropped
    # here rather than by a Spark shuffle ---
    rng = np.random.default_rng(seed)
    picks = [sample_with_replacement(v, n_os, rng) for v in values]
    bindings = list(dict.fromkeys(zip(*picks))) if fields else [()]
    return _Draw(sample, fields, bindings, rng)


def _select(
    stmt: Statement, catalog: Catalog, program: Program, draw: _Draw
) -> str:
    """Steps 2–3 of one rule over its drawn bindings; with a ground head
    the answer index already decided that its answer is missing."""
    if draw.fields:
        local = local_frame(catalog.spark, draw.bindings, StructType(draw.fields))
        bind = stmt.frame(local)
    else:  # fully bound question: the single empty valuation
        bind = "(SELECT 0 AS __unit)"
    return whynot_select(stmt, catalog, program, draw.sample.unified, bind)


def _sample_rules(
    catalog: Catalog,
    program: Program,
    rules: list[UnifiedRule],
    seeds: list[int],
    n_s: int,
    max_n_os: int,
) -> list[RuleSample]:
    """Sample every rule in ``rules``: all draws first, on the driver, so
    every rule's n_OS is known before Spark runs; then one Spark SQL
    statement for all rules, collected once; then each rule's n_S cut."""
    answers = catalog.answers(program)
    fill_variable_domains(catalog, rules)
    draws = [
        _draw(catalog, answers, u, n_s, seed, max_n_os)
        for u, seed in zip(rules, seeds)
    ]
    pending = [d for d in draws if isinstance(d, _Draw)]
    if pending:
        stmt = Statement(catalog.spark)
        for d in pending:
            stmt.add(_select(stmt, catalog, program, d), len(d.sample.schema))
        for d, rows in zip(pending, stmt.collect()):
            survivors = canonical_sort(rows)
            if len(survivors) > n_s:
                keep = np.sort(d.rng.choice(len(survivors), n_s, replace=False))
                d.sample.rows = [survivors[i] for i in keep]
            else:
                d.sample.rows = survivors
            d.sample.n_survivors = len(survivors)
    return [d.sample if isinstance(d, _Draw) else d for d in draws]


def sample_whynot_rule(
    catalog: Catalog,
    program: Program,
    unified: UnifiedRule,
    n_s: int,
    seed: int = 0,
    max_n_os: int = 5_000_000,
) -> RuleSample:
    """Sample ≤ n_S annotated derivations from Whynot restricted to one rule.

    A rule whose θ_X filters leave some variable with an empty domain
    has no derivations, hence no why-not provenance: its sample is empty
    and ``n_os`` is 0.
    """
    (sample,) = _sample_rules(catalog, program, [unified], [seed], n_s, max_n_os)
    return sample


def sample_whynot(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    n_s: int,
    seed: int = 0,
    max_n_os: int = 5_000_000,
) -> list[RuleSample]:
    """Sample Whynot(Q, D, t): per-rule samples for every rule of the UCQ.

    n_OS is determined separately per rule (end of Sec. 5.2), rule ``i``
    drawing from ``seed + 1000·i``; the rules' plans run as one Spark
    action, and the final top-k step merges the per-rule pattern sets.
    """
    rules = unify_program(program, t)
    seeds = [seed + 1000 * i for i in range(len(rules))]
    return _sample_rules(catalog, program, rules, seeds, n_s, max_n_os)
