"""Artemis-like all-derivations baseline (Sec. 9.3, Fig. 12a).

Artemis [13] explains missing answers by enumerating *all* (compactly
constraint-encoded) failed derivations. We reproduce its observable
behaviour for the comparison: materialize the full why-not provenance
(cost grows with the derivation space — the source of Artemis' timeouts
in Fig. 12a, modeled here by the ``max_derivations`` guard raising
:class:`ArtemisTimeout`) and report, per goal-annotation group, the most
general pattern covering the group. As in the paper's run, the top
explanation is the most-general (nearly all-placeholder) pattern.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import functions as F

from repro.core.ast import Program
from repro.core.unify import PTuple, unify_program
from repro.engine.catalog import Catalog
from repro.patterns.pattern import Pattern
from repro.provenance.annotate import goal_column_names
from repro.provenance.whynot_full import count_all_derivations, whynot_full_rule


class ArtemisTimeout(Exception):
    """Raised when the all-derivations enumeration exceeds its budget —
    the stand-in for Artemis' wall-clock timeouts on larger datasets."""


@dataclass
class ArtemisExplanation:
    """All-derivations output: per goal-annotation group, the most
    general covering pattern and the number of derivations it covers."""

    patterns: list[Pattern]
    n_derivations: int

    def top(self) -> Pattern:
        return max(self.patterns, key=lambda p: p.count)


def artemis_explain(
    catalog: Catalog,
    program: Program,
    t: PTuple,
    max_derivations: int = 2_000_000,
) -> ArtemisExplanation:
    """Enumerate Whynot(Q, D, t) and generalize per goal-annotation group."""
    patterns: list[Pattern] = []
    total = 0
    for u in unify_program(program, t):
        n_space = count_all_derivations(catalog, u)
        if n_space > max_derivations:
            raise ArtemisTimeout(
                f"derivation space of {n_space} exceeds budget {max_derivations}"
            )
        full = whynot_full_rule(catalog, program, u, max_derivations=max_derivations)
        var_cols = [v.name for v in u.unbound]
        goal_cols = goal_column_names(u.n_goals)
        # per goal-annotation group: count + per-position min/max to
        # detect positions on which all derivations agree (kept constant)
        aggs = [F.count(F.lit(1)).alias("__n")]
        for v in var_cols:
            aggs.append(F.min(v).alias(f"__min_{v}"))
            aggs.append(F.max(v).alias(f"__max_{v}"))
        grouped = full.groupBy(*goal_cols).agg(*aggs).collect()
        for r in grouped:
            args = tuple(
                r[f"__min_{v}"] if r[f"__min_{v}"] == r[f"__max_{v}"] else None
                for v in var_cols
            )
            n = int(r["__n"])
            total += n
            patterns.append(
                Pattern(
                    rule_id=u.rule_id,
                    var_names=tuple(var_cols),
                    args=args,
                    goals=tuple(bool(r[g]) for g in goal_cols),
                    cp=0.0,
                    count=n,
                )
            )
    for i, p in enumerate(patterns):
        patterns[i] = p.with_cp(p.count / total if total else 0.0, p.count)
    return ArtemisExplanation(patterns=patterns, n_derivations=total)
