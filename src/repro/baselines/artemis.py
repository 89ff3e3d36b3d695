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

from repro.core.ast import Program
from repro.core.unify import PTuple, unify_program
from repro.engine.catalog import Catalog
from repro.engine.statement import Statement, quote
from repro.patterns.pattern import Pattern
from repro.provenance.annotate import goal_column_names
from repro.provenance.whynot_full import count_all_derivations, full_select


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
    """Enumerate Whynot(Q, D, t) and generalize per goal-annotation group.

    Per rule, one SELECT groups :func:`full_select`'s rows by their goal
    annotations and aggregates each group in Spark: its count, and per
    variable the minimum and maximum, which are equal where all its
    derivations agree (kept as a constant). All rules run as one
    statement, with one ``collect()``.
    """
    rules = unify_program(program, t)
    stmt = Statement(catalog.spark)
    for u in rules:
        n_space = count_all_derivations(catalog, u)
        if n_space > max_derivations:
            raise ArtemisTimeout(
                f"derivation space of {n_space} exceeds budget {max_derivations}"
            )
        full = full_select(stmt, catalog, program, u, max_derivations)
        goal_cols = goal_column_names(u.n_goals)
        aggs = ["COUNT(1)"]
        for v in u.unbound:
            aggs += [f"MIN({quote(v.name)})", f"MAX({quote(v.name)})"]
        stmt.add(
            f"SELECT {', '.join(goal_cols + aggs)} FROM ({full}) "
            f"GROUP BY {', '.join(goal_cols)}",
            len(goal_cols) + len(aggs),
        )
    patterns: list[Pattern] = []
    for u, grouped in zip(rules, stmt.collect()):
        m, names = u.n_goals, tuple(v.name for v in u.unbound)
        for r in grouped:
            lows, highs = r[m + 1::2], r[m + 2::2]
            args = tuple(lo if lo == hi else None for lo, hi in zip(lows, highs))
            patterns.append(
                Pattern(u.rule_id, names, args, tuple(map(bool, r[:m])), count=r[m])
            )
    total = sum(p.count for p in patterns)
    for i, p in enumerate(patterns):
        patterns[i] = p.with_cp(p.count / total if total else 0.0, p.count)
    return ArtemisExplanation(patterns=patterns, n_derivations=total)
