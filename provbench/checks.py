"""Output checks, run after the timed loop.

None of them compares against stored summaries: a change to how the
sample is drawn legitimately changes which summary comes back. They
check what must hold for any draw instead.
"""
from __future__ import annotations

import math

from repro.core.sqlgen import program_to_sql
from repro.core.unify import WHY
from repro.engine.eval import evaluate
from repro.oracle import assert_equivalent
from repro.patterns.matching import match_reference
from repro.summarize.metrics import harmonic, info_of_set


def check_engine(catalog, program, tables) -> list[str]:
    """Q(D) from the Spark engine equals the DuckDB oracle's."""
    sql = program_to_sql(program, catalog.column_map())
    try:
        assert_equivalent(evaluate(catalog, program), sql, **tables)
    except AssertionError as e:
        return [f"evaluate differs from the DuckDB oracle: {e}"]
    return []


def check_summary(summary) -> list[str]:
    """Def. 3 on the stored sample, sample size, match counts and score."""
    problems: list[str] = []
    store = summary.store
    why = summary.question.qtype == WHY
    for rule_id, rows in store.rules.items():
        if len(rows.args) > summary.n_s:
            problems.append(f"{rule_id}: {len(rows.args)} sample rows > n_S={summary.n_s}")
        for goals in rows.goals:
            if why and not all(goals):
                problems.append(f"{rule_id}: why row with a false goal {goals}")
                break
            if not why and all(goals):
                problems.append(f"{rule_id}: why-not row with all goals true")
                break
    for p in summary.patterns:
        rows = store.rules[p.rule_id]
        key = (p.args, p.goals)
        ref = match_reference([key], list(zip(rows.args, rows.goals)))[key]
        if ref != p.count:
            problems.append(f"{p.pretty()}: count {p.count} != match_reference {ref}")
    cp = store.cp_of_set(summary.patterns)
    if not math.isclose(summary.completeness, cp, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"completeness {summary.completeness} != cp_of_set {cp}")
    info = info_of_set(summary.patterns)
    if not math.isclose(summary.informativeness, info, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"informativeness {summary.informativeness} != info_of_set {info}")
    score = harmonic(summary.completeness, summary.informativeness)
    if not math.isclose(summary.score, score, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"score {summary.score} != harmonic(cp, info) {score}")
    if not summary.patterns:
        problems.append("empty summary")
    return problems
