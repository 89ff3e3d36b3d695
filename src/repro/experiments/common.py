"""Shared helpers for experiment harnesses: bindings, sizes, printing."""
from __future__ import annotations

from typing import Sequence

from repro.core.ast import Const, Program
from repro.core.unify import PTuple, unify_program
from repro.engine.catalog import Catalog, canonical_sort
from repro.provenance.whynot_full import count_all_derivations


def bind_first_answer(
    catalog: Catalog, program: Program, template: PTuple, positions: Sequence[int]
) -> PTuple:
    """Fill ``positions`` of a p-tuple template with the corresponding
    head values of the canonically smallest existing answer (for Why
    questions). The answers are the catalog's driver-side copy of Q(D),
    so the choice does not depend on how Spark partitions them."""
    answers = canonical_sort(catalog.answers(program).matching({}))
    if not answers:
        raise ValueError("query has no answers to bind a why question to")
    args = list(template.args)
    for i in positions:
        args[i] = Const(answers[0][i])
    return PTuple(template.pred, tuple(args))


def whynot_space(catalog: Catalog, program: Program, t: PTuple) -> float:
    """Derivation-space size Σ_rules Π |𝔻_v| — the provenance size the
    paper reports on the upper x-axis of Figs. 6–9 (ignores θ_join)."""
    rules = unify_program(program, t)
    return float(sum(count_all_derivations(catalog, u) for u in rules))


def format_rows(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render result rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())
    cells = [[_fmt(r.get(c)) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if v is None:
        return "timeout"
    if isinstance(v, float):
        if v != 0 and (abs(v) >= 1e6 or abs(v) < 1e-3):
            return f"{v:.2e}"
        return f"{v:.3f}"
    return str(v)
