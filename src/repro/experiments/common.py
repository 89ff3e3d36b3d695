"""Shared code of the experiment harnesses: opening a query's catalog and
asking it a question, derivation-space sizes, and printing rows."""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from pyspark.sql import SparkSession

from repro.core.ast import Program
from repro.core.unify import PQuestion, PTuple, unify_program
from repro.engine.catalog import Catalog
from repro.experiments.queries import QUERIES
from repro.provenance.whynot_full import count_all_derivations
from repro.summarize.pipeline import Summary, summarize

#: The seed of every table: each database's generator seed and each
#: question's sampling seed.
SEED = 0


@contextmanager
def open_question(
    spark: SparkSession, query: str, n: int, qtype: str
) -> Iterator[tuple[Catalog, Program, PQuestion]]:
    """A catalog over ``QUERIES[query]``'s database at ``n`` rows, the
    query's program and its ``qtype`` question; the catalog is closed
    (its persisted relations and temp views dropped) on exit."""
    spec = QUERIES[query]
    with Catalog(spark, spec.build_db(spark, n, SEED)) as catalog:
        program = spec.program()
        t = spec.ptuple(catalog, program, qtype)
        yield catalog, program, PQuestion(t, qtype)


def ask(
    catalog: Catalog, program: Program, question: PQuestion, k: int, n_s: int,
    **options,
) -> Summary:
    """The top-``k`` summary of ``question`` over an ``n_s`` sample, as
    every table asks it: :func:`summarize` with the tables' seed."""
    return summarize(catalog, program, question, k=k, n_s=n_s, seed=SEED, **options)


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
