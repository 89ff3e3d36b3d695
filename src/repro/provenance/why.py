"""Why-provenance capture via instrumented evaluation (Sec. 4, [20, 22]).

Why(Q, D, t) is the set of *successful* derivations of existing answers
matching t (Def. 3). A successful derivation has every goal annotated T
(Def. 1), so capture = evaluate the unified rule while retaining the
bindings of all unbound variables and annotate every goal with T.

Only σ_t depends on the question: the successful derivations of the
base rule depend on (D, Q) alone. The catalog keeps them persisted
(``Catalog.derivations_view``), and each question filters them by the
constants it binds and by the unified rule's comparisons, in Spark SQL.
"""
from __future__ import annotations

import struct

from repro.core.ast import Program
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import Catalog
from repro.engine.statement import Statement, quote, where
from repro.provenance.annotate import goal_column_names


def why_select(stmt: Statement, catalog: Catalog, unified: UnifiedRule) -> str:
    """A SELECT of the annotated why-provenance of one unified rule.

    Columns: one per unbound variable, then ``g1 … gm`` (all True). The
    rows are those of ``successful_derivations(catalog, unified.rule)``:
    the base rule's derivations whose bound head variables hold the
    question's constants and which satisfy the unified comparisons,
    among them the equalities repeated placeholders add. The base rule's
    own comparisons hold already; applying them again changes nothing.
    """
    conds = [
        f"{quote(var.name)} = {stmt.param(const.value)}"
        for var, const in unified.binding.items()
    ]
    conds += [stmt.comparison(c) for c in unified.rule.comparisons]
    cols = [quote(v.name) for v in unified.unbound]
    cols += [f"true AS {g}" for g in goal_column_names(unified.n_goals)]
    view = catalog.derivations_view(unified.base)
    return f"SELECT {', '.join(cols)} FROM {view.name}{where(conds)}"


def _seed_bytes(seed: int) -> bytearray:
    """The bytes that XXH64 hashes exactly as it hashes ``seed``.

    ``spark.sql`` turns a Python int into an INT literal when it fits in
    32 bits and a BIGINT otherwise, and Spark's XXH64 hashes an INT as its
    4 little-endian bytes and a BIGINT as its 8, so this binary hashes to
    the same value the integer did. Unlike an integer literal, which the
    generated Java code inlines so that every new seed is new source for
    Janino to compile, a binary literal is passed to the generated code
    by reference: the code, and its compiled class, serve every seed.
    """
    fmt = "<i" if -(1 << 31) <= seed < 1 << 31 else "<q"
    return bytearray(struct.pack(fmt, seed))


def sample_why(
    catalog: Catalog, program: Program, t: PTuple, n_s: int, seed: int
) -> list[tuple[UnifiedRule, list[tuple], int]]:
    """Why(Q, D, t) cut to n_S derivations per rule, with |Why| of each
    rule, for the rules that have a derivation; one statement and one
    ``collect()`` for all rules.

    The cut is uniform and stays in Catalyst, because why provenance
    grows with the database: rows are ordered by a seeded hash of the
    row, then the row, an order that, unlike ``rand(seed)``, does not
    depend on how Spark partitions the data. The seed enters the hash as
    :func:`_seed_bytes`, so a new seed compiles no new code.
    ``COUNT(*) OVER ()`` counts the rows before the cut, so the same
    action yields |Why|.
    """
    rules = unify_program(program, t)
    stmt = Statement(catalog.spark)
    seed_param = stmt.param(_seed_bytes(seed))
    for u in rules:
        names = [v.name for v in u.unbound] + goal_column_names(u.n_goals)
        cols = ", ".join(map(quote, names))
        stmt.add(
            f"SELECT *, COUNT(*) OVER () AS __n FROM ({why_select(stmt, catalog, u)}) "
            f"ORDER BY xxhash64({seed_param}, {cols}), {cols} LIMIT {int(n_s)}",
            len(names) + 1,
        )
    return [
        (u, [r[:-1] for r in rows], rows[0][-1])
        for u, rows in zip(rules, stmt.collect())
        if rows
    ]
