"""Why-provenance capture via instrumented evaluation (Sec. 4, [20, 22]).

Why(Q, D, t) is the set of *successful* derivations of existing answers
matching t (Def. 3). A successful derivation has every goal annotated T
(Def. 1), so capture = evaluate the unified rule while retaining the
bindings of all unbound variables and annotate every goal with T.

Only σ_t depends on the question: the successful derivations of the
base rule depend on (D, Q) alone. The catalog keeps them persisted
(``Catalog.derivations_view``), and each question filters them by the
constants it binds and by the unified rule's comparisons, in Spark SQL.
|Why| depends on the question only through σ_t too: the catalog keeps
each base rule's derivations counted per head (``Catalog.derivation_counts``),
and a question sums the counts of the heads σ_t selects, on the driver.
"""
from __future__ import annotations

import struct

from repro.core.ast import Program, Rule
from repro.core.sqlgen import head_columns
from repro.core.unify import PTuple, UnifiedRule, unify_program
from repro.engine.catalog import Catalog
from repro.engine.statement import Statement, quote, where
from repro.provenance.annotate import goal_column_names, head_constants


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


def _count_select(stmt: Statement, catalog: Catalog, rule: Rule) -> str:
    """A SELECT of ``rule``'s count index: per head that its successful
    derivations derive, the head ``h0 … h{n-1}`` and its number of
    derivations, read from the catalog's persisted derivations."""
    heads = [
        f"{stmt.term(a)} AS {h}"
        for a, h in zip(rule.head.args, head_columns(rule.head.arity))
    ]
    keys = [quote(v.name) for v in dict.fromkeys(rule.head.vars())]
    group = f" GROUP BY {', '.join(keys)}" if keys else ""
    view = catalog.derivations_view(rule)
    return f"SELECT {', '.join(heads + ['COUNT(*)'])} FROM {view.name}{group}"


def why_count(catalog: Catalog, unified: UnifiedRule) -> int:
    """|Why| of one unified rule: the count, in the catalog's count index
    of its base rule, of the heads that hold the question's constants and
    hold equal values at ``unified.equal_positions``. Those equalities
    are SQL ``=`` comparisons in :func:`why_select`, and SQL ``=`` holds
    for no NULL, so a head with NULL at such a position counts nothing."""
    index = catalog.derivation_counts(unified.base)
    return sum(
        r[-1]
        for r in index.matching(head_constants(unified))
        if all(r[i] is not None and r[i] == r[j] for i, j in unified.equal_positions)
    )


def _collect_with_counts(
    stmt: Statement, catalog: Catalog, rules: list[UnifiedRule]
) -> list[list[tuple]]:
    """``stmt.collect()``, with the count index of every base rule of
    ``rules`` that the catalog lacks added to the same action and stored
    in the catalog; returns the rows of the SELECTs added before."""
    missing = [
        b for b in dict.fromkeys(u.base for u in rules)
        if catalog.derivation_counts(b) is None
    ]
    n = len(stmt.selects)
    for b in missing:
        stmt.add(_count_select(stmt, catalog, b), b.head.arity + 1)
    out = stmt.collect()
    for b, rows in zip(missing, out[n:]):
        catalog.set_derivation_counts(b, rows)
    return out[:n]


def why_size(catalog: Catalog, program: Program, t: PTuple) -> int:
    """|Why(Q, D, t)| summed over the rules, from the catalog's count
    indexes; one Spark action fills those it lacks."""
    rules = unify_program(program, t)
    _collect_with_counts(Statement(catalog.spark), catalog, rules)
    return sum(why_count(catalog, u) for u in rules)


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
    :func:`_seed_bytes`, so a new seed compiles no new code. Spark plans
    the ``ORDER BY … LIMIT`` as a top-n (``TakeOrderedAndProject``) with
    no exchange, so a warm question is one Spark job. |Why| comes from
    the catalog's count index (:func:`why_count`), which the statement
    that first reads a base rule fills.
    """
    rules = unify_program(program, t)
    stmt = Statement(catalog.spark)
    seed_param = stmt.param(_seed_bytes(seed))
    for u in rules:
        names = [v.name for v in u.unbound] + goal_column_names(u.n_goals)
        cols = ", ".join(map(quote, names))
        stmt.add(
            f"SELECT * FROM ({why_select(stmt, catalog, u)}) "
            f"ORDER BY xxhash64({seed_param}, {cols}), {cols} LIMIT {int(n_s)}",
            len(names),
        )
    cuts = _collect_with_counts(stmt, catalog, rules)
    return [
        (u, rows, why_count(catalog, u))
        for u, rows in zip(rules, cuts)
        if rows
    ]
