"""T9 (Fig. 9): summarization runtime vs query complexity — number of
joins (chain/star), number of bound variables, DBLP path length, and
TPC-H r10 with a growing number of bound existential variables.

All runs are why-not questions (as in the paper) with top-3 summaries.
"""
from __future__ import annotations

from collections.abc import Callable

from pyspark.sql import DataFrame, SparkSession

from repro.core.ast import Const, Program
from repro.core.unify import WHYNOT, PQuestion, PTuple, parse_ptuple
from repro.datasets.dblp import dblp, hops_rule
from repro.datasets.synthetic_joins import chain_db, chain_query, star_db, star_query
from repro.datasets.tpch import R10_BINDABLE, r10_program, sample_constants, tpch_db
from repro.engine.catalog import Catalog
from repro.experiments.common import SEED, ask, whynot_space

_SHAPES = {"chain": (chain_db, chain_query), "star": (star_db, star_query)}


def _join_shape(
    spark: SparkSession, shape: str, n_joins: int, n_rows: int
) -> tuple[dict[str, DataFrame], Callable[..., Program]]:
    """The ``shape`` query's database at ``n_joins`` joins and its query
    builder, ``(n_joins, n_bound) -> Program``."""
    if shape not in _SHAPES:
        raise ValueError(f"unknown join shape {shape!r}")
    build_db, query = _SHAPES[shape]
    return build_db(spark, n_joins, n_rows=n_rows, key_domain=n_rows, seed=SEED), query


def _missing_answer(catalog: Catalog, program: Program) -> PTuple:
    """The ground p-tuple of the smallest head value below 500 that is
    not a query answer (why-not questions need a missing answer)."""
    existing = {r[0] for r in catalog.answers(program).matching({})}
    for v in range(500):
        if v not in existing:
            return PTuple(program.head_pred, (Const(v),))
    raise ValueError("no missing head value in the key domain")


def _whynot_row(
    catalog: Catalog, program: Program, t: PTuple, k: int, n_s: int, row: dict
) -> dict:
    """``row`` completed with the why-not question ``t``'s derivation
    space and its summary's total time and completeness. A ``prov_size``
    key already in ``row`` keeps its column position."""
    s = ask(catalog, program, PQuestion(t, WHYNOT), k, n_s)
    return {
        **row,
        "prov_size": whynot_space(catalog, program, t),
        "t_total": s.timings["total"],
        "completeness": s.completeness,
    }


def run_join_scaling(
    spark: SparkSession,
    shape: str,
    join_counts: list[int],
    n_rows: int = 1000,
    n_s: int = 100,
    k: int = 3,
) -> list[dict]:
    """Fig. 9a/9b: vary the number of joins of chain/star queries."""
    rows = []
    for m in join_counts:
        db, query = _join_shape(spark, shape, m, n_rows)
        with Catalog(spark, db) as catalog:
            program = query(m)
            row = {
                "shape": shape,
                "n_joins": m,
                "n_vars": len(program.rules[0].vars()),
                "prov_size": None,
                "n_s": n_s,
            }
            t = _missing_answer(catalog, program)
            rows.append(_whynot_row(catalog, program, t, k, n_s, row))
    return rows


def run_bound_vars(
    spark: SparkSession,
    shape: str,
    n_joins: int,
    bound_counts: list[int],
    n_rows: int = 1000,
    n_s: int = 100,
    k: int = 3,
) -> list[dict]:
    """Fig. 9c/9d: fixed join count, vary #variables bound to constants."""
    db, query = _join_shape(spark, shape, n_joins, n_rows)
    rows = []
    with Catalog(spark, db) as catalog:
        for b in bound_counts:
            program = query(n_joins, b)
            row = {
                "shape": shape,
                "n_joins": n_joins,
                "n_bound": b,
                "n_unbound_vars": len(program.rules[0].vars()) - 1,
            }
            t = _missing_answer(catalog, program)
            rows.append(_whynot_row(catalog, program, t, k, n_s, row))
    return rows


def run_dblp_hops(
    spark: SparkSession,
    hop_counts: list[int],
    n_edges: int = 2000,
    n_s: int = 100,
    k: int = 3,
) -> list[dict]:
    """Fig. 9e: vary the path length of the DBLP Hops query."""
    t = parse_ptuple("Hops('xueni pan')")
    rows = []
    with Catalog(spark, dblp(spark, n_edges=n_edges, seed=SEED)) as catalog:
        for h in hop_counts:
            row = {"n_hops": h, "n_edges": n_edges}
            rows.append(_whynot_row(catalog, hops_rule(h), t, k, n_s, row))
    return rows


def run_tpch_bound_vars(
    spark: SparkSession,
    bound_counts: list[int],
    n_rows: int = 1500,
    n_s: int = 100,
    k: int = 3,
) -> list[dict]:
    """Fig. 9f: r10 over TPC-H with a growing number of bound variables
    (the paper binds 0→24 of r10's 29 existential variables)."""
    db = tpch_db(spark, sf=n_rows / 1_500_000, seed=SEED)
    consts = sample_constants(db)
    t = parse_ptuple("Custs(-1, NK)")
    rows = []
    with Catalog(spark, db) as catalog:
        for b in bound_counts:
            if b > len(R10_BINDABLE):
                raise ValueError(f"can bind at most {len(R10_BINDABLE)} variables")
            program = r10_program(b, consts)
            row = {"n_bound": b, "n_existential": len(program.rules[0].vars()) - 2}
            rows.append(_whynot_row(catalog, program, t, k, n_s, row))
    return rows
