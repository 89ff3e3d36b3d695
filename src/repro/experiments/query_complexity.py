"""T9 (Fig. 9): summarization runtime vs query complexity — number of
joins (chain/star), number of bound variables, DBLP path length, and
TPC-H r10 with a growing number of bound existential variables.

All runs are why-not questions (as in the paper) with top-3 summaries.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.unify import WHYNOT, PQuestion, parse_ptuple
from repro.datasets.dblp import dblp, hops_rule
from repro.datasets.synthetic_joins import chain_db, chain_query, star_db, star_query
from repro.datasets.tpch import R10_BINDABLE, r10_program, sample_constants, tpch_db
from repro.engine.catalog import Catalog
from repro.experiments.common import whynot_space
from repro.summarize.pipeline import summarize


def _missing_head_value(catalog: Catalog, program, domain: int) -> int:
    """A head value with no derivation succeeding: any value not in the
    query answers (why-not questions need a missing answer)."""
    existing = {r[0] for r in catalog.answers(program).matching({})}
    for v in range(domain):
        if v not in existing:
            return v
    raise ValueError("no missing head value in the key domain")


def run_join_scaling(
    spark: SparkSession,
    shape: str,
    join_counts: list[int],
    n_rows: int = 1000,
    n_s: int = 100,
    k: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Fig. 9a/9b: vary the number of joins of chain/star queries."""
    rows = []
    for m in join_counts:
        if shape == "chain":
            db = chain_db(spark, m, n_rows=n_rows, key_domain=n_rows, seed=seed)
            program = chain_query(m)
        elif shape == "star":
            db = star_db(spark, m, n_rows=n_rows, key_domain=n_rows, seed=seed)
            program = star_query(m)
        else:
            raise ValueError(f"unknown join shape {shape!r}")
        with Catalog(spark, db) as catalog:
            head = program.rules[0].head.pred
            v = _missing_head_value(catalog, program, 500)
            t = parse_ptuple(f"{head}({v})")
            s = summarize(
                catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s, seed=seed
            )
            rows.append(
                {
                    "shape": shape,
                    "n_joins": m,
                    "n_vars": len(program.rules[0].vars()),
                    "prov_size": whynot_space(catalog, program, t),
                    "n_s": n_s,
                    "t_total": s.timings["total"],
                    "completeness": s.completeness,
                }
            )
    return rows


def run_bound_vars(
    spark: SparkSession,
    shape: str,
    n_joins: int,
    bound_counts: list[int],
    n_rows: int = 1000,
    n_s: int = 100,
    k: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Fig. 9c/9d: fixed join count, vary #variables bound to constants."""
    if shape == "chain":
        db = chain_db(spark, n_joins, n_rows=n_rows, key_domain=n_rows, seed=seed)
    elif shape == "star":
        db = star_db(spark, n_joins, n_rows=n_rows, key_domain=n_rows, seed=seed)
    else:
        raise ValueError(f"unknown join shape {shape!r}")
    catalog = Catalog(spark, db)
    rows = []
    for b in bound_counts:
        program = (
            chain_query(n_joins, b) if shape == "chain" else star_query(n_joins, b)
        )
        head = program.rules[0].head.pred
        v = _missing_head_value(catalog, program, 500)
        t = parse_ptuple(f"{head}({v})")
        s = summarize(
            catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s, seed=seed
        )
        rows.append(
            {
                "shape": shape,
                "n_joins": n_joins,
                "n_bound": b,
                "n_unbound_vars": len(program.rules[0].vars()) - 1,
                "prov_size": whynot_space(catalog, program, t),
                "t_total": s.timings["total"],
                "completeness": s.completeness,
            }
        )
    return rows


def run_dblp_hops(
    spark: SparkSession,
    hop_counts: list[int],
    n_edges: int = 2000,
    n_s: int = 100,
    k: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Fig. 9e: vary the path length of the DBLP Hops query."""
    db = dblp(spark, n_edges=n_edges, seed=seed)
    catalog = Catalog(spark, db)
    rows = []
    for h in hop_counts:
        program = hops_rule(h)
        t = parse_ptuple("Hops('xueni pan')")
        s = summarize(
            catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s, seed=seed
        )
        rows.append(
            {
                "n_hops": h,
                "n_edges": n_edges,
                "prov_size": whynot_space(catalog, program, t),
                "t_total": s.timings["total"],
                "completeness": s.completeness,
            }
        )
    return rows


def run_tpch_bound_vars(
    spark: SparkSession,
    bound_counts: list[int],
    n_rows: int = 1500,
    n_s: int = 100,
    k: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Fig. 9f: r10 over TPC-H with a growing number of bound variables
    (the paper binds 0→24 of r10's 29 existential variables)."""
    db = tpch_db(spark, sf=n_rows / 1_500_000, seed=seed)
    catalog = Catalog(spark, db)
    consts = sample_constants(db)
    rows = []
    for b in bound_counts:
        if b > len(R10_BINDABLE):
            raise ValueError(f"can bind at most {len(R10_BINDABLE)} variables")
        program = r10_program(b, consts)
        t = parse_ptuple("Custs(-1, NK)")
        s = summarize(
            catalog, program, PQuestion(t, WHYNOT), k=k, n_s=n_s, seed=seed
        )
        rows.append(
            {
                "n_bound": b,
                "n_existential": len(program.rules[0].vars()) - 2,
                "prov_size": whynot_space(catalog, program, t),
                "t_total": s.timings["total"],
                "completeness": s.completeness,
            }
        )
    return rows
