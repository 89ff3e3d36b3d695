"""T10 (Fig. 10): relative quality-metric error introduced by sampling.

For a sampled top-k summary, its sample-estimated completeness/score is
compared against the same summary's metrics evaluated on a *reference*
provenance: the FULL provenance for why questions, the largest sample
for why-not questions (where FULL is infeasible — the paper does the
same). Relative error = |estimate − reference| / reference.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.unify import WHY, PQuestion
from repro.engine.catalog import Catalog
from repro.experiments.queries import QUERIES
from repro.summarize.metrics import harmonic, info_of_set
from repro.summarize.pipeline import pattern_inputs, summarize


def run_quality_error(
    spark: SparkSession,
    query: str,
    qtype: str,
    n: int,
    sample_sizes: list[int],
    ks: list[int],
    reference_n_s: int = 5000,
    seed: int = 0,
    unbound_why: bool = False,
) -> list[dict]:
    """One row per (sample size, k) with completeness and score errors.

    ``unbound_why`` asks the all-placeholder why question (provenance =
    all successful derivations) so the provenance is large enough for
    sampling error to be observable at small datasets.
    """
    from repro.core.unify import PTuple
    from repro.core.ast import Var

    spec = QUERIES[query]
    db = spec.build_db(spark, n, seed)
    catalog = Catalog(spark, db)
    program = spec.program()
    if qtype == WHY and unbound_why:
        head = program.rules[0].head
        t = PTuple(
            head.pred, tuple(Var(f"P{i}") for i in range(head.arity))
        )
    else:
        t = spec.ptuple(catalog, program, qtype)
    question = PQuestion(t, qtype)

    # reference store: FULL provenance for why, largest sample for why-not
    if qtype == WHY:
        ref = pattern_inputs(
            catalog, program, question, n_s=1 << 30, seed=seed + 777
        )
    else:
        ref = pattern_inputs(
            catalog, program, question, n_s=reference_n_s, seed=seed + 777
        )
    ref_store = ref.store

    rows = []
    for n_s in sample_sizes:
        for k in ks:
            s = summarize(
                catalog, program, question, k=k, n_s=n_s, seed=seed
            )
            est_cp, est_sc = s.completeness, s.score
            ref_cp = ref_store.cp_of_set(s.patterns)
            ref_sc = harmonic(ref_cp, info_of_set(s.patterns))
            rows.append(
                {
                    "query": query,
                    "qtype": qtype,
                    "n_rows": n,
                    "n_s": n_s,
                    "k": k,
                    "cp_est": est_cp,
                    "cp_ref": ref_cp,
                    "cp_rel_err": (
                        abs(est_cp - ref_cp) / ref_cp if ref_cp else 0.0
                    ),
                    "sc_est": est_sc,
                    "sc_ref": ref_sc,
                    "sc_rel_err": (
                        abs(est_sc - ref_sc) / ref_sc if ref_sc else 0.0
                    ),
                }
            )
    return rows
