"""T10 (Fig. 10): relative quality-metric error introduced by sampling.

For a sampled top-k summary, its sample-estimated completeness/score is
compared against the same summary's metrics evaluated on a *reference*
provenance: the FULL provenance for why questions, the largest sample
for why-not questions (where FULL is infeasible — the paper does the
same). Relative error = |estimate − reference| / reference.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.ast import Var
from repro.core.unify import WHY, PQuestion, PTuple
from repro.experiments.common import SEED, ask, open_question
from repro.summarize.metrics import harmonic, info_of_set
from repro.summarize.pipeline import pattern_inputs


def run_quality_error(
    spark: SparkSession,
    query: str,
    qtype: str,
    n: int,
    sample_sizes: list[int],
    ks: list[int],
    reference_n_s: int = 5000,
    unbound_why: bool = False,
) -> list[dict]:
    """One row per (sample size, k) with completeness and score errors.

    ``unbound_why`` asks the all-placeholder why question (provenance =
    all successful derivations) so the provenance is large enough for
    sampling error to be observable at small datasets.
    """
    rows = []
    with open_question(spark, query, n, qtype) as (catalog, program, question):
        if qtype == WHY and unbound_why:
            head = program.rules[0].head
            t = PTuple(head.pred, tuple(Var(f"P{i}") for i in range(head.arity)))
            question = PQuestion(t, WHY)

        # reference store: FULL provenance for why, largest sample for why-not
        ref_n_s = 1 << 30 if qtype == WHY else reference_n_s
        ref_store = pattern_inputs(
            catalog, program, question, n_s=ref_n_s, seed=SEED + 777
        ).store

        for n_s in sample_sizes:
            for k in ks:
                s = ask(catalog, program, question, k, n_s)
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
