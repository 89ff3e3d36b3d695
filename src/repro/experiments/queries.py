"""Registry of the paper's evaluation queries (Fig. 4) with their why /
why-not provenance-question bindings (Fig. 5), mapped onto the synthetic
datasets of ``repro.datasets``.

Each :class:`QuerySpec` knows how to build its database at a row count,
construct its program, and produce the why / why-not p-tuples. The
"size" parameter scales the primary relation (as the paper's R_x subsets
scale the raw datasets).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from pyspark.sql import DataFrame, SparkSession

from repro.core.ast import Const, Program
from repro.core.unify import WHY, PTuple, parse_ptuple
from repro.datasets.crimes import crimes, r5_program, r6_program
from repro.datasets.dblp import dblp, hops_rule
from repro.datasets.license import license_db, r1_program, r2_program
from repro.datasets.movies import (
    movies,
    r3_program,
    r4_program,
    r11_program,
    r12_program,
)
from repro.datasets.tpch import r10_program, tpch_db
from repro.engine.catalog import Catalog, canonical_sort


@dataclass
class QuerySpec:
    """One evaluation query: dataset builder, program, and PQ bindings.

    ``why`` and ``whynot`` are the question p-tuples; the why question's
    placeholders at ``why_bind`` are bound to an existing answer.
    """

    build_db: Callable[[SparkSession, int, int], dict[str, DataFrame]]
    program: Callable[[], Program]
    why: str
    whynot: str
    why_bind: tuple[int, ...] = ()

    def ptuple(self, catalog: Catalog, program: Program, qtype: str) -> PTuple:
        """The p-tuple of this query's ``qtype`` question on ``catalog``."""
        if qtype == WHY:
            t = parse_ptuple(self.why)
            if self.why_bind:
                t = bind_first_answer(catalog, program, t, self.why_bind)
            return t
        return parse_ptuple(self.whynot)


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


QUERIES: dict[str, QuerySpec] = {
    "r1": QuerySpec(
        build_db=lambda s, n, seed: license_db(s, n=n, seed=seed),
        program=r1_program,
        why="InvalidD(C)",
        whynot="InvalidD('city_0')",
        why_bind=(0,),
    ),
    "r2": QuerySpec(
        build_db=lambda s, n, seed: license_db(s, n=n, seed=seed),
        program=r2_program,
        why="Fsenior(C)",
        whynot="Fsenior('no_such_city')",
        why_bind=(0,),
    ),
    # n is the primary MOVIES row count; satellites scale with it
    "r3": QuerySpec(
        build_db=movies,
        program=r3_program,
        why="CasualWatch(T, 'drama', N)",
        whynot="CasualWatch(T, 'family', N)",
    ),
    "r4": QuerySpec(
        build_db=movies,
        program=r4_program,
        why="Players('jack black')",
        whynot="Players('tom ford')",
    ),
    "r5": QuerySpec(
        build_db=crimes,
        program=r5_program,
        why="CommCrime(T)",
        whynot="CommCrime('ritualism')",
        why_bind=(0,),
    ),
    "r6": QuerySpec(
        build_db=crimes,
        program=r6_program,
        why="CrimeSince(T)",
        whynot="CrimeSince('ritualism')",
        why_bind=(0,),
    ),
    "r9": QuerySpec(
        build_db=lambda s, n, seed: dblp(s, n_edges=n, seed=seed),
        program=lambda: hops_rule(2),
        why="Hops(L)",
        whynot="Hops('xueni pan')",
        why_bind=(0,),
    ),
    "r10": QuerySpec(
        build_db=lambda s, n, seed: tpch_db(s, sf=n / 1_500_000, seed=seed),
        program=r10_program,
        why="Custs(CK, NK)",
        whynot="Custs(-1, NK)",
        why_bind=(0, 1),
    ),
    "r11": QuerySpec(
        build_db=movies,
        program=r11_program,
        why="DirGen('crew_0')",
        whynot="DirGen('robert altman')",
    ),
    "r12": QuerySpec(
        build_db=movies,
        program=r12_program,
        why="TomKey(T, 'mission', E)",
        whynot="TomKey(T, 'spying', E)",
    ),
}
