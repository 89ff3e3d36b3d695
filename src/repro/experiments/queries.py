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
from typing import Callable

from pyspark.sql import DataFrame, SparkSession

from repro.core.ast import Program
from repro.core.unify import WHY, PTuple, parse_ptuple
import repro.datasets.crimes as crimes_mod  # noqa: I001
import repro.datasets.dblp as dblp_mod
import repro.datasets.license as license_mod
import repro.datasets.movies as movies_mod
import repro.datasets.tpch as tpch_mod
import sys

# `from repro.datasets import movies` in the package __init__ shadows the
# submodule attribute with the generator function; resolve the actual
# modules from sys.modules to be safe against that collision.
crimes_mod = sys.modules["repro.datasets.crimes"]
dblp_mod = sys.modules["repro.datasets.dblp"]
license_mod = sys.modules["repro.datasets.license"]
movies_mod = sys.modules["repro.datasets.movies"]
tpch_mod = sys.modules["repro.datasets.tpch"]
from repro.engine.catalog import Catalog
from repro.experiments.common import bind_first_answer


@dataclass
class QuerySpec:
    """One evaluation query: dataset builder, program, and PQ bindings.

    ``why`` and ``whynot`` are the question p-tuples; the why question's
    placeholders at ``why_bind`` are bound to an existing answer.
    """

    name: str
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


def _movies_db(spark: SparkSession, n: int, seed: int) -> dict[str, DataFrame]:
    # n is the primary MOVIES row count; satellites scale with it
    return movies_mod.movies(spark, n_movies=n, seed=seed)


QUERIES: dict[str, QuerySpec] = {
    "r1": QuerySpec(
        name="r1",
        build_db=lambda s, n, seed: license_mod.license_db(s, n=n, seed=seed),
        program=license_mod.r1_program,
        why="InvalidD(C)",
        whynot="InvalidD('city_0')",
        why_bind=(0,),
    ),
    "r2": QuerySpec(
        name="r2",
        build_db=lambda s, n, seed: license_mod.license_db(s, n=n, seed=seed),
        program=license_mod.r2_program,
        why="Fsenior(C)",
        whynot="Fsenior('no_such_city')",
        why_bind=(0,),
    ),
    "r3": QuerySpec(
        name="r3",
        build_db=_movies_db,
        program=movies_mod.r3_program,
        why="CasualWatch(T, 'drama', N)",
        whynot="CasualWatch(T, 'family', N)",
    ),
    "r4": QuerySpec(
        name="r4",
        build_db=_movies_db,
        program=movies_mod.r4_program,
        why="Players('jack black')",
        whynot="Players('tom ford')",
    ),
    "r5": QuerySpec(
        name="r5",
        build_db=lambda s, n, seed: crimes_mod.crimes(s, n=n, seed=seed),
        program=crimes_mod.r5_program,
        why="CommCrime(T)",
        whynot="CommCrime('ritualism')",
        why_bind=(0,),
    ),
    "r6": QuerySpec(
        name="r6",
        build_db=lambda s, n, seed: crimes_mod.crimes(s, n=n, seed=seed),
        program=crimes_mod.r6_program,
        why="CrimeSince(T)",
        whynot="CrimeSince('ritualism')",
        why_bind=(0,),
    ),
    "r9": QuerySpec(
        name="r9",
        build_db=lambda s, n, seed: dblp_mod.dblp(s, n_edges=n, seed=seed),
        program=lambda: dblp_mod.hops_rule(2),
        why="Hops(L)",
        whynot="Hops('xueni pan')",
        why_bind=(0,),
    ),
    "r10": QuerySpec(
        name="r10",
        build_db=lambda s, n, seed: tpch_mod.tpch_db(
            s, sf=n / 1_500_000, seed=seed
        ),
        program=tpch_mod.r10_program,
        why="Custs(CK, NK)",
        whynot="Custs(-1, NK)",
        why_bind=(0, 1),
    ),
    "r11": QuerySpec(
        name="r11",
        build_db=_movies_db,
        program=movies_mod.r11_program,
        why="DirGen('crew_0')",
        whynot="DirGen('robert altman')",
    ),
    "r12": QuerySpec(
        name="r12",
        build_db=_movies_db,
        program=movies_mod.r12_program,
        why="TomKey(T, 'mission', E)",
        whynot="TomKey(T, 'spying', E)",
    ),
}
