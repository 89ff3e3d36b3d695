"""The benchmark's workloads: a database, a program and a question stream.

Every workload builds its database with generator seed 0. The workload
seed only draws the question stream: each question's sampling seed and,
for ``whynot_r1``, which missing city it asks about.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: Cities whose licenses are all valid in ``license_db``: missing InvalidD answers.
_MISSING_CITIES = tuple(f"InvalidD('city_{j}')" for j in range(0, 40, 7))


@dataclass(frozen=True)
class Workload:
    name: str
    query: str  # key of repro.experiments.queries.QUERIES
    rows: int  # size of the primary relation
    qtype: str  # "why" or "whynot"
    ptuples: tuple[str, ...]  # the seed picks one per question
    n_s: int
    k: int = 3

    def questions(self, seed: int) -> Iterator[tuple[str, int]]:
        """Endless (p-tuple, sampling seed) stream drawn from ``seed``."""
        rng = random.Random(seed)
        while True:
            yield rng.choice(self.ptuples), rng.randrange(1_000_000)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("whynot_r1", "r1", 1_000, "whynot", _MISSING_CITIES, n_s=100),
        Workload("why_r1", "r1", 10_000, "why", ("InvalidD(C)",), n_s=1_000),
        # ~2 min per run (515 Spark jobs per question, 60 s cold): run by
        # hand, not part of BENCHMARK.json.
        Workload("whynot_r4_union", "r4", 500, "whynot", ("Players('tom ford')",), n_s=100),
    )
}
