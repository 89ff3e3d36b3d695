"""Synthetic DBLP co-author graph for the Hops queries (r9 of Fig. 4).

Schema: DBLP(a, b) — a directed co-author edge relation. The author
'xueni pan' (the Fig. 5 why-not binding) exists but is isolated, so
every Hops(xueni pan) derivation fails at the first goal.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.ast import Program, parse_rule


def hops_rule(n_hops: int) -> Program:
    """Hops(L) :- DBLP(L, R1), DBLP(R1, R2), …, DBLP(R_{n-1}, R_n)."""
    if n_hops < 1:
        raise ValueError("need at least one hop")
    goals = ["DBLP(L, R1)"]
    for i in range(2, n_hops + 1):
        goals.append(f"DBLP(R{i - 1}, R{i})")
    text = f"Hops(L) :- {', '.join(goals)}."
    return Program((parse_rule(text, rule_id=f"hops{n_hops}"),))


def dblp(
    spark: SparkSession, n_edges: int = 5000, n_authors: int = 500, seed: int = 0
) -> dict[str, DataFrame]:
    g = np.random.default_rng(seed)
    # a list, so that authors[0] is a str: Spark cannot infer a column type
    # from numpy.str_ values when it builds the table without Arrow
    authors = [f"auth_{i}" for i in range(n_authors)]
    edges = pd.DataFrame(
        {
            "a": g.choice(authors, n_edges),
            "b": g.choice(authors, n_edges),
        }
    ).drop_duplicates()
    # 'xueni pan' appears only as a co-author *target*, never a source,
    # so Hops(xueni pan) is missing for every path length.
    extra = pd.DataFrame({"a": [authors[0]], "b": ["xueni pan"]})
    edges = pd.concat([edges, extra], ignore_index=True)
    return {"DBLP": spark.createDataFrame(edges)}
