"""Several DataFrames' rows from one Spark action.

Questions over a UCQ build one plan per rule, and a catalog's first
why-not question needs one domain per variable. :func:`collect_tagged`
runs such independent plans as one ``collect()``, so each question
pays for one action, not one per plan.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def collect_tagged(plans: list[DataFrame]) -> list[list[tuple]]:
    """Every plan's rows from one ``collect()``: the plans' columns are
    prefixed by their index ``i``, a column ``__rule`` = i tags each row,
    and the plans are unioned by name. The tag, not a null, tells the
    rows apart: None is a value a domain may hold. Each plan's rows come
    back in the order its own partitions yield them."""
    tagged = [
        p.select(
            F.lit(i).alias("__rule"),
            *[F.col(c).alias(f"__r{i}_{c}") for c in p.columns],
        )
        for i, p in enumerate(plans)
    ]
    fused = reduce(lambda a, b: a.unionByName(b, allowMissingColumns=True), tagged)
    pos = {c: j for j, c in enumerate(fused.columns)}
    cols = [[pos[f"__r{i}_{c}"] for c in p.columns] for i, p in enumerate(plans)]
    out: list[list[tuple]] = [[] for _ in plans]
    for row in fused.collect():
        i = row[0]
        out[i].append(tuple(row[j] for j in cols[i]))
    return out
