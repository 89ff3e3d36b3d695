"""Rows between the driver and Spark, in one transfer each way.

A catalog's first why-not question needs one domain per variable.
:func:`collect_tagged` runs such independent DataFrame plans as one
``collect()``, so the question pays for one action, not one per plan
(a question's own plan is one Spark SQL statement, see
``repro.engine.statement``). :func:`local_frame` is the other
direction: rows drawn on the driver go back to Spark as a local relation
built from an Arrow table, not as a pickled Python RDD.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import reduce

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import StructType


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


def local_frame(
    spark: SparkSession, rows: Sequence[Sequence], schema: StructType
) -> DataFrame:
    """``rows`` (tuples in ``schema``'s column order, None for null) as a
    DataFrame that Spark plans as a ``LocalRelation``.

    The rows go over as one Arrow table, which ``collect()`` turns back
    into the same values. Timestamp columns are built timezone-naive:
    PySpark reads those in the session time zone, as ``collect()``
    returns them, where a UTC-typed column would shift naive values by
    the zone's offset.
    """
    arrow = to_arrow_schema(schema, timestamp_utc=False)
    columns = list(zip(*rows)) if rows else [()] * len(arrow)
    table = pa.Table.from_arrays(
        [pa.array(c, type=f.type) for c, f in zip(columns, arrow)], schema=arrow
    )
    return spark.createDataFrame(table, schema)
