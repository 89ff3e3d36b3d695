"""A question's Spark plan as one Spark SQL statement.

Each rule of a question contributes one SELECT: why capture's n_S cut,
or why-not's θ_join filter, Q_der anti-join and goal annotation (Sec.
5.2). :class:`Statement` gathers those SELECTs, the question's constants
as named parameters of ``spark.sql`` and the DataFrames its formatter
registers, and :meth:`Statement.collect` runs every SELECT as one
``UNION ALL`` with one ``collect()``. Building the text costs no py4j
round trip; Catalyst parses and plans it once. The catalog collects the
domains a question lacks the same way, one SELECT per domain.

Relations the catalog persisted appear under the temp views the catalog
registered for them (:class:`View`), never as formatter DataFrames: the
formatter drops the views it registers once the statement is analysed,
and dropping a view uncaches the plan behind it. Only plans that are not
persisted go through the formatter: the domain plans and the bindings a
question draws on the driver, which go back to Spark as a local relation
built from an Arrow table (:func:`local_frame`), not as a pickled Python
RDD.

A join partner that is a :class:`View` gets a ``BROADCAST`` hint when
Catalyst's size estimate of it is at most :data:`BROADCAST_LIMIT`, Spark's
default ``autoBroadcastJoinThreshold``; a larger relation keeps the
shuffle join, so the driver never has to hold it.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import StructType

from repro.core.ast import Comparison, Term, Var

#: Largest size estimate, in bytes, of a relation that is broadcast (10 MiB).
BROADCAST_LIMIT = 10 * 1024 * 1024

_OP_SQL = {"<": "<", "<=": "<=", "!=": "<>", ">=": ">=", ">": ">", "=": "="}


def quote(name: str) -> str:
    """``name`` as a Spark SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


def where(conditions: list[str]) -> str:
    """A ``WHERE`` clause of the conjunction of ``conditions``, or nothing."""
    return " WHERE " + " AND ".join(conditions) if conditions else ""


@dataclass(frozen=True)
class View:
    """A persisted relation's temp view and Catalyst's size estimate of it."""

    name: str
    size: int  # bytes

    @property
    def broadcast(self) -> bool:
        return self.size <= BROADCAST_LIMIT


def hint(partners: list[tuple[str, View]]) -> str:
    """The ``BROADCAST`` hint for the aliases whose view is small enough."""
    small = [alias for alias, view in partners if view.broadcast]
    return f"/*+ BROADCAST({', '.join(small)}) */ " if small else ""


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


class Statement:
    """The SELECTs of one question's rules, or of the domains a catalog
    collects, and the parameters they share."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.args: dict[str, object] = {}
        self.frames: dict[str, DataFrame] = {}
        self.selects: list[tuple[str, int]] = []

    def param(self, value: object) -> str:
        """A named parameter marker bound to ``value``."""
        name = f"p{len(self.args)}"
        self.args[name] = value
        return ":" + name

    def frame(self, df: DataFrame) -> str:
        """A placeholder that the formatter replaces by a temp view of
        ``df``; for relations that are not persisted."""
        name = f"f{len(self.frames)}"
        self.frames[name] = df
        return "{" + name + "}"

    def term(self, t: Term) -> str:
        return quote(t.name) if isinstance(t, Var) else self.param(t.value)

    def comparison(self, c: Comparison) -> str:
        return f"{self.term(c.left)} {_OP_SQL[c.op]} {self.term(c.right)}"

    def dataframe(self, select: str) -> DataFrame:
        """One SELECT of this statement as a DataFrame."""
        return self.spark.sql(select, self.args, **self.frames)

    def add(self, select: str, width: int) -> None:
        """Add one SELECT, whose rows have ``width`` columns."""
        self.selects.append((select, width))

    def collect(self) -> list[list[tuple]]:
        """Every added SELECT's rows from one ``collect()``.

        Branch ``i`` of the ``UNION ALL`` tags its rows with ``i`` and
        pads the other branches' columns with NULL; the tag, not a null,
        tells the rows apart, since None is a value a row may hold.
        """
        if not self.selects:
            return []
        starts, branches = [], []
        for i, (select, width) in enumerate(self.selects):
            starts.append(1 + sum(w for _, w in self.selects[:i]))
            cols = [f"{i} AS __branch"]
            for j, (_, w) in enumerate(self.selects):
                if j == i:
                    cols.append("t.*")
                else:
                    cols.extend(f"NULL AS __pad{j}_{k}" for k in range(w))
            branches.append(f"SELECT {', '.join(cols)} FROM ({select}) t")
        out: list[list[tuple]] = [[] for _ in self.selects]
        for row in self.dataframe(" UNION ALL ".join(branches)).collect():
            i = row[0]
            out[i].append(tuple(row[starts[i]:starts[i] + self.selects[i][1]]))
        return out
