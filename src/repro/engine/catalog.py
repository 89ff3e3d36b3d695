"""EDB catalog: named relations + per-attribute value domains.

The paper assumes the user specifies the domain 𝔻_A of each attribute A
as a unary query (with "reasonable defaults"). Our default is the active
domain of the attribute — ``SELECT DISTINCT col FROM rel`` — and
variable domains are unions of the domains of the attributes the
variable is bound to (``attrs(X)`` in Sec. 5.2). :meth:`Catalog.set_domain`
overrides 𝔻_A for one attribute; it is the one way to fix a domain, e.g.
Fig. 3's 𝔻 = {1,…,6}.

Domains, the query result Q(D), the goal relations and each rule's
successful derivations depend on the database and the query, not on the
provenance question. The catalog computes each on first use and every
later question reuses it: the collected domains, each Q(D) with its
driver-side :class:`AnswerIndex`, each goal's projection and each base
rule's successful derivations with their count per head, an
:class:`AnswerIndex` too. A question applies its constants as filters on
these relations. The domains a why-not question lacks are
collected together, in one Spark action (:meth:`Catalog.domain_values`).

Questions reach the persisted relations through Spark SQL
(``repro.engine.statement``): each is persisted and registered once as
a temp view, together with Catalyst's size estimate of it, which decides
whether a statement broadcasts it (:meth:`Catalog.result_view`,
:meth:`Catalog.goal_view`, :meth:`Catalog.derivations_view`).
:meth:`Catalog.close` drops those views and unpersists the relations;
a catalog is also a context manager that closes it on exit.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterable, Sequence

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StructField

from repro.core.ast import Atom, Program, Rule, Var
from repro.engine.eval import atom_df, evaluate, successful_derivations
from repro.engine.statement import Statement, View

#: An attribute occurrence: (relation name, 0-based column position).
Occurrence = tuple[str, int]
#: A collected unary domain: its column and its canonically sorted values.
Values = tuple[StructField, tuple]

#: Numbers catalogs, so that their temp views never share a name.
_CATALOG_NO = itertools.count()


def _key(row: Sequence) -> tuple:
    return tuple((v is None, v) for v in row)


def canonical_sort(rows: Iterable[Sequence]) -> list[tuple]:
    """Rows as tuples, sorted column by column with None last: an order
    that depends only on the values, not on how Spark partitioned them."""
    return sorted(map(tuple, rows), key=_key)


class AnswerIndex:
    """Rows that start with a head tuple, on the driver, looked up by the
    values at a set of head positions, as σ_t selects them: Q(D)'s answers
    (:meth:`Catalog.answers`), or a rule's heads each followed by its
    number of derivations (:meth:`Catalog.derivation_counts`)."""

    def __init__(self, rows: Iterable[Sequence]):
        self._rows = [tuple(r) for r in rows]
        self._groups: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}

    def matching(self, bound: dict[int, object]) -> list[tuple]:
        """The rows whose value at each position ``p`` of ``bound`` is
        ``bound[p]``. The rows are grouped once per set of positions."""
        positions = tuple(sorted(bound))
        groups = self._groups.get(positions)
        if groups is None:
            groups = self._groups[positions] = {}
            for row in self._rows:
                groups.setdefault(tuple(row[p] for p in positions), []).append(row)
        return groups.get(tuple(bound[p] for p in positions), [])


class Catalog:
    """Registry of EDB relations (Spark DataFrames) and attribute domains."""

    def __init__(self, spark: SparkSession, tables: dict[str, DataFrame]):
        self.spark = spark
        self._tables = dict(tables)
        self._domain_overrides: dict[Occurrence, DataFrame] = {}
        self._domain_values: dict[Hashable, Values] = {}
        self._answers: dict[Program, AnswerIndex] = {}
        self._counts: dict[Rule, AnswerIndex] = {}
        self._relations: dict[tuple[str, Hashable], tuple[DataFrame, View]] = {}
        self._view_prefix = f"repro_catalog{next(_CATALOG_NO)}_"

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the catalog's temp views and unpersist the relations it
        persisted. Its collected domains stay; a later question persists
        and registers what it needs again."""
        for df, view in self._relations.values():
            self.spark.catalog.dropTempView(view.name)
            df.unpersist()
        self._relations.clear()

    def relation_names(self) -> list[str]:
        return sorted(self._tables)

    def df(self, name: str) -> DataFrame:
        if name not in self._tables:
            raise KeyError(f"unknown relation {name!r}")
        return self._tables[name]

    def columns(self, name: str) -> list[str]:
        return list(self.df(name).columns)

    def column_map(self) -> dict[str, list[str]]:
        """Predicate → column names, the shape ``repro.core.sqlgen`` wants."""
        return {name: self.columns(name) for name in self._tables}

    def set_domain(self, relation: str, pos: int, domain: DataFrame) -> None:
        """Override 𝔻_A for one attribute with a unary DataFrame."""
        if len(domain.columns) != 1:
            raise ValueError("a domain must be a unary DataFrame")
        self._domain_overrides[(relation, pos)] = domain
        self._domain_values.clear()

    def attribute_domain(self, relation: str, pos: int) -> DataFrame:
        """𝔻_A for one attribute as a unary DataFrame named ``value``."""
        override = self._domain_overrides.get((relation, pos))
        if override is not None:
            return override.select(F.col(override.columns[0]).alias("value")).distinct()
        df = self.df(relation)
        col = df.columns[pos]
        return df.select(F.col(col).alias("value")).distinct()

    def domain(self, occurrences: list[Occurrence]) -> DataFrame:
        """Union of attribute domains for a set of occurrences (attrs(X))."""
        if not occurrences:
            raise ValueError("domain requires at least one attribute occurrence")
        doms = [self.attribute_domain(r, p) for r, p in occurrences]
        out = doms[0]
        base_type = out.schema[0].dataType
        for d in doms[1:]:
            out = out.union(d.select(F.col("value").cast(base_type)))
        return out.distinct()

    def domain_values(
        self, plans: dict[Hashable, Callable[[], DataFrame]]
    ) -> dict[Hashable, Values]:
        """Every domain of ``plans`` (key → unary plan): its column and its
        values, canonically sorted.

        The domains the catalog does not hold yet are collected together,
        one SELECT each in one statement and one Spark action; later calls
        reuse them until :meth:`set_domain` changes a domain. A key is
        ``(attrs(X), θ_X)``: the occurrences whose domains the plan unions,
        in order, and the constant comparisons it filters them by, so a
        filtered and an unfiltered domain of one attribute never share an
        entry.
        """
        missing = {k: p() for k, p in plans.items() if k not in self._domain_values}
        if missing:
            stmt = Statement(self.spark)
            for df in missing.values():
                stmt.add(f"SELECT * FROM {stmt.frame(df)}", 1)
            for (key, df), rows in zip(missing.items(), stmt.collect()):
                values = tuple(r[0] for r in canonical_sort(rows))
                self._domain_values[key] = df.schema[0], values
        return {k: self._domain_values[k] for k in plans}

    def domain_size(self, occurrences: list[Occurrence]) -> int:
        key = (tuple(occurrences), ())
        values = self.domain_values({key: lambda: self.domain(occurrences)})
        return len(values[key][1])

    def answers(self, program: Program) -> AnswerIndex:
        """Q(D)'s answers on the driver, collected once by
        :meth:`result_view`."""
        self.result_view(program)
        return self._answers[program]

    def derivation_counts(self, rule: Rule) -> AnswerIndex | None:
        """The count index of ``rule``'s successful derivations: a row
        ``(h0 … h{n-1}, count)`` per head they derive, or None until
        :meth:`set_derivation_counts` stored it."""
        return self._counts.get(rule)

    def set_derivation_counts(self, rule: Rule, rows: Iterable[Sequence]) -> None:
        """Store ``rule``'s count index, collected by a question's
        statement from :meth:`derivations_view` (the rows depend on the
        database and the rule alone)."""
        self._counts[rule] = AnswerIndex(rows)

    def _relation(
        self, kind: str, key: Hashable, plan: Callable[[], DataFrame]
    ) -> View:
        """The view of the relation ``plan()`` persists: on the first use
        of ``(kind, key)`` registered as a temp view together with
        Catalyst's size estimate of it, then reused. An evicted cache
        entry is recomputed by Spark."""
        entry = self._relations.get((kind, key))
        if entry is None:
            df = plan()
            name = f"{self._view_prefix}{len(self._relations)}"
            df.createOrReplaceTempView(name)
            size = df._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()
            entry = self._relations[(kind, key)] = df, View(name, int(size))
        return entry[1]

    def _persist_per_core(self, df: DataFrame) -> DataFrame:
        """``df`` persisted in one partition per core: Spark does not
        coalesce a cached plan's shuffle partitions, and every question
        scans them all."""
        return df.coalesce(self.spark.sparkContext.defaultParallelism).persist()

    def result_view(self, program: Program) -> View:
        """The view of Q(D) for ``program``, columns ``h0 … h{n-1}``.

        On first use Q(D) is persisted and its answers are collected to
        the driver (:meth:`answers`) before its size is read, so the
        estimate is the size of the cached rows, not of the plan.
        """
        def plan() -> DataFrame:
            df = evaluate(self, program).persist()
            self._answers[program] = AnswerIndex(df.collect())
            return df

        return self._relation("result", program, plan)

    def goal_view(self, atom: Atom) -> View:
        """The view of the distinct bindings of ``atom``'s variables
        (:func:`atom_df` of its positive form); ``atom``'s sign is ignored.

        Goal annotation asks for the *base* rule's atoms, which no question
        changes, and applies a question's constants as filters on the
        view, so one entry serves every question.
        """
        key = Atom(atom.pred, atom.args)
        return self._relation(
            "goal", key, lambda: self._persist_per_core(atom_df(self, key))
        )

    def derivations_view(self, rule: Rule) -> View:
        """The view of :func:`successful_derivations` of ``rule``.

        Why capture asks for the *base* rule, which no question changes,
        and applies a question's constants as filters on the view, so one
        entry serves every question.
        """
        return self._relation(
            "derivations", rule,
            lambda: self._persist_per_core(successful_derivations(self, rule)),
        )


def attrs_of_vars(rule: Rule) -> dict[Var, list[Occurrence]]:
    """``attrs(X)`` for each variable: attribute occurrences binding X.

    Follows Sec. 5.2 — every literal (positive or negated) in which X
    appears contributes its (relation, position) pairs.
    """
    out: dict[Var, list[Occurrence]] = {}
    for atom in rule.body:
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Var):
                occs = out.setdefault(arg, [])
                if (atom.pred, pos) not in occs:
                    occs.append((atom.pred, pos))
    return out
