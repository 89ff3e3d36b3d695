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
rule's successful derivations. A question applies its constants as
filters on these relations. The domains a why-not question lacks are
collected together, in one Spark action (:meth:`Catalog.fill_domains`).

Questions reach the persisted relations through Spark SQL
(``repro.engine.statement``): each is registered once as a temp view,
together with Catalyst's size estimate of it, which decides whether a
statement broadcasts it (:meth:`Catalog.goal_view`,
:meth:`Catalog.result_view`, :meth:`Catalog.derivations_view`).
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
from repro.engine.statement import View
from repro.engine.tagged import collect_tagged

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


def collect_values(df: DataFrame) -> Values:
    """A unary DataFrame's column and its values, canonically sorted."""
    return _values(df, df.collect())


def _values(df: DataFrame, rows: Iterable[Sequence]) -> Values:
    return df.schema[0], tuple(r[0] for r in canonical_sort(rows))


class AnswerIndex:
    """Q(D)'s answers (head tuples) on the driver, looked up by the values
    at a set of head positions, as σ_t selects them."""

    def __init__(self, rows: Iterable[Sequence]):
        self._rows = [tuple(r) for r in rows]
        self._groups: dict[tuple[int, ...], dict[tuple, list[tuple]]] = {}

    def matching(self, bound: dict[int, object]) -> list[tuple]:
        """The answers whose value at each position ``p`` of ``bound`` is
        ``bound[p]``. The answers are grouped once per set of positions."""
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
        self._results: dict[Program, DataFrame] = {}
        self._answers: dict[Program, AnswerIndex] = {}
        self._goals: dict[Atom, DataFrame] = {}
        self._derivations: dict[Rule, DataFrame] = {}
        self._views: dict[Hashable, View] = {}
        self._view_prefix = f"repro_catalog{next(_CATALOG_NO)}_"

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the catalog's temp views and unpersist the relations it
        persisted. Its collected domains and answer indexes stay; a later
        question persists and registers what it needs again."""
        for view in self._views.values():
            self.spark.catalog.dropTempView(view.name)
        for cache in (self._results, self._goals, self._derivations):
            for df in cache.values():
                df.unpersist()
            cache.clear()
        self._views.clear()

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

    def domain_values(self, key: Hashable, plan: Callable[[], DataFrame]) -> Values:
        """The unary domain ``plan()``, collected and canonically sorted
        the first time ``key`` is asked for, then reused until
        :meth:`set_domain` changes a domain.

        ``key`` is ``(attrs(X), θ_X)``: the occurrences whose domains
        ``plan`` unions, in order, and the constant comparisons it
        filters them by, so a filtered and an unfiltered domain of one
        attribute never share an entry.
        """
        hit = self._domain_values.get(key)
        if hit is None:
            hit = self._domain_values[key] = collect_values(plan())
        return hit

    def fill_domains(self, plans: dict[Hashable, Callable[[], DataFrame]]) -> None:
        """Collect every domain of ``plans`` (key → plan, as in
        :meth:`domain_values`) that the catalog does not hold yet, all in
        one Spark action; later :meth:`domain_values` calls find them."""
        missing = {k: p() for k, p in plans.items() if k not in self._domain_values}
        if missing:
            dfs = list(missing.values())
            for key, df, rows in zip(missing, dfs, collect_tagged(dfs)):
                self._domain_values[key] = _values(df, rows)

    def domain_size(self, occurrences: list[Occurrence]) -> int:
        key = (tuple(occurrences), ())
        return len(self.domain_values(key, lambda: self.domain(occurrences))[1])

    def result(self, program: Program) -> DataFrame:
        """Q(D) for ``program``: evaluated and persisted on first use,
        then reused. An evicted cache entry is recomputed by Spark."""
        df = self._results.get(program)
        if df is None:
            df = self._results[program] = evaluate(self, program).persist()
        return df

    def answers(self, program: Program) -> AnswerIndex:
        """Q(D)'s answers on the driver: collected from :meth:`result` on
        first use (which also fills its cache), then reused."""
        index = self._answers.get(program)
        if index is None:
            index = self._answers[program] = AnswerIndex(self.result(program).collect())
        return index

    def _persisted(
        self, cache: dict, key: Hashable, plan: Callable[[], DataFrame]
    ) -> DataFrame:
        """``cache[key]``, filled on first use with ``plan()`` persisted.

        The entry keeps one partition per core: Spark does not coalesce a
        cached plan's shuffle partitions, and every question scans them
        all.
        """
        df = cache.get(key)
        if df is None:
            cores = self.spark.sparkContext.defaultParallelism
            df = cache[key] = plan().coalesce(cores).persist()
        return df

    def goal_projection(self, atom: Atom) -> DataFrame:
        """The distinct bindings of ``atom``'s variables (:func:`atom_df` of
        its positive form), persisted on first use, then reused.

        Goal annotation asks for the *base* rule's atoms, which no question
        changes, and applies a question's constants as filters on the
        result, so one entry serves every question.
        """
        key = Atom(atom.pred, atom.args)
        return self._persisted(self._goals, key, lambda: atom_df(self, key))

    def derivations(self, rule: Rule) -> DataFrame:
        """:func:`successful_derivations` of ``rule``, persisted on first
        use, then reused.

        Why capture asks for the *base* rule, which no question changes,
        and applies a question's constants as filters on the result, so
        one entry serves every question.
        """
        return self._persisted(
            self._derivations, rule, lambda: successful_derivations(self, rule)
        )

    def _view(self, key: Hashable, df: DataFrame) -> View:
        """The temp view of the persisted ``df``, registered on first use
        together with Catalyst's size estimate of ``df``."""
        view = self._views.get(key)
        if view is None:
            name = f"{self._view_prefix}{len(self._views)}"
            df.createOrReplaceTempView(name)
            size = df._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()
            view = self._views[key] = View(name, int(size))
        return view

    def goal_view(self, atom: Atom) -> View:
        """The view of :meth:`goal_projection`; ``atom``'s sign is ignored."""
        key = Atom(atom.pred, atom.args)
        return self._view(("goal", key), self.goal_projection(key))

    def result_view(self, program: Program) -> View:
        """The view of :meth:`result`, Q(D) with columns ``h0 … h{n-1}``."""
        return self._view(("result", program), self.result(program))

    def derivations_view(self, rule: Rule) -> View:
        """The view of :meth:`derivations`."""
        return self._view(("derivations", rule), self.derivations(rule))


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
