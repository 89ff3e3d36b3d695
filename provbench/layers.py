"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of ``repro.engine``,
``repro.provenance``, ``repro.sampling``, ``repro.patterns`` and
``repro.summarize`` and the Spark actions of ``DataFrame``. Nothing in
``src/`` changes; wrappers replace the function objects wherever a
``repro`` module holds them, so ``pipeline.sample_whynot`` and
``topk.cp_lower`` (names bound by ``from … import``) are traced too.

Layer functions mostly return lazy DataFrames, so their own wall time is
plan building. The work happens in actions (``count``, ``collect``, …);
each action, its wall time ("blocked") and the Spark jobs it launches
are charged to the innermost traced function active when it runs. Jobs
are counted as the delta of the highest job id, which, unlike counting
the ids the status tracker still holds, is not capped by job retention.

A traced function's key is ``<layer>.<name>``: the layer is the
subpackage (``engine``, ``provenance``, ``sampling``, ``patterns``) or,
inside ``repro.summarize``, the module (``pipeline``, ``topk``,
``bounds``, ``metrics``).
"""
from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass, field
from functools import wraps

#: Modules whose public functions are traced.
MODULES = (
    "repro.engine.eval",
    "repro.engine.catalog",
    "repro.provenance.annotate",
    "repro.provenance.why",
    "repro.provenance.whynot_full",
    "repro.sampling.ops",
    "repro.sampling.oversample",
    "repro.sampling.whynot",
    "repro.patterns.lca",
    "repro.patterns.matching",
    "repro.summarize.pipeline",
    "repro.summarize.topk",
    "repro.summarize.bounds",
    "repro.summarize.metrics",
)
#: Public methods traced, per class.
METHODS = {
    "repro.engine.catalog.Catalog": ("domain", "domain_size", "attribute_domain"),
    "repro.summarize.metrics.SampleStore": ("add_rule", "cp_of_pattern", "cp_of_set"),
}
#: Leaf helpers called per bound evaluation or per pattern pair; a wrapper
#: there would cost more than the work and distort the top-k time.
HOT = frozenset({
    "harmonic", "info_of_set", "s_ub", "s_lb", "cp_upper", "comparison_column",
    "goal_column_names", "split_comparisons", "head_projection",
})
#: DataFrame methods that run Spark jobs.
ACTIONS = ("count", "collect", "toPandas", "take", "head", "first", "tail",
           "isEmpty", "show", "toArrow")


@dataclass
class FnStats:
    calls: int = 0
    wall_s: float = 0.0  # inclusive
    self_s: float = 0.0  # minus traced callees and actions
    actions: int = 0
    jobs: int = 0
    blocked_s: float = 0.0  # inside actions charged here


@dataclass
class _Frame:
    key: str
    child_s: float = 0.0


def _layer(module: str) -> str:
    parts = module.split(".")
    return parts[2] if parts[1] == "summarize" else parts[1]


@dataclass
class Tracer:
    """Per-function counters; :meth:`reset` starts a new question."""

    sc: object  # SparkContext
    stats: dict[str, FnStats] = field(default_factory=dict)
    totals: dict[str, FnStats] = field(default_factory=dict)  # over all questions
    module_of: dict[str, str] = field(default_factory=dict)
    rule_samples: list = field(default_factory=list)
    topk_inputs: list[int] = field(default_factory=list)
    topk_pops: list[int] = field(default_factory=list)
    domain_counts: int = 0
    _stack: list[_Frame] = field(default_factory=list)
    _domains: dict[int, object] = field(default_factory=dict)
    _in_action: bool = False
    _undo: list = field(default_factory=list)

    # -- job ids ----------------------------------------------------------
    def last_job_id(self) -> int:
        ids = self.sc.statusTracker().getJobIdsForGroup(None)
        return max(ids) if ids else -1

    # -- wrapping ---------------------------------------------------------
    def _stat(self, key: str) -> FnStats:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = FnStats()
        return st

    def _wrap_fn(self, fn, key: str, module: str):
        tracer = self
        self.module_of[key] = module
        hook = self._hooks().get(fn.__name__)

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(key)
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                st = tracer._stat(key)
                st.calls += 1
                st.wall_s += dt
                st.self_s += dt - frame.child_s
                if tracer._stack:
                    tracer._stack[-1].child_s += dt
            if hook is not None:
                hook(args, kwargs, out)
            return out

        traced.__wrapped_by_tracer__ = fn
        return traced

    def _wrap_action(self, fn):
        tracer = self

        @wraps(fn)
        def action(df, *args, **kwargs):
            if tracer._in_action:  # e.g. first() → head() → take()
                return fn(df, *args, **kwargs)
            tracer._in_action = True
            j0 = tracer.last_job_id()
            t0 = time.perf_counter()
            try:
                return fn(df, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                jobs = tracer.last_job_id() - j0
                tracer._in_action = False
                key = tracer._stack[-1].key if tracer._stack else "runner"
                st = tracer._stat(key)
                st.actions += 1
                st.jobs += jobs
                st.blocked_s += dt
                if tracer._stack:
                    tracer._stack[-1].child_s += dt
                if fn.__name__ == "count" and id(df) in tracer._domains:
                    tracer.domain_counts += 1

        return action

    def _hooks(self):
        return {
            "variable_domain": self._tag_domain,
            "domain": self._tag_domain,
            "sample_whynot_rule": lambda a, k, out: self.rule_samples.append(out),
            "topk_bestfirst": self._search,
        }

    def _tag_domain(self, args, kwargs, df) -> None:
        self._domains[id(df)] = df  # keep it alive so the id stays unique

    def _search(self, args, kwargs, result) -> None:
        patterns = args[0] if args else kwargs["patterns"]
        self.topk_inputs.append(len(patterns))
        self.topk_pops.append(result.pops)

    def install(self, df_class) -> None:
        """Wrap every traced callable in every loaded ``repro`` module."""
        import importlib

        wrappers: dict[int, object] = {}
        for name in MODULES:
            mod = importlib.import_module(name)
            layer = _layer(name)
            for attr, fn in list(vars(mod).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == name
                    and not attr.startswith("_")
                    and attr not in HOT
                ):
                    wrappers[id(fn)] = self._wrap_fn(fn, f"{layer}.{attr}", name)
        for path, methods in METHODS.items():
            modname, cls_name = path.rsplit(".", 1)
            cls = getattr(importlib.import_module(modname), cls_name)
            for m in methods:
                orig = vars(cls)[m]
                key = f"{_layer(modname)}.{cls_name}.{m}"
                self._set(cls, m, self._wrap_fn(orig, key, modname))
        for modname, mod in list(sys.modules.items()):
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and w.__wrapped_by_tracer__ is val:
                    self._set(mod, attr, w)
        for m in ACTIONS:
            if m in vars(df_class):
                self._set(df_class, m, self._wrap_action(vars(df_class)[m]))

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- per-question accounting -----------------------------------------
    def reset(self) -> None:
        for key, st in self.stats.items():
            tot = self.totals.setdefault(key, FnStats())
            for f in vars(st):
                setattr(tot, f, getattr(tot, f) + getattr(st, f))
        self.stats.clear()
        self.rule_samples.clear()
        self.topk_inputs.clear()
        self.topk_pops.clear()
        self._domains.clear()
        self.domain_counts = 0

    def sum(self, field_name: str, *, layer=None, module=None, keys=None) -> float:
        """Total of one FnStats field over the keys of a layer, of a module,
        the given keys, or (no filter) all keys."""

        def hit(key: str) -> bool:
            if keys is not None:
                return key in keys
            if layer is not None:
                return key.split(".", 1)[0] == layer
            if module is not None:
                return self.module_of.get(key) == module
            return True

        return sum(getattr(st, field_name) for key, st in self.stats.items() if hit(key))


def question_metrics(t: Tracer, summary, wall_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``summarize`` call."""
    blocked = t.sum("blocked_s")
    rules = t.rule_samples
    n_s = summary.n_s
    n_cand = summary.n_candidates
    per_rule = summary.per_rule
    timings = summary.timings
    return {
        "traced.question_s": wall_s,
        "spark.jobs": jobs,
        "spark.actions": t.sum("actions"),
        "spark.blocked_s": blocked,
        "driver.self_s": wall_s - blocked,
        "phase.sample_s": timings["sample"],
        "phase.pattern_gen_s": timings["pattern_gen"],
        "phase.metrics_s": timings["metrics"],
        "phase.topk_s": timings["topk"],
        "engine.evaluate.calls": t.sum("calls", keys={"engine.evaluate"}),
        "engine.jobs": t.sum("jobs", layer="engine"),
        "engine.domain.jobs": t.sum("jobs", keys={
            "engine.Catalog.domain", "engine.Catalog.domain_size",
            "engine.Catalog.attribute_domain",
        }),
        "provenance.variable_domain.calls": t.sum(
            "calls", keys={"provenance.variable_domain"}
        ),
        "provenance.annotate.jobs": t.sum("jobs", module="repro.provenance.annotate"),
        "provenance.why.jobs": t.sum("jobs", module="repro.provenance.why"),
        "sampling.jobs": t.sum("jobs", layer="sampling"),
        "sampling.blocked_pct": 100 * t.sum("blocked_s", layer="sampling") / wall_s,
        "sampling.domain_counts": t.domain_counts,
        "sampling.n_os": sum(r.n_os for r in rules),
        "sampling.p_prov": sum(r.p_prov for r in rules) / len(rules) if rules else 0.0,
        "sampling.oversample_ratio": (
            sum(r.n_os for r in rules) / (n_s * len(rules)) if rules else 0.0
        ),
        "sampling.survivor_ratio": (
            sum(r["n_sample"] for r in per_rule) / (n_s * len(per_rule))
            if per_rule else 0.0
        ),
        "patterns.candidates": n_cand,
        "patterns.jobs": t.sum("jobs", layer="patterns"),
        "patterns.blocked_s": t.sum("blocked_s", layer="patterns"),
        "patterns.kept_ratio": sum(t.topk_inputs) / n_cand if n_cand else 0.0,
        "pipeline.jobs": t.sum("jobs", layer="pipeline"),
        "pipeline.blocked_s": t.sum("blocked_s", layer="pipeline"),
        "topk.pops": sum(t.topk_pops),
        "topk.proved_share": 1.0 if summary.proved_optimal else 0.0,
        "bounds.cp_lower.calls": t.sum("calls", keys={"bounds.cp_lower"}),
        "bounds.cp_lower_s": t.sum("wall_s", keys={"bounds.cp_lower"}),
        "metrics.cp_of_set.calls": t.sum("calls", keys={"metrics.SampleStore.cp_of_set"}),
    }
