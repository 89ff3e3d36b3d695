"""The benchmark's layer tracer names ``repro`` modules, methods and
DataFrame actions as strings, and its runner and checks import and call
``repro`` functions; a rename or a removed parameter in ``src/`` would
only show when a benchmark run crashes. These tests read the benchmark's
files and check that every name they use still exists, every keyword
they pass is still a parameter and every ``Summary`` attribute they read
is still a field. No Spark session is started."""
import ast
import dataclasses
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest
from pyspark.sql import DataFrame

LAYERS = Path(__file__).resolve().parents[1] / "provbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    # compiled in memory, so no bytecode is written next to the benchmark
    mod = types.ModuleType("provbench_layers")
    sys.modules[mod.__name__] = mod  # dataclasses look their module up
    try:
        exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), mod.__dict__)
        yield mod
    finally:
        del sys.modules[mod.__name__]


def test_modules_import(layers):
    for name in layers.MODULES:
        importlib.import_module(name)


def test_methods_exist(layers):
    for path, methods in layers.METHODS.items():
        modname, cls_name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(modname), cls_name)
        for m in methods:
            assert callable(vars(cls)[m]), path + "." + m


def test_hooks_name_traced_functions(layers):
    """A hook runs when the tracer's wrapper of the function it names
    returns; a key that names no traced function never runs, and the
    metrics it feeds read 0 instead of failing."""
    traced = set()
    for name in layers.MODULES:
        mod = importlib.import_module(name)
        traced |= {
            attr
            for attr, fn in vars(mod).items()
            if isinstance(fn, types.FunctionType)
            and fn.__module__ == name
            and not attr.startswith("_")
            and attr not in layers.HOT
        }
    for methods in layers.METHODS.values():
        traced |= set(methods)
    hooks = layers.Tracer(None)._hooks()
    assert hooks and set(hooks) <= traced, set(hooks) - traced


def test_actions_are_dataframe_methods(layers):
    for name in layers.ACTIONS:
        assert callable(getattr(DataFrame, name)), name


#: The benchmark files that import ``repro``, read as text: never executed.
BENCH_FILES = [LAYERS.with_name(n) for n in ("run.py", "checks.py", "layers.py")]


def _repro_imports(tree: ast.Module) -> dict[str, object]:
    """Every ``from repro… import name`` in ``tree``: the bound name and
    the object it names."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
                out[alias.asname or alias.name] = getattr(mod, alias.name)
    return out


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_imported_names_exist_and_take_the_keywords_used(path):
    tree = ast.parse(path.read_text(), str(path))
    names = _repro_imports(tree)
    for node in ast.walk(tree):
        # name(...) or module.name(...) where the name comes from repro
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            fn = names[f.id]
        elif (
            isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and isinstance(names.get(f.value.id), types.ModuleType)
        ):
            mod = names[f.value.id]
            assert hasattr(mod, f.attr), f"{mod.__name__}.{f.attr}"
            fn = getattr(mod, f.attr)
        else:
            continue
        if callable(fn):
            params = inspect.signature(fn).parameters
            for kw in node.keywords:
                if kw.arg is not None:
                    assert kw.arg in params, f"{path.name}: {fn.__name__}({kw.arg}=…)"


def test_summary_has_every_attribute_the_benchmark_reads():
    from repro.summarize.pipeline import Summary

    fields = {f.name for f in dataclasses.fields(Summary)}
    read = {
        node.attr
        for path in BENCH_FILES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "summary"
    }
    assert {"score", "store", "question", "n_s", "patterns", "completeness",
            "informativeness", "n_candidates", "per_rule", "timings",
            "proved_optimal"} <= read
    assert read <= fields, read - fields
