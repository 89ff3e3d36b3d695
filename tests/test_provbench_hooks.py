"""The benchmark's layer tracer names ``repro`` modules, methods and
DataFrame actions as strings; a rename in ``src/`` would only show when
a traced run crashes. This reads ``provbench/layers.py`` and checks that
every name it wraps still exists. No Spark session is started."""
import importlib
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


def test_actions_are_dataframe_methods(layers):
    for name in layers.ACTIONS:
        assert callable(getattr(DataFrame, name)), name
