"""The benchmark's tracer binds library attributes by name, so a rename in
the library would break ``bench/run.py --trace 1`` only at run time.  These
tests load ``bench/tracing.py`` by path and check every name it binds."""

import importlib
import importlib.util
import sys
from pathlib import Path

from sigmaprod import classification

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(monkeypatch):
    before = sorted(BENCH.rglob("*"))
    tracing = load_tracing(monkeypatch)
    for module, attr, _span in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"sigmaprod.{module}"), attr)), attr
    for module, cls_name, attr, _span in tracing.METHODS:
        cls = getattr(importlib.import_module(f"sigmaprod.{module}"), cls_name)
        assert callable(vars(cls)[attr]), (cls_name, attr)
    cli = importlib.import_module("sigmaprod.cli")
    clopen = importlib.import_module("sigmaprod.clopen")
    assert cli._HANDLERS and "__post_init__" in vars(clopen.BasicBox)
    assert sorted(BENCH.rglob("*")) == before


def test_normal_form_keeps_its_cache_controls():
    # the benchmark clears the cache after warm-up and reads its hit ratio
    assert callable(classification.normal_form.cache_clear)
    assert callable(classification.normal_form.cache_info)
