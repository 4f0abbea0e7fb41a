"""The benchmark's workloads call the library and read its results by
attribute (``op.domain``, ``rep.unital``, ``system.petal_labels`` and more),
and its reference grades every answer, so a change to the library could break
``bench/run.py`` only at run time.  This test loads ``bench/workloads.py``
and ``bench/reference.py`` by path and runs the first seeded block of every
workload in process, grading each answer as the benchmark does."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

from sigmaprod import averaging, classification, cli, clopen, deltasystem, ground, uec

BENCH = Path(__file__).resolve().parents[1] / "bench"
LIB = types.SimpleNamespace(averaging=averaging, classification=classification, cli=cli,
                            clopen=clopen, deltasystem=deltasystem, ground=ground, uec=uec)


def load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports reference
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["decompose_deep", "uec_pipeline", "cli_mix",
                                      "library_batch"])
def test_first_block_of_each_workload_grades_correct(monkeypatch, tmp_path, workload):
    before = sorted(BENCH.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    ref = load(monkeypatch, "reference")
    workloads = load(monkeypatch, "workloads")
    stream = workloads.Stream(workload, 7, "timed", str(tmp_path), LIB)
    kinds = set()
    for req in workloads.requests(workload, stream, blocks=1):
        for path, text in req.files:
            Path(path).write_text(text)
        if req.argv is not None:
            code, payload = cli.dispatch(list(req.argv))
            cause = ref.CLI_GRADERS[req.kind](req.spec, code, json.loads(cli.render(payload)))
        else:
            cause = ref.CALL_GRADERS[req.kind](req.spec, req.call())
        assert cause is None, (req.kind, req.spec, cause)
        kinds.add(req.kind)
    assert kinds
    assert sorted(BENCH.rglob("*")) == before
