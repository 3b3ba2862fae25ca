"""The benchmark in `perfbench/` must keep working against the library.

`perfbench/tracer.py` names the functions it traces in `LAYERS`, and the
workloads of `BENCHMARK.json` call the public API and check its answers with
independent routes.  A library change that breaks either would otherwise only
fail when the benchmark runs, so check both here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, monkeypatch):
    """perfbench/<name>.py as the top-level module `name`, the way
    perfbench/run.py imports it; sys.modules is restored after the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    missing = [f"{layer}.{fn}" for layer, (module, fns) in tracer.LAYERS.items()
               for fn in fns if not callable(getattr(module, fn, None))]
    assert tracer.LAYERS and not missing


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_first_job_of_each_class_is_answered_correctly(workload, monkeypatch):
    _load("oracle", monkeypatch)  # workloads imports it by name
    build, run_job, check_job = _load("workloads", monkeypatch).WORKLOADS[workload]
    firsts = {}
    for job in build(1, 0):
        firsts.setdefault(job.label, job)
    problems = [f"{label}: {p}" for label, job in firsts.items()
                for p in check_job(job, run_job(job))]
    assert firsts and not problems


def test_tracer_reaches_calls_inside_modules(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # selftest prepends src/
    for name in ("tracer", "oracle", "workloads"):
        _load(name, monkeypatch)
    assert _load("selftest", monkeypatch).check_intra_module() == []
