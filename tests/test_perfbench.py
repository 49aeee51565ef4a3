"""The benchmark's calls into rhsolve still work.

perfbench/tracing.py names the functions and methods it wraps by module and
attribute, and perfbench/workloads.py calls rhsolve's solvers and reads their
results. A rename or signature change in rhsolve that leaves a stale call
there would crash or fail the bench run; these tests fail first. They only
read perfbench/ and BENCHMARK.json.
"""

import importlib
import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
_WORKLOADS = _ROOT / "perfbench" / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_rhsolve():
    tracing = _load("perfbench_tracing", _TRACING)
    for module in tracing.MODULES:
        importlib.import_module(f"rhsolve.{module}")
    for module, attribute in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"rhsolve.{module}"), attribute))
    for module, owner, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"rhsolve.{module}"), owner)
        assert callable(getattr(cls, method))


def test_every_workload_runs_its_first_case_of_each_kind(tmp_path):
    workloads = _load("perfbench_workloads", _WORKLOADS)
    for entry in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]:
        cases = workloads.build(entry["name"], 1)
        workloads.warm_up(entry["name"], cases)
        firsts = {}
        for case in cases:
            firsts.setdefault(case.kind, case)
        for case in firsts.values():
            result = workloads.run_case(case, tmp_path)
            assert result["ok"], (entry["name"], case.name, result["reason"])
