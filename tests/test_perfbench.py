"""The benchmark's calls into rhsolve still work, and its annulus cases still converge as fast and certify.

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

import numpy as np

from rhsolve import annulus

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



def _records(workloads, cases, tmp_path):
    # what perfbench/run.py compares between passes: every case record
    return [json.dumps(workloads.run_case(case, tmp_path), sort_keys=True) for case in cases]


def test_repeated_and_traced_passes_agree_on_certified_workloads(tmp_path):
    # perfbench/run.py marks a run incorrect when repeated passes give other
    # case records or traced passes other per-layer call counts; state kept
    # between solves (a memo that evicted within a workload or was mutated)
    # would do either
    tracing = _load("perfbench_tracing", _TRACING)
    workloads = _load("perfbench_workloads", _WORKLOADS)
    for name in ("disc-certified", "annulus-glued"):
        cases = workloads.build(name, 1)
        workloads.warm_up(name, cases)
        untraced = _records(workloads, cases, tmp_path)
        traced = []
        for _ in range(2):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records = _records(workloads, cases, tmp_path)
            finally:
                tracer.uninstall()
            calls = {span: row["calls"] for span, row in tracing.aggregate(tracer.spans).items()}
            traced.append((records, calls))
        (first, first_calls), (second, second_calls) = traced
        assert first == second == untraced, name
        assert first_calls == second_calls and first_calls["newton.certify"] > 0, name


def test_bench_annulus_cases_keep_their_newton_iteration_counts(tmp_path):
    # the README, wobbly and zero-free cases of seeds 1, 3 and 7 (certificate
    # on, as the bench runs them): a collar GMRES that stops a Newton step at
    # the forcing target must not cost Newton a step
    workloads = _load("perfbench_workloads", _WORKLOADS)
    for seed, counts in {1: [3, 3, 3], 3: [3, 3, 4], 7: [3, 3, 4]}.items():
        records = [workloads.run_case(case, tmp_path) for case in workloads.build("annulus-glued", seed)]
        assert [r["iterations"] for r in records] == counts, seed
        assert all(r["ok"] for r in records), [r["reason"] for r in records]


def test_bench_annulus_certificates_at_the_converged_iterate():
    # the seed-1/3/7 cases as the bench solves them: the README and wobbly
    # answers certify; the zero-free linearization is not onto (the flux
    # direction is off its range), so the collar's cross terms leave Z >= 1
    # and nothing bounds a right inverse
    workloads = _load("perfbench_workloads", _WORKLOADS)
    for seed in (1, 3, 7):
        for case in workloads.build("annulus-glued", seed):
            spec = case.spec
            options = annulus.AnnulusSolveOptions(grid_n=spec["grid"], tol=spec.get("tol", 1e-10))
            sol = annulus.solve_annulus(
                case.inputs["outer"], case.inputs["inner"], tuple(spec["windings"]), spec["q"], options
            )
            cert = sol.run.certificate
            assert np.isfinite([cert.omega2, cert.omega3]).all(), case.name
            if "zerofree" in case.name:
                assert cert.omega1 == cert.product == np.inf, case.name
                assert not cert.certified and cert.identity_defect >= 1.0, case.name
            else:
                assert np.isfinite([cert.omega1, cert.product]).all(), case.name
                assert cert.certified and cert.omega3 <= options.tol, case.name
