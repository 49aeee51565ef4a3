"""rhsolve benchmark: seeded solve workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload disc-certified --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1              # every workload, one process each

One process runs one workload as a closed loop: one caller, one solve at a
time. It repeats the workload's fixed case list (built from --seed) in
passes until --seconds have gone by, checks every answer, and prints as its
last line a JSON object with "correct", "attempted", "failed" and
"metrics". With --trace 0 the metrics are the end-to-end ones, measured
with tracing off; with --trace 1 passes alternate between untraced and
traced, and the metrics are per-layer numbers from the traced passes. The
run also writes its cases, machine facts and (traced) spans to
.bench_out/ in the checkout. See perfbench/README.md for the workloads and
for which layer metric should move which end-to-end metric.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

# One BLAS thread: the workloads are one caller with one solve in flight, and
# on a 2-CPU machine a second OpenBLAS thread doubled CPU time without making
# any case faster while making pass times noisier. Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("disc-certified", "annulus-glued", "radial-identity")
SETUP_SAMPLES = 5  # this process plus four fresh child processes

# Layer times are reported as shares of the traced pass (seconds = share x
# trace.wall_s; the seconds are in the details file). A layer that a
# workload never calls would otherwise report exactly 0 s on every run,
# which reads like a frozen timing rather than a measurement.
SHARE_SUFFIX = {"s": "share", "self_s": "self_share"}
LAYER_TIMES = (
    ("boundary.holder_norms", "s"),
    ("newton.certify", "self_s"),
    ("newton.iterate", "self_s"),
    ("newton.residual", "s"),
    ("newton.derivative_action", "s"),
    ("newton.right_inverse.build", "s"),
    ("newton.right_inverse.apply", "self_s"),
    ("pompeiu.AreaCharge.init", "s"),
    ("pompeiu.AreaCharge.evaluate", "s"),
    ("annulus.solve_annulus", "self_s"),
    ("annulus.solve_annulus_radial", "s"),
    ("disc.solve_disc", "self_s"),
    ("disc.right_inverse_apply", "s"),
    ("curves.eta_decompose", "s"),
    ("trig.TrigPolynomial.call", "s"),
    ("domains.locate_zeros", "s"),
    ("domains.cauchy_extend", "s"),
    ("analysis.check_identity", "s"),
    ("analysis.surjectivity_demo", "s"),
    ("cli.main", "s"),
    ("serialize.dump_json", "s"),
)
LAYER_COUNTS = (
    "boundary.holder_norms",
    "newton.certify",
    "newton.residual",
    "newton.derivative_action",
    "newton.right_inverse.apply",
    "pompeiu.AreaCharge.init",
    "disc.solve_disc",
    "disc.right_inverse_apply",
    "curves.eta_decompose",
    "trig.TrigPolynomial.call",
    "domains.locate_zeros",
    "domains.cauchy_extend",
)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


def _import_rhsolve():
    if not (SRC / "rhsolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no rhsolve sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import rhsolve

    if Path(rhsolve.__file__).resolve().parent != SRC / "rhsolve":
        raise SystemExit(f"error: imported rhsolve from {rhsolve.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(workload, seed):
    """Import rhsolve, build the inputs, run one warm-up solve; return (time, cases)."""
    start = time.perf_counter()
    workloads = _import_rhsolve()
    cases = workloads.build(workload, seed)
    workloads.warm_up(workload, cases)
    return time.perf_counter() - start, cases


def _child_set_up(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# machine facts
# --------------------------------------------------------------------------


def _openblas_threads():
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# measured passes
# --------------------------------------------------------------------------


def run_pass(workloads, cases, tracer=None):
    """One pass over the case list; returns (wall seconds, [(case, record, seconds)])."""
    rows = []
    start = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.solve = f"{i}:{case.name}"
        t0 = time.perf_counter()
        record = workloads.run_case(case, OUT)
        rows.append((case, record, time.perf_counter() - t0))
    return time.perf_counter() - start, rows


def _checked_fields(rows):
    # everything a case reports except its time; json keeps float repr exact
    return [json.dumps(record, sort_keys=True) for _, record, _ in rows]


def _layer_metrics(table, tracer, rows, wall):
    def get(name, key):
        return table.get(name, {}).get(key, 0)

    metrics = {}
    for name in LAYER_COUNTS:
        metrics[f"{name}.calls"] = (get(name, "calls"), "count")
    for name, key in LAYER_TIMES:
        metrics[f"{name}.{SHARE_SUFFIX[key]}"] = (get(name, key) / wall, "ratio")
    metrics["newton.steps"] = (tracer.newton_steps, "count")
    certified = [r["certified"] for _, r, _ in rows if r["certified"] is not None]
    solves = sum(1 for c, _, _ in rows if c.is_solve)
    metrics["newton.certified_frac"] = (sum(certified) / solves, "ratio")
    metrics["annulus.fallback_solves"] = (sum(1 for _, r, _ in rows if r["fallback"]), "count")
    applies = get("newton.right_inverse.apply", "calls")
    inits = get("pompeiu.AreaCharge.init", "calls")
    metrics["annulus.neumann_terms_per_apply"] = (inits / applies if applies else 0.0, "ratio")
    root = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.spanned_frac"] = (root / wall, "ratio")
    return metrics


def measure(seconds, trace, workloads, cases):
    """Passes until ``seconds`` are used; with ``trace`` they alternate untraced/traced.

    The first pass of a process is slower (by about a third on
    disc-certified) while the allocator and page tables grow to the largest
    grids. At least three untraced passes (two with ``trace``) keep it out
    of the median pass.
    """
    before = tracing.snapshot_targets()
    untraced, traced = [], []  # (wall, rows) per timed pass
    layer_runs = []  # (per-layer metrics, spans) per traced pass
    problems = []
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                wall, rows = run_pass(workloads, cases, tracer)
            finally:
                tracer.uninstall()
            if not tracing.originals_restored(before):
                problems.append("tracer left a wrapper installed")
            traced.append((wall, rows))
            layer_runs.append((_layer_metrics(tracing.aggregate(tracer.spans), tracer, rows, wall), tracer.spans))
        else:
            untraced.append(run_pass(workloads, cases))
        passes = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= 3 if not trace else len(untraced) >= 2 and len(traced) >= 1
        if enough and elapsed + elapsed / passes > seconds:
            break

    reference = _checked_fields(untraced[0][1])
    if any(_checked_fields(rows) != reference for _, rows in untraced[1:] + traced):
        problems.append("a repeated pass gave different residuals, counts or verdicts")
    counts = [{k: v for k, (v, u) in m.items() if u == "count"} for m, _ in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    return untraced, traced, layer_runs, problems


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def _p90(values):
    # inclusive interpolation: with few samples (three passes of three annulus
    # solves) the exclusive method returns the single largest one
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _num(v):
    return "-" if v is None else f"{v:.2e}"


def _flag(v):
    return "-" if v is None else str(bool(v))


def _case_table(rows):
    lines = [f"{'case':42s} {'time_s':>9s} {'residual':>9s} {'id_diff':>9s} {'iters':>5s} {'cert':>5s} {'fb':>5s} ok"]
    for case, r, seconds in rows:
        it = "-" if r["iterations"] is None else str(r["iterations"])
        lines.append(
            f"{case.name:42s} {seconds:9.4f} {_num(r['residual']):>9s} {_num(r['identity_diff']):>9s} "
            f"{it:>5s} {_flag(r['certified']):>5s} {_flag(r['fallback']):>5s} {r['ok']}"
            + ("" if r["ok"] else f"  <- {r['reason']}")
        )
    return lines


def run_workload(args):
    setup_first, cases = set_up(args.workload, args.seed)
    import workloads

    problems = []
    if workloads.spec_text(workloads.build(args.workload, args.seed)) != workloads.spec_text(cases):
        problems.append("the same seed built different inputs")
    setups = [setup_first] + [_child_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    OUT.mkdir(exist_ok=True)

    untraced, traced, layer_runs, more = measure(args.seconds, args.trace, workloads, cases)
    problems += more
    checked = [row for _, rows in untraced + traced for row in rows]
    attempted = len(checked)
    failed = sum(1 for _, r, _ in checked if not r["ok"])
    solves = [seconds for _, rows in untraced for case, _, seconds in rows if case.is_solve]
    certified = [r["certified"] for _, r, _ in untraced[0][1] if r["certified"] is not None]
    n_solves = sum(1 for c in cases if c.is_solve)
    walls = [wall for wall, _ in untraced]

    if args.trace:
        metrics = {}
        for name, (_, unit) in layer_runs[0][0].items():
            values = [m[name][0] for m, _ in layer_runs]
            metrics[name] = (statistics.median(values) if unit != "count" else values[0], unit)
        metrics["trace.overhead_frac"] = (
            statistics.median([w for w, _ in traced]) / statistics.median(walls) - 1.0,
            "ratio",
        )
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "solve_s.p50": (statistics.median(solves), "s"),
            "solve_s.p90": (_p90(solves), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    facts = machine_facts()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "closed_loop": {"callers": 1, "in_flight": 1},
        "setup_s_samples": setups,
        "untraced_pass_walls": walls,
        "traced_pass_walls": [w for w, _ in traced],
        "solve_samples": len(solves),
        "failed_frac": failed / attempted,
        "certified_frac": (sum(certified) / n_solves) if certified else None,
        "problems": problems,
        "cases": [
            {"name": c.name, "kind": c.kind, "seconds": s, **r} for c, r, s in untraced[0][1]
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if layer_runs:
        last_spans = layer_runs[-1][1]
        report["layers"] = tracing.aggregate(last_spans)
        report["case_layers"] = tracing.aggregate_by_solve(last_spans)
        spans = [[s.span_id, s.parent, s.solve, s.name, s.start, s.end] for s in last_spans]
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["id", "parent", "solve", "name", "start", "end"], "spans": spans}) + "\n"
        )
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, 1 caller")
    print("machine " + json.dumps(facts, sort_keys=True))
    print("\n".join(_case_table(untraced[0][1])))
    print(
        f"passes: {len(untraced)} untraced, {len(traced)} traced; "
        f"{len(solves)} solve samples; "
        f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s"
    )
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    if certified:
        print(f"certified_frac {sum(certified)}/{n_solves} = {sum(certified) / n_solves:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"self-check failed: {problem}")
    for solve, table in report.get("case_layers", {}).items():
        total = sum(row["self_s"] for row in table.values())
        top = sorted(table, key=lambda name: -table[name]["self_s"])[:3]
        inclusive = [name for name in ("newton.certify", "newton.iterate", "domains.locate_zeros") if name in table]
        print(
            f"layers {solve}: self "
            + ", ".join(f"{name} {table[name]['self_s'] / total:.0%}" for name in top)
            + "".join(f"; {name} with children {table[name]['s'] / total:.0%}" for name in inclusive)
        )
    print(f"details in {OUT / stem}.json")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


def run_all(args):
    """Run every workload in its own process and print its metric lines."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
        if done.returncode != 0:
            print(f"{workload}: exited {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
            status = 1
            continue
        for line in done.stdout.splitlines():
            if line.startswith(("metric ", "failed_frac", "certified_frac", "self-check")):
                print(f"{workload:16s} {line}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        seconds, _ = set_up(args.workload, args.seed)
        print(repr(seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
