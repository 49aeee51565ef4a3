"""Batch front end: configured solves, identity checks, decay sweeps.

Exit codes: 0 success, 1 malformed configuration, 2 solver failure,
3 identity defect above the configured bound. Diagnostics go to standard
error; artifacts are plain JSON and CSV files in the output directory.
"""

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import serialize
from .analysis import check_identity, surjectivity_demo
from .annulus import (
    AnnulusSolveOptions,
    glue_construct,
    solve_annulus,
    solve_annulus_radial,
)
from .boundary import BoundaryGrid
from .curves import family_from_spec
from .disc import DiscSolveOptions, solve_disc
from .domains import _check_modulus
from .errors import ConfigError, NotRadialFamily, SolverError

_TOP_KEYS = {
    "domain",
    "families",
    "windings",
    "grid",
    "newton",
    "outputs",
    "zero_phase",
    "identity_bound",
    "claim",
    "n_range",
    "targets",
}
_DEFAULT_TARGETS = tuple(i / 10 for i in range(10))
_SURJECTIVITY_BOUND = 1e-6


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _as_float(value, where, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value}")
    if positive and value <= 0.0:
        raise ConfigError(f"{where} must be positive, got {value}")
    return value


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


# grid and tol come from the config or from a command-line override;
# both paths check them here
def _as_grid(value):
    n = _as_int(value, "grid")
    try:
        BoundaryGrid(n)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return n


def _as_tol(value):
    return _as_float(value, "newton tol", positive=True)


def load_config(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    validate_config(data)
    return data


def validate_config(config):
    """Strict structural check; unknown keys anywhere are rejected."""
    _check_keys(config, _TOP_KEYS, "config")

    domain = config.get("domain")
    if domain is not None:
        _check_keys(domain, {"type", "q"}, "domain")
        kind = domain.get("type")
        if kind not in ("disc", "annulus"):
            raise ConfigError(f"domain type must be disc or annulus, got {kind!r}")
        if kind == "annulus":
            _check_modulus(_as_float(domain.get("q"), "domain q"))
        elif "q" in domain:
            raise ConfigError("disc domain takes no modulus q")

    families = config.get("families")
    if families is not None:
        _check_keys(families, {"gamma0", "gamma1"}, "families")

    if "windings" in config:
        w = config["windings"]
        ok_pair = (
            isinstance(w, list)
            and len(w) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in w)
        )
        if not (ok_pair or (isinstance(w, int) and not isinstance(w, bool))):
            raise ConfigError("windings must be an integer or a pair of integers")

    if "grid" in config:
        _as_grid(config["grid"])

    newton = config.get("newton")
    if newton is not None:
        _check_keys(newton, {"tol", "max_iter"}, "newton")
        if "tol" in newton:
            _as_tol(newton["tol"])
        if "max_iter" in newton:
            iters = _as_int(newton["max_iter"], "newton max_iter")
            if iters <= 0:
                raise ConfigError("newton max_iter must be positive")

    outputs = config.get("outputs")
    if outputs is not None:
        _check_keys(outputs, {"directory", "formats"}, "outputs")
        if "directory" in outputs and not isinstance(outputs["directory"], str):
            raise ConfigError("outputs directory must be a string")
        formats = outputs.get("formats")
        if formats is not None:
            if not isinstance(formats, list) or not set(formats) <= {"json", "csv"}:
                raise ConfigError("outputs formats must be a sublist of [json, csv]")

    if "zero_phase" in config:
        _as_float(config["zero_phase"], "zero_phase")

    if "identity_bound" in config:
        _as_float(config["identity_bound"], "identity_bound", positive=True)

    claim = config.get("claim")
    if claim is not None:
        _check_keys(claim, {"k1"}, "claim")
        _as_int(claim.get("k1"), "claim k1")

    if "n_range" in config:
        rng = config["n_range"]
        if not isinstance(rng, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in rng
        ):
            raise ConfigError("n_range must be a list of integers")

    if "targets" in config:
        targets = config["targets"]
        if not isinstance(targets, list):
            raise ConfigError("targets must be a list of numbers")
        for t in targets:
            value = _as_float(t, "targets entry")
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"targets must lie in [0, 1), got {value}")


@dataclasses.dataclass(frozen=True)
class Run:
    """A validated configuration merged with command-line overrides."""

    config: dict
    directory: str
    formats: tuple
    grid: int
    tol: float

    @property
    def wants_json(self):
        return "json" in self.formats

    @property
    def wants_csv(self):
        return "csv" in self.formats

    @property
    def iteration_limit(self) -> dict:
        """newton.max_iter as a keyword; without it each solver keeps its own default."""
        newton = self.config.get("newton", {})
        return {"max_iter": int(newton["max_iter"])} if "max_iter" in newton else {}


def _merge(args, config) -> Run:
    outputs = config.get("outputs", {})
    directory = args.out or outputs.get("directory", "rhsolve-out")
    formats = tuple(outputs.get("formats", ["json", "csv"]))
    grid = args.grid if args.grid is not None else config.get("grid", 256)
    newton = config.get("newton", {})
    tol = args.tol if args.tol is not None else newton.get("tol", 1e-10)
    return Run(
        config=config,
        directory=directory,
        formats=formats,
        grid=_as_grid(grid),
        tol=_as_tol(tol),
    )


def _require(config, key):
    if key not in config:
        raise ConfigError(f"config needs a {key!r} entry for this command")
    return config[key]


def _family(config, component):
    families = _require(config, "families")
    if component not in families:
        raise ConfigError(f"families must include {component!r} for this domain")
    return family_from_spec(families[component])


def _domain(config):
    domain = _require(config, "domain")
    return domain["type"], domain.get("q")


def _annulus_options(run: Run) -> AnnulusSolveOptions:
    return AnnulusSolveOptions(grid_n=run.grid, tol=run.tol, **run.iteration_limit)


def _solve_configured(run: Run):
    """Dispatch an annulus config: prescribed windings or the radial path."""
    kind, q = _domain(run.config)
    if kind != "annulus":
        raise ConfigError("this command needs an annulus domain")
    outer = _family(run.config, "gamma0")
    inner = _family(run.config, "gamma1")
    if "windings" in run.config:
        w = run.config["windings"]
        if not isinstance(w, list):
            raise ConfigError("annulus windings must be a pair [n0, n1]")
        return solve_annulus(outer, inner, tuple(w), q, _annulus_options(run))
    if outer.radial_profile is None or inner.radial_profile is None:
        raise NotRadialFamily(
            "no windings prescribed and the families are not centered circles; "
            "give windings for the glued solve or circle families for the "
            "closed form"
        )
    return solve_annulus_radial(
        outer,
        inner,
        q,
        grid_n=run.grid,
        zero_phase=float(run.config.get("zero_phase", 0.0)),
    )


def _solve_disc_configured(run: Run):
    family = _family(run.config, "gamma0")
    winding = _require(run.config, "windings")
    if not isinstance(winding, int):
        raise ConfigError("disc windings must be a single integer")
    if winding < 0:
        raise ConfigError("disc winding must be nonnegative")
    return solve_disc(
        family, winding, DiscSolveOptions(grid_n=run.grid, tol=run.tol, **run.iteration_limit)
    )


def _write_solve_artifacts(run: Run, solution, summary, traces):
    """result.json from summary(solution); one CSV per named trace; history.csv."""
    if run.wants_json:
        serialize.write_text(
            run.directory, "result.json", serialize.dump_json(summary(solution))
        )
    if run.wants_csv:
        for name, trace in traces.items():
            serialize.write_text(run.directory, name, serialize.trace_csv(trace))
        serialize.write_text(
            run.directory,
            "history.csv",
            serialize.history_csv(getattr(solution, "run", None)),
        )
    serialize.write_metadata(run.directory, "solve")


def cmd_solve(args) -> int:
    run = _merge(args, load_config(_require_config(args)))
    kind, _ = _domain(run.config)
    if kind == "disc":
        solution = _solve_disc_configured(run)
        summary = serialize.disc_result_dict
        traces = {"trace.csv": solution.f_trace}
    else:
        solution = _solve_configured(run)
        summary = serialize.annulus_result_dict
        traces = {
            "trace_gamma0.csv": solution.outer_trace,
            "trace_gamma1.csv": solution.inner_trace,
        }
    _write_solve_artifacts(run, solution, summary, traces)
    print(f"solve: residual_sup {solution.residual_sup:.3e} -> {run.directory}")
    return 0


def cmd_check_identity(args) -> int:
    run = _merge(args, load_config(_require_config(args)))
    solution = _solve_configured(run)
    report = check_identity(solution)
    claim = run.config.get("claim")
    if claim is not None:
        # rebuild the right side around the claimed inner winding; a wrong
        # claim shows up as a flux mismatch
        claimed = int(claim["k1"])
        rhs = report.rhs - report.k1 + claimed
        report = dataclasses.replace(
            report, rhs=rhs, diff=abs(report.lhs - rhs), k1=claimed
        )
    bound = float(run.config.get("identity_bound", 1e-6))
    if run.wants_json:
        serialize.write_text(
            run.directory,
            "identity.json",
            serialize.dump_json(serialize.identity_report_dict(report)),
        )
    serialize.write_metadata(run.directory, "check-identity")
    print(f"check-identity: |lhs - rhs| = {report.diff:.3e} (bound {bound:.3e})")
    if report.diff > bound:
        print(f"identity defect {report.diff:.3e} exceeds bound {bound:.3e}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args) -> int:
    run = _merge(args, load_config(_require_config(args)))
    kind, q = _domain(run.config)
    if kind != "annulus":
        raise ConfigError("sweep needs an annulus domain")
    outer = _family(run.config, "gamma0")
    inner = _family(run.config, "gamma1")
    n_range = _require(run.config, "n_range")
    if len(n_range) == 0:
        raise ConfigError("n_range is empty; give [lo, hi] or an explicit list")
    if len(n_range) == 2 and n_range[0] <= n_range[1]:
        ns = list(range(n_range[0], n_range[1] + 1))
    else:
        ns = sorted(set(n_range))
    if any(n < 0 for n in ns):
        raise ConfigError("collar windings must be nonnegative")

    # record every row, even coarse ones: the table is the deliverable
    options = dataclasses.replace(
        _annulus_options(run), glue_threshold=float("inf")
    )
    rows = []
    for n in ns:
        _, report = glue_construct(outer, inner, int(n), q, options)
        rows.append((int(n), report.pre_newton_residual))
    slope = None
    if len(rows) >= 2:
        xs = np.array([r[0] for r in rows], dtype=float)
        ys = np.log([r[1] for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    serialize.write_text(run.directory, "sweep.csv", serialize.sweep_csv(rows, slope))
    serialize.write_metadata(run.directory, "sweep")
    if slope is None:
        print(f"sweep: {len(rows)} row(s), no fit -> {run.directory}")
    else:
        print(f"sweep: {len(rows)} rows, fitted slope {slope:.4f} -> {run.directory}")
    return 0


def cmd_demo_surjectivity(args) -> int:
    config = load_config(args.config) if args.config else {}
    run = _merge(args, config)
    if "domain" in config:
        kind, q = _domain(config)
        if kind != "annulus":
            raise ConfigError("demo-surjectivity needs an annulus domain")
    else:
        q = 0.5
    targets = config.get("targets", list(_DEFAULT_TARGETS))
    cases = surjectivity_demo(targets, q, grid_n=run.grid)
    if run.wants_json:
        serialize.write_text(
            run.directory,
            "surjectivity.json",
            serialize.dump_json(serialize.surjectivity_dict(cases)),
        )
    serialize.write_metadata(run.directory, "demo-surjectivity")
    worst = max((c.deviation for c in cases), default=0.0)
    print(
        f"demo-surjectivity: {len(cases)} targets, worst deviation {worst:.3e} "
        f"-> {run.directory}"
    )
    if any(c.deviation > _SURJECTIVITY_BOUND or c.zero_count > 1 for c in cases):
        print("surjectivity demo failed to realize a target", file=sys.stderr)
        return 2
    return 0


def _require_config(args):
    if not args.config:
        raise ConfigError("this command needs --config PATH")
    return args.config


# one parser per process: main only parses with it, and building the tree
# costs about a millisecond per call
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhsolve",
        description="Solve holomorphic boundary problems on the disc and annulus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, blurb in (
        ("solve", cmd_solve, "run a configured solve and write artifacts"),
        ("check-identity", cmd_check_identity, "verify the flux identity of a solve"),
        ("sweep", cmd_sweep, "tabulate glue residual decay over a winding range"),
        (
            "demo-surjectivity",
            cmd_demo_surjectivity,
            "realize fractional flux targets with radial data",
        ),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--grid", type=int, metavar="N", help="grid size override")
        p.add_argument("--tol", type=float, metavar="FLOAT", help="tolerance override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NotRadialFamily, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
