"""Seeded case lists for the three workloads and the checks on every answer.

Every case is built from plain numbers drawn from the workload seed (its
``spec``), so two builds from one seed can be compared for equality. rhsolve
is always called through module attributes (``disc.solve_disc``, not a name
bound at import), so the tracer's wrappers see every call the benchmark
makes. The bounds are those of the acceptance suite.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field

import numpy as np

from rhsolve import analysis, annulus, boundary, cli, curves, disc, errors, trig

DISC_RESIDUAL_BOUND = 1e-9
ANNULUS_RESIDUAL_BOUND = 1e-8
IDENTITY_BOUND = 1e-6
MODULUS_BOUND = 1e-8
SURJECTIVITY_BOUND = 1e-6

# grid of disc case i: two at N=256, three at 512, one at 1024, so that the
# median solve falls inside the N=512 group and the 90th percentile inside
# the N=1024 one; six cases keep a pass short enough for several per run
_DISC_GRIDS = (256, 512, 512, 256, 512, 1024)
_DISC_KINDS = ("circle", "ellipse", "tilted")
_DENSE_CONTOUR_PAIR = 87  # generator seed of the fixed radial pair


@dataclass
class Case:
    name: str
    kind: str  # disc | annulus | radial | surjectivity | cli
    spec: dict
    inputs: dict = field(default_factory=dict)

    @property
    def is_solve(self):
        return self.kind in ("disc", "annulus", "radial")


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


def _u(rng, scale, size=None):
    return (scale * rng.uniform(-1.0, 1.0, size)).tolist()


def _zero_mean_trig(rng, degree=4, size=0.12):
    # same law as the random radial data of acceptance criterion 5
    coeffs = np.zeros(2 * degree + 1)
    coeffs[1:] = size * rng.standard_normal(2 * degree) / np.arange(1, 2 * degree + 1)
    return coeffs.tolist()


def family(spec):
    """Curve family of a spec; "scaled" is the circle |w| = base * exp(log(theta))."""
    if spec["type"] != "scaled":
        return curves.family_from_spec(spec)
    a = trig.TrigPolynomial(tuple(spec["log"]))
    ap = a.derivative()
    return curves.divisor_transform(
        curves.builtin_circle_family(float(spec["base"])),
        lambda th: np.exp(-a(th)) + 0j,
        lambda th: -ap(th) * np.exp(-a(th)) + 0j,
    )


def _circle(radius):
    return {"type": "circle", "fourier": {"R": radius}}


def _disc_cases(rng):
    cases = []
    for i, grid in enumerate(_DISC_GRIDS):
        kind = _DISC_KINDS[i % 3]
        winding = i % 4
        if kind == "circle":
            fam = _circle([2.0 + 0.5 * rng.uniform(-1, 1)] + _u(rng, 0.3, 2) + _u(rng, 0.1, 2))
        elif kind == "ellipse":
            fam = {
                "type": "ellipse",
                "fourier": {
                    "p": [2.0 + 0.2 * rng.uniform(-1, 1)] + _u(rng, 0.2, 2),
                    "q": [1.0 + 0.1 * rng.uniform(-1, 1)] + _u(rng, 0.05, 2),
                    "phi": [0.0],
                },
            }
        else:
            fam = {
                "type": "ellipse",
                "fourier": {
                    "p": [2.4 + 0.2 * rng.uniform(-1, 1)] + _u(rng, 0.2, 2),
                    "q": [1.0 + 0.1 * rng.uniform(-1, 1), 0.0, 0.1 * rng.uniform(-1, 1)],
                    "phi": _u(rng, 0.5, 1) + _u(rng, 0.3, 2),
                },
            }
        spec = {"family": fam, "winding": winding, "grid": grid}
        cases.append(Case(f"disc-{i:02d}-{kind}-w{winding}-n{grid}", "disc", spec))
    return cases


def _annulus_cases(rng):
    q = 0.5
    readme = {
        "outer": {
            "type": "ellipse",
            "fourier": {"p": [1.0, 0.04, 0.02], "q": [0.85, -0.03, 0.02], "phi": [0.15]},
        },
        "inner": _circle([0.3]),
        "windings": [6, 6],
        "q": 0.4,
        "grid": 512,
        "tol": 1e-9,
    }
    wobbly = {
        "outer": _circle([1.0] + _u(rng, 0.03, 4)),
        "inner": _circle([1.0] + _u(rng, 0.03, 4)),
        "windings": [4, 4],
        "q": q,
        "grid": 256,
    }
    # base * exp(zero-mean trig) with base q**8 inside: the flux of log|f| is
    # exactly the inner winding, so the zero-free problem is solvable
    zero_free = {
        "outer": {"type": "scaled", "base": 1.0, "log": _zero_mean_trig(rng)},
        "inner": {"type": "scaled", "base": q**8, "log": _zero_mean_trig(rng)},
        "windings": [8, -8],
        "q": q,
        "grid": 256,
    }
    return [
        Case("annulus-readme-6-6-n512", "annulus", readme),
        Case("annulus-wobbly-4-4-n256", "annulus", wobbly),
        Case("annulus-zerofree-8-m8-n256", "annulus", zero_free),
    ]


def _radial_pair(rng, q, with_zero):
    # the law of acceptance criterion 5, with the choice between an integer
    # and a fractional flux exponent made by the caller
    base = int(rng.integers(-1, 2))
    exponent = base + (rng.uniform(0.1, 0.9) if with_zero else 0.0)
    return {
        "outer": {"type": "scaled", "base": 1.0, "log": _zero_mean_trig(rng)},
        "inner": {"type": "scaled", "base": q**exponent, "log": _zero_mean_trig(rng)},
        "q": q,
        "grid": 512,
    }


def _radial_cases(rng):
    cases = []
    for q in (0.25, 0.5):
        for j in range(40):
            # exactly one pair in four has an integer exponent (no zero), so
            # the share of pairs that run the zero search does not vary
            spec = _radial_pair(rng, q, with_zero=j % 4 != 0)
            cases.append(Case(f"radial-q{q}-{j:02d}", "radial", spec))
    # a fixed pair whose zero search doubles its contours up to 766 points.
    # About one seeded pair in a hundred does that, and it sets the peak
    # memory of the pass, so without this pair peak_rss_mb would depend on
    # whether the seed happened to draw one
    spec = _radial_pair(np.random.default_rng(_DENSE_CONTOUR_PAIR), 0.25, with_zero=True)
    cases.append(Case("radial-q0.25-dense-contour", "radial", spec))
    targets = [i / 10 for i in range(10)]  # those of acceptance criterion 6
    cases.append(Case("surjectivity-demo", "surjectivity", {"targets": targets, "q": 0.5, "grid": 256}))
    q = 0.5
    r1 = q ** rng.uniform(0.1, 0.9)
    config = {
        "domain": {"type": "annulus", "q": q},
        "families": {
            "gamma0": _circle([1.0] + _u(rng, 0.05, 2)),
            "gamma1": _circle([r1] + _u(rng, 0.05 * r1, 2)),
        },
        "grid": 256,
        "outputs": {"formats": ["json"]},
    }
    surj = {"domain": {"type": "annulus", "q": q}, "targets": targets, "grid": 256, "outputs": {"formats": ["json"]}}
    cases.append(Case("cli-solve-identity-surjectivity", "cli", {"config": config, "surjectivity": surj}))
    return cases


_CASE_LISTS = {
    "disc-certified": _disc_cases,
    "annulus-glued": _annulus_cases,
    "radial-identity": _radial_cases,
}


def build(workload, seed):
    """The workload's fixed case list for this seed, with families constructed."""
    rng = np.random.default_rng([seed, list(_CASE_LISTS).index(workload)])
    cases = _CASE_LISTS[workload](rng)
    for case in cases:
        for key in ("family", "outer", "inner"):
            if key in case.spec:
                case.inputs[key] = family(case.spec[key])
    return cases


def spec_text(cases):
    return json.dumps([[c.name, c.kind, c.spec] for c in cases], sort_keys=True)


# --------------------------------------------------------------------------
# running and checking
# --------------------------------------------------------------------------


def _record(ok, reason="", **fields):
    base = {
        "ok": ok,
        "reason": reason,
        "residual": None,
        "identity_diff": None,
        "iterations": None,
        "certified": None,
        "fallback": None,
    }
    base.update(fields)
    return base


def _miss(**bounds):
    """Reason text for every (name, value, bound) with value >= bound."""
    return "; ".join(f"{k} {v:.3e} >= {b:.0e}" for k, (v, b) in bounds.items() if not v < b)


def _run_disc(case):
    spec = case.spec
    sol = disc.solve_disc(
        case.inputs["family"], spec["winding"], disc.DiscSolveOptions(grid_n=spec["grid"])
    )
    reason = _miss(residual=(sol.residual_sup, DISC_RESIDUAL_BOUND))
    got = boundary.winding_number(sol.f_trace)
    if got != spec["winding"]:
        reason = f"winding {got} != {spec['winding']}"
    return _record(
        not reason,
        reason,
        residual=sol.residual_sup,
        iterations=sol.run.iterations,
        certified=sol.run.certificate.certified,
    )


def _run_annulus(case):
    spec = case.spec
    options = annulus.AnnulusSolveOptions(grid_n=spec["grid"], tol=spec.get("tol", 1e-10))
    sol = annulus.solve_annulus(
        case.inputs["outer"], case.inputs["inner"], tuple(spec["windings"]), spec["q"], options
    )
    report = analysis.check_identity(sol)
    zeros = sum(z.multiplicity for z in sol.zeros)
    reason = _miss(
        residual=(sol.residual_sup, ANNULUS_RESIDUAL_BOUND),
        identity_diff=(report.diff, IDENTITY_BOUND),
    )
    if zeros != sum(spec["windings"]):
        reason = f"located {zeros} zeros, windings imply {sum(spec['windings'])}"
    return _record(
        not reason,
        reason,
        residual=sol.residual_sup,
        identity_diff=report.diff,
        iterations=sol.run.iterations,
        certified=None if sol.run.certificate is None else sol.run.certificate.certified,
        fallback=sol.fallback_used,
        zeros=zeros,
    )


def _run_radial(case):
    spec = case.spec
    sol = annulus.solve_annulus_radial(
        case.inputs["outer"], case.inputs["inner"], spec["q"], grid_n=spec["grid"]
    )
    report = analysis.check_identity(sol)
    reason = _miss(
        identity_diff=(report.diff, IDENTITY_BOUND),
        modulus_error=(sol.modulus_error, MODULUS_BOUND),
    )
    return _record(
        not reason,
        reason,
        residual=sol.residual_sup,
        identity_diff=report.diff,
        iterations=0,
        modulus_error=sol.modulus_error,
        zeros=len(sol.zeros),
    )


def _run_surjectivity(case):
    spec = case.spec
    cases = analysis.surjectivity_demo(spec["targets"], spec["q"], grid_n=spec["grid"])
    worst = max(c.deviation for c in cases)
    reason = _miss(deviation=(worst, SURJECTIVITY_BOUND))
    if any(c.zero_count > 1 for c in cases):
        reason = "a target needed more than one zero"
    return _record(not reason, reason, identity_diff=worst)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue().strip()


def _run_cli(case, scratch):
    """solve and check-identity twice each, demo-surjectivity once.

    The two runs of one command must write byte-identical result files.
    """
    work = tempfile.mkdtemp(prefix="cli-", dir=scratch)
    try:
        paths = {}
        for key in ("config", "surjectivity"):
            paths[key] = os.path.join(work, f"{key}.json")
            with open(paths[key], "w") as handle:
                json.dump(case.spec[key], handle)
        problems = []
        for command, artifact in (("solve", "result.json"), ("check-identity", "identity.json")):
            texts = []
            for copy in ("a", "b"):
                out_dir = os.path.join(work, f"{command}-{copy}")
                code, message = _cli([command, "--config", paths["config"], "--out", out_dir])
                if code != 0:
                    problems.append(f"{command} exited {code}: {message}")
                    continue
                with open(os.path.join(out_dir, artifact), "rb") as handle:
                    texts.append(handle.read())
            if len(texts) == 2 and texts[0] != texts[1]:
                problems.append(f"{command}: {artifact} differs between identical runs")
        code, message = _cli(
            ["demo-surjectivity", "--config", paths["surjectivity"], "--out", os.path.join(work, "surj")]
        )
        if code != 0:
            problems.append(f"demo-surjectivity exited {code}: {message}")
        return _record(not problems, "; ".join(problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_case(case, scratch):
    """Run one case and check it; a raised error is a failed case, not a crash."""
    try:
        if case.kind == "disc":
            return _run_disc(case)
        if case.kind == "annulus":
            return _run_annulus(case)
        if case.kind == "radial":
            return _run_radial(case)
        if case.kind == "surjectivity":
            return _run_surjectivity(case)
        return _run_cli(case, scratch)
    except errors.SolverError as exc:
        return _record(False, f"{type(exc).__name__}: {exc}")
    except Exception:  # a defect in the solver still yields a result line
        return _record(False, traceback.format_exc(limit=3))


def warm_up(workload, cases):
    """One cheap solve of the workload's kind, counted in the set-up time."""
    if workload == "disc-certified":
        _run_disc(cases[0])  # an N=256 case
    elif workload == "radial-identity":
        _run_radial(cases[0])
    else:
        # a certified annulus solve costs seconds; the wobbly case without
        # the certificate exercises the same code paths in half a second
        wobbly = cases[1]
        annulus.solve_annulus(
            wobbly.inputs["outer"],
            wobbly.inputs["inner"],
            tuple(wobbly.spec["windings"]),
            wobbly.spec["q"],
            annulus.AnnulusSolveOptions(grid_n=wobbly.spec["grid"], certify=False),
        )
