"""Newton iteration with a Newton-Kantorovich certificate.

A problem supplies the residual map A, a right inverse factory B (so that
DA(x) B(x) = identity on residuals), and the norms to measure both spaces.
The certificate bounds

    omega1 >= ||B(x)||,   omega2 >= Lip(DA) on a ball around x,   omega3 = ||A(x)||,

together with the defect of the identity DA(x) B(x) = I, and holds when

    4 * omega1 * (omega1 + 1) * (omega2 + 1) * omega3 < 1,

the identity defect is at most _CHECK_TOL and omega3 at most the caller's
CertifyOptions.tol (no limit by default).

Both solvers certify their converged iterate, with norms in the Wiener
algebra of absolutely summable Fourier series read off DFT coefficients.
Those are the coefficients of the grid interpolant, so the aliasing tail
and the rounding are estimated, not enclosed: the verdict says the
contraction is bounded, not proven. A problem that can compute the four
numbers supplies them through its bounds(x) callback, and certify only
forms the verdict; the disc solver does. Without bounds, certify samples
the constants, as the annulus solver does: it draws all its probes first
and then calls each callback once per stack of probes, not once per probe;
the iteration passes single vectors. omega1, the identity defect and
omega2 are each the largest ratio over one stack of a row's norm to its
probe's scale. A right inverse that takes a target gets one per probe,
and so solves each probe only as exactly as the identity check reads it
(see NewtonProblem). The iteration itself damps steps that increase the
residual and records that it did.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NeumannDiverges, NoConvergence, SamplingFailed


@dataclass(frozen=True)
class NewtonProblem:
    """Residual map, right inverse, and the norms of both spaces.

    derivative_action(x, d) -> DA(x)[d] is optional; a central finite
    difference of the residual is used when absent.

    Computed bounds: bounds(x), when given, returns the CertificateBounds
    at x, and certify forms its verdict from them without sampling;
    certify_residual_norm and probe_set are then not read. A verdict from
    bounds read off a grid's DFT says the contraction is bounded, not
    proven (see the module docstring).

    Sampled bounds: without bounds, certify samples the constants.
    probe_set(seed) is the one source of probes: it returns a ProbeSet,
    drawn by draw_probe_set from the problem's own samplers (a problem may
    memoize it). Without it, certify draws one with Gaussian probes shaped
    like the residual and the iterate. iterate_norm measures omega1's
    steps and omega2's ball alike; certify_residual_norm, when given,
    replaces residual_norm inside the certificate only.

    Stacks: certify passes arrays with a leading probe axis, one probe per
    row. right_inverse(x)(r), derivative_action(x, d) and the residual (in
    the finite difference only) act row by row, broadcasting one point
    against a stack of directions, and every norm returns one value per
    row (certify raises TypeError on a norm that does not). iterate passes
    single vectors only.

    Forcing: a right inverse's apply may take a keyword target, the
    residual-norm defect at which an iterative inverse may stop. iterate
    passes ½·max(min(_FORCING, |r|)·|r|, tol/2), |r| the residual norm and
    _FORCING = 0.1: a step that meets it keeps Newton quadratic. certify
    passes one target per probe, _PROBE_FORCING·_CHECK_TOL (1e-8) times the
    probe's certificate norm. Where that norm is at most √N times the
    residual norm on an N-sample row (the Wiener norm against the sup), a
    probe that meets its target has an identity defect of at most
    √N·_PROBE_FORCING·_CHECK_TOL, 0.64·_CHECK_TOL at N = 4096. An apply
    without the keyword is called with the residual alone.

    Unreachable rows: a right inverse that cannot meet its own acceptance
    bound on a single residual raises NeumannDiverges with that residual's
    relative defect. On a stack it raises once for the whole stack, with a
    per-row defect that is NaN in every reached row and with the steps of
    the stack, valid in the reached rows. certify counts the defects of the
    missed rows in identity_defect and leaves those rows out of omega1; an
    exception whose defect is one number misses every row. With every row
    missed, omega1 and the product are inf.
    """

    residual: Callable
    right_inverse: Callable
    iterate_norm: Callable
    residual_norm: Callable
    derivative_action: Optional[Callable] = None
    certify_residual_norm: Optional[Callable] = None
    probe_set: Optional[Callable] = None
    bounds: Optional[Callable] = None


class CertificateBounds(NamedTuple):
    """The certificate's constants at one iterate, and the right-inverse identity defect there."""

    omega1: float
    omega2: float
    omega3: float
    identity_defect: float


# certificate sampling: residual probes for omega1, point pairs for omega2
# (drawn at distance 0.01..0.1 from x0), the finite-difference step length in
# the iterate norm, and the largest right-inverse identity defect that certifies
_RESIDUAL_SAMPLES = 16
_LIPSCHITZ_PAIRS = 8
_BALL_RADIUS = 0.1
_FD_STEP = 1e-6
_CHECK_TOL = 1e-6
# damping budget: step halvings tried before the iteration gives up
_MAX_HALVINGS = 6
# inexact-Newton forcing term: a step whose residual-norm defect is at most
# min(_FORCING, |r|) * |r| keeps the iteration quadratic (Dembo, Eisenstat
# and Steihaug 1982); a right inverse that accepts steps by a forcing bound
# uses the same constant
_FORCING = 0.1
# certificate probes are solved to a sup-norm defect of _PROBE_FORCING *
# _CHECK_TOL times their certificate norm: on an N-point boundary row the
# Wiener norm is at most the 2-norm and the 2-norm at most sqrt(N) times the
# sup, so a probe that meets its target has an identity defect of at most
# sqrt(N) * _PROBE_FORCING * _CHECK_TOL, 0.64 * _CHECK_TOL at N = 4096
_PROBE_FORCING = 1e-2


@dataclass(frozen=True)
class CertifyOptions:
    """seed draws the sampled probes; tol is the largest omega3 that certifies.

    A solve passes its own tolerance as tol, so that a certified answer also
    meets it, between the nodes when the bounds measure omega3 there: the
    product alone says that a solution lies within about 2 omega1 omega3 of
    the iterate, not that the iterate meets the tolerance.
    """

    seed: int = 0
    tol: float = np.inf


@dataclass(frozen=True)
class NewtonCertificate:
    omega1: float
    omega2: float
    omega3: float
    product: float
    identity_defect: float
    certified: bool


@dataclass(frozen=True)
class IterateOptions:
    tol: float = 1e-12
    max_iter: int = 40


@dataclass(frozen=True)
class NewtonRun:
    x: object
    residual_norms: tuple
    iterations: int
    converged: bool
    damped: bool
    certificate: Optional[NewtonCertificate] = None


def _gaussian_like(example):
    """Sampler of standard Gaussian arrays shaped like the example, complex when it is."""
    shape = np.shape(example)
    if np.iscomplexobj(example):
        return lambda rng: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return lambda rng: rng.standard_normal(shape)


def _per_row(values, stack):
    """Per-row values shaped to broadcast against the rows of a stack."""
    values = np.asarray(values)
    return values.reshape(values.shape + (1,) * (np.ndim(stack) - values.ndim))


def _row_norms(norm, stack):
    """The norm of each row of a stack; a norm must return one value per row."""
    values = np.asarray(norm(stack), dtype=float)
    if values.shape != (len(stack),):
        raise TypeError(
            f"a norm of a stack of {len(stack)} probes returned shape {values.shape}; "
            "NewtonProblem norms must return one value per row of a stack"
        )
    return values


def _takes(callback, keyword) -> bool:
    """Whether a callback accepts the keyword; a builtin without a signature takes none."""
    try:
        return keyword in inspect.signature(callback).parameters
    except ValueError:
        return False


def _weighted_max(norm, stack, weights):
    """max over the rows of norm(row) / weight."""
    return float(np.max(_row_norms(norm, stack) / weights))


# the certificate's seed-determined half, every array read-only: the residual
# probes (rows) and their certificate norms, the pairs' (du, dv, d) stacks and
# their iterate norms, and each pair's two ball radii in units of _BALL_RADIUS
ProbeSet = NamedTuple(
    "ProbeSet", [(name, np.ndarray) for name in ("residual", "residual_norms", "iterate", "iterate_norms", "radii")]
)


def draw_probe_set(seed, sample_residual, sample_iterate, certify_residual_norm, iterate_norm) -> ProbeSet:
    """Draw the probes one after the other (residual probes, then per pair du, dv,
    d and two radii) and take their norms; a degenerate norm raises SamplingFailed."""
    rng = np.random.default_rng(seed)
    residual = np.stack([sample_residual(rng) for _ in range(_RESIDUAL_SAMPLES)])
    triples, radii = [], []
    for _ in range(_LIPSCHITZ_PAIRS):
        triples.append([sample_iterate(rng) for _ in range(3)])
        radii.append([rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)])
    iterate = np.stack([np.stack(column) for column in zip(*triples)])
    norms = np.stack([_row_norms(iterate_norm, stack) for stack in iterate])
    arrays = (residual, _row_norms(certify_residual_norm, residual), iterate, norms, np.asarray(radii).T)
    for kind, values in (("residual", arrays[1]), ("iterate", norms)):
        if np.any(values == 0.0) or not np.all(np.isfinite(values)):
            raise SamplingFailed(f"{kind} probe has degenerate norm")
    for array in arrays:
        array.setflags(write=False)
    return ProbeSet(*arrays)


def _derivative_action(problem: NewtonProblem, x, d):
    if problem.derivative_action is not None:
        return problem.derivative_action(x, d)
    scale = _row_norms(problem.iterate_norm, d)
    if np.any(scale == 0.0) or not np.all(np.isfinite(scale)):
        raise SamplingFailed("degenerate direction for the finite-difference derivative")
    h = _per_row(_FD_STEP / scale, d)
    return (problem.residual(x + h * d) - problem.residual(x - h * d)) / (2.0 * h)


def _reach(inverse, probes):
    """Steps of the probes and a per-row defect, NaN where the inverse reached the probe."""
    try:
        return inverse(probes), np.full(len(probes), np.nan)
    except NeumannDiverges as exc:
        return exc.steps, np.broadcast_to(np.asarray(exc.defect, dtype=float), (len(probes),))


def certify(problem: NewtonProblem, x0, options: CertifyOptions = CertifyOptions()) -> NewtonCertificate:
    """The certificate at x0, from the problem's computed bounds or else sampled."""
    bounds = problem.bounds(x0) if problem.bounds is not None else _sampled_bounds(problem, x0, options.seed)
    omega1, omega2, omega3, identity_defect = (float(value) for value in bounds)
    # with nothing bounding the right inverse or DA the product is inf, also
    # at an exact start (omega3 = 0)
    product = np.inf if np.inf in (omega1, omega2) else 4.0 * omega1 * (omega1 + 1.0) * (omega2 + 1.0) * omega3
    return NewtonCertificate(
        omega1=omega1,
        omega2=omega2,
        omega3=omega3,
        product=float(product),
        identity_defect=identity_defect,
        certified=bool(product < 1.0 and identity_defect <= _CHECK_TOL and omega3 <= options.tol),
    )


def _sampled_bounds(problem: NewtonProblem, x0, seed) -> CertificateBounds:
    """Sample the three constants and test the right-inverse identity at x0."""
    res_norm = problem.certify_residual_norm or problem.residual_norm

    r0 = problem.residual(x0)
    omega3 = res_norm(r0)
    inverse = problem.right_inverse(x0)
    # every probe is drawn before any is used
    if problem.probe_set is None:
        drawn = draw_probe_set(seed, _gaussian_like(r0), _gaussian_like(x0), res_norm, problem.iterate_norm)
    else:
        drawn = problem.probe_set(seed)
    probes, rn, (du, dv, d), (nu, nv, nd), (radius_u, radius_v) = drawn

    if _takes(inverse, "target"):
        # each probe only as exactly as the identity check reads it
        inverse = functools.partial(inverse, target=_PROBE_FORCING * _CHECK_TOL * rn)
    steps, missed_defect = _reach(inverse, probes)
    missed = ~np.isnan(missed_defect)
    # a probe the right inverse cannot reach fails the identity check and
    # has no step to bound omega1 with
    identity_defect = float(np.max(missed_defect[missed])) if missed.any() else 0.0
    # with every probe missed nothing bounds the right inverse
    omega1 = np.inf
    reached = ~missed
    if reached.any():
        step, r, scale = steps[reached], probes[reached], rn[reached]
        omega1 = _weighted_max(problem.iterate_norm, step, scale)
        recovered = _derivative_action(problem, x0, step)
        identity_defect = max(identity_defect, _weighted_max(res_norm, recovered - r, scale))

    u = x0 + _per_row(_BALL_RADIUS * radius_u / nu, du) * du
    v = x0 + _per_row(_BALL_RADIUS * radius_v / nv, dv) * dv
    gap = _row_norms(problem.iterate_norm, u - v)
    omega2 = 0.0
    apart = gap != 0.0
    if apart.any():
        d = d[apart]
        diff = _derivative_action(problem, u[apart], d) - _derivative_action(problem, v[apart], d)
        omega2 = _weighted_max(res_norm, diff, gap[apart] * nd[apart])
    return CertificateBounds(omega1, omega2, omega3, identity_defect)


def iterate(
    problem: NewtonProblem,
    x0,
    options: IterateOptions = IterateOptions(),
    certificate: Optional[NewtonCertificate] = None,
) -> NewtonRun:
    """Run x <- x - lambda B(x) A(x), halving lambda on residual increase.

    Raises NoConvergence (with the residual history attached) when the
    damping budget or the iteration budget is exhausted.
    """
    x = x0
    r = problem.residual(x)
    rn = problem.residual_norm(r)
    history = []
    damped = False
    for it in range(options.max_iter):
        history.append(float(rn))
        if rn < options.tol:
            return NewtonRun(
                x=x,
                residual_norms=tuple(history),
                iterations=it,
                converged=True,
                damped=damped,
                certificate=certificate,
            )
        inverse = problem.right_inverse(x)
        if _takes(inverse, "target"):
            # half the forcing bound, so that roundoff in the inverse's own
            # defect estimate cannot push the step past the bound
            step = inverse(r, target=0.5 * max(min(_FORCING, rn) * rn, 0.5 * options.tol))
        else:
            step = inverse(r)
        lam = 1.0
        trial = x - lam * step
        trial_r = problem.residual(trial)
        trial_norm = problem.residual_norm(trial_r)
        halvings = 0
        while trial_norm >= rn and halvings < _MAX_HALVINGS:
            lam *= 0.5
            halvings += 1
            trial = x - lam * step
            trial_r = problem.residual(trial)
            trial_norm = problem.residual_norm(trial_r)
        if trial_norm >= rn and rn > options.tol:
            raise NoConvergence(
                f"residual stagnated at {rn:.3e} after {halvings} halvings",
                history=tuple(history),
            )
        if halvings > 0:
            damped = True
        x, r, rn = trial, trial_r, trial_norm
    raise NoConvergence(
        f"no convergence within {options.max_iter} iterations", history=tuple(history)
    )
