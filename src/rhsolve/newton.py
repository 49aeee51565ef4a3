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
forms the verdict; both solvers do. Without bounds, certify samples the
constants with Gaussian probes shaped like the residual and the iterate:
it draws every probe and checks its norm first, then runs the callbacks on
one probe at a time. The right inverse must reach every probe: an error it
raises ends certify. omega1, the identity defect and omega2 are each the
largest ratio over the probes of a norm to its probe's scale. The iteration
itself damps steps that increase the residual and records that it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NoConvergence, SamplingFailed


@dataclass(frozen=True)
class NewtonProblem:
    """Residual map, right inverse, and the norms of both spaces.

    derivative_action(x, d) -> DA(x)[d] is optional; a central finite
    difference of the residual is used when absent.

    Computed bounds: bounds(x), when given, returns the CertificateBounds
    at x, and certify forms its verdict from them without sampling. A
    verdict from bounds read off a grid's DFT says the contraction is
    bounded, not proven (see the module docstring).

    Sampled bounds: without bounds, certify samples the constants from
    Gaussian probes that draw_probes draws, measuring residuals with
    residual_norm and omega1's steps and omega2's ball with iterate_norm.

    Every callback takes and returns one vector: certify and iterate pass
    one residual, step or direction at a time.
    """

    residual: Callable
    right_inverse: Callable
    iterate_norm: Callable
    residual_norm: Callable
    derivative_action: Optional[Callable] = None
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
# damping budget: step halvings tried before the iteration gives up; an
# accepted step that lowers the residual by less than _STAGNATION of itself
# has reached the grid's floor, and the iteration gives up there too
_MAX_HALVINGS = 6
_STAGNATION = 1e-6


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


def draw_probes(seed, sample_residual, sample_iterate, residual_norm, iterate_norm) -> tuple:
    """The sampled certificate's seed-determined half, drawn one after the other.

    Returns the residual probes and their residual norms, then the Lipschitz
    pairs as ((du, dv, d), the two ball radii in units of _BALL_RADIUS) and
    the iterate norms of each pair's (du, dv, d); per pair, du, dv, d and
    the two radii are drawn in turn. A degenerate norm raises SamplingFailed.
    """
    rng = np.random.default_rng(seed)
    residuals = [sample_residual(rng) for _ in range(_RESIDUAL_SAMPLES)]
    pairs = [
        ([sample_iterate(rng) for _ in range(3)], (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
        for _ in range(_LIPSCHITZ_PAIRS)
    ]
    residual_norms = [residual_norm(r) for r in residuals]
    pair_norms = [[iterate_norm(d) for d in directions] for directions, _ in pairs]
    for kind, values in (("residual", residual_norms), ("iterate", pair_norms)):
        if np.any(np.asarray(values) == 0.0) or not np.all(np.isfinite(values)):
            raise SamplingFailed(f"{kind} probe has degenerate norm")
    return residuals, residual_norms, pairs, pair_norms


def _derivative_action(problem: NewtonProblem, x, d):
    if problem.derivative_action is not None:
        return problem.derivative_action(x, d)
    scale = problem.iterate_norm(d)
    if scale == 0.0 or not np.isfinite(scale):
        raise SamplingFailed("degenerate direction for the finite-difference derivative")
    h = _FD_STEP / scale
    return (problem.residual(x + h * d) - problem.residual(x - h * d)) / (2.0 * h)


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
    res_norm, it_norm = problem.residual_norm, problem.iterate_norm
    r0 = problem.residual(x0)
    omega3 = res_norm(r0)
    inverse = problem.right_inverse(x0)
    # every probe is drawn before any is used
    residuals, residual_norms, pairs, pair_norms = draw_probes(
        seed, _gaussian_like(r0), _gaussian_like(x0), res_norm, it_norm
    )

    growth, defects = [], []
    for probe, scale in zip(residuals, residual_norms):
        step = inverse(probe)
        growth.append(it_norm(step) / scale)
        defects.append(res_norm(_derivative_action(problem, x0, step) - probe) / scale)

    slopes = []
    for ((du, dv, d), (radius_u, radius_v)), (nu, nv, nd) in zip(pairs, pair_norms):
        u = x0 + (_BALL_RADIUS * radius_u / nu) * du
        v = x0 + (_BALL_RADIUS * radius_v / nv) * dv
        gap = it_norm(u - v)
        if gap != 0.0:
            diff = _derivative_action(problem, u, d) - _derivative_action(problem, v, d)
            slopes.append(res_norm(diff) / (gap * nd))
    omega2 = float(np.max(slopes)) if slopes else 0.0
    return CertificateBounds(float(np.max(growth)), omega2, omega3, float(np.max(defects)))


def iterate(
    problem: NewtonProblem,
    x0,
    options: IterateOptions = IterateOptions(),
    certificate: Optional[NewtonCertificate] = None,
) -> NewtonRun:
    """Run x <- x - lambda B(x) A(x), halving lambda on residual increase.

    Raises NoConvergence (with the residual history attached) when the
    damping budget or the iteration budget is exhausted, or when an
    accepted step lowers the residual by less than _STAGNATION of itself.
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
        step = problem.right_inverse(x)(r)
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
        if trial_norm >= options.tol and rn - trial_norm < _STAGNATION * rn:
            drop = 1.0 - trial_norm / rn
            message = f"residual stagnated at {trial_norm:.3e}: a step lowered it by {drop:.1e} of itself"
            raise NoConvergence(message, history=(*history, float(trial_norm)))
        x, r, rn = trial, trial_r, trial_norm
    raise NoConvergence(
        f"no convergence within {options.max_iter} iterations", history=tuple(history)
    )
