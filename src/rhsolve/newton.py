"""Newton iteration with an a-priori convergence certificate.

A problem supplies the residual map A, a right inverse factory B (so that
DA(x) B(x) = identity on residuals), and the norms to measure both spaces.
The certificate bounds, by sampling,

    omega1 >= ||B(x0)||,   omega2 >= Lip(DA) near x0,   omega3 = ||A(x0)||,

and certifies convergence of the undamped iteration x <- x - B(x) A(x) when

    4 * omega1 * (omega1 + 1) * (omega2 + 1) * omega3 < 1.

The iteration itself optionally damps steps that increase the residual;
damping is recorded because it voids the certificate's applicability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, SamplingFailed


@dataclass(frozen=True)
class NewtonProblem:
    """Residual map, right inverse, and the norms of both spaces.

    derivative_action(x, d) -> DA(x)[d] is optional; a central finite
    difference of the residual is used when absent. Samplers draw random
    directions in each space (defaults: Gaussian arrays shaped like the
    example vectors). certify_* norms, when given, replace the iteration
    norms inside the certificate only.
    """

    residual: Callable
    right_inverse: Callable
    iterate_norm: Callable
    residual_norm: Callable
    derivative_action: Optional[Callable] = None
    iterate_sampler: Optional[Callable] = None
    residual_sampler: Optional[Callable] = None
    certify_iterate_norm: Optional[Callable] = None
    certify_residual_norm: Optional[Callable] = None


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


@dataclass(frozen=True)
class CertifyOptions:
    seed: int = 0


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
    allow_damping: bool = True


@dataclass(frozen=True)
class NewtonRun:
    x: object
    residual_norms: tuple
    iterations: int
    converged: bool
    damped: bool
    certificate: Optional[NewtonCertificate] = None
    certificate_applicable: bool = False


def _gaussian_like(example):
    arr = np.asarray(example)

    def sample(rng):
        v = rng.standard_normal(arr.shape)
        if np.iscomplexobj(arr):
            v = v + 1j * rng.standard_normal(arr.shape)
        return v

    return sample


def _derivative_action(problem: NewtonProblem, x, d):
    if problem.derivative_action is not None:
        return problem.derivative_action(x, d)
    scale = problem.iterate_norm(d)
    if scale == 0.0 or not np.isfinite(scale):
        raise SamplingFailed("degenerate direction for the finite-difference derivative")
    h = _FD_STEP / scale
    return (problem.residual(x + h * d) - problem.residual(x - h * d)) / (2.0 * h)


def certify(problem: NewtonProblem, x0, options: CertifyOptions = CertifyOptions()) -> NewtonCertificate:
    """Sample the three constants and test the right-inverse identity at x0."""
    rng = np.random.default_rng(options.seed)
    res_norm = problem.certify_residual_norm or problem.residual_norm
    it_norm = problem.certify_iterate_norm or problem.iterate_norm

    r0 = problem.residual(x0)
    omega3 = res_norm(r0)
    inverse = problem.right_inverse(x0)
    sample_r = problem.residual_sampler or _gaussian_like(r0)
    sample_x = problem.iterate_sampler or _gaussian_like(x0)

    omega1 = 0.0
    identity_defect = 0.0
    for _ in range(_RESIDUAL_SAMPLES):
        r = sample_r(rng)
        rn = res_norm(r)
        if rn == 0.0 or not np.isfinite(rn):
            raise SamplingFailed("residual probe has degenerate norm")
        step = inverse(r)
        omega1 = max(omega1, it_norm(step) / rn)
        recovered = _derivative_action(problem, x0, step)
        identity_defect = max(identity_defect, res_norm(recovered - r) / rn)

    omega2 = 0.0
    for _ in range(_LIPSCHITZ_PAIRS):
        du, dv, d = sample_x(rng), sample_x(rng), sample_x(rng)
        nu, nv, nd = problem.iterate_norm(du), problem.iterate_norm(dv), problem.iterate_norm(d)
        if min(nu, nv, nd) == 0.0 or not all(np.isfinite(v) for v in (nu, nv, nd)):
            raise SamplingFailed("iterate probe has degenerate norm")
        u = x0 + (_BALL_RADIUS * rng.uniform(0.1, 1.0) / nu) * du
        v = x0 + (_BALL_RADIUS * rng.uniform(0.1, 1.0) / nv) * dv
        gap = problem.iterate_norm(u - v)
        if gap == 0.0:
            continue
        diff = _derivative_action(problem, u, d) - _derivative_action(problem, v, d)
        omega2 = max(omega2, res_norm(diff) / (gap * nd))

    product = 4.0 * omega1 * (omega1 + 1.0) * (omega2 + 1.0) * omega3
    certified = bool(product < 1.0 and identity_defect <= _CHECK_TOL)
    return NewtonCertificate(
        omega1=float(omega1),
        omega2=float(omega2),
        omega3=float(omega3),
        product=float(product),
        identity_defect=float(identity_defect),
        certified=certified,
    )


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
    history = []
    damped = False
    for it in range(options.max_iter):
        r = problem.residual(x)
        rn = problem.residual_norm(r)
        history.append(float(rn))
        if rn < options.tol:
            return NewtonRun(
                x=x,
                residual_norms=tuple(history),
                iterations=it,
                converged=True,
                damped=damped,
                certificate=certificate,
                certificate_applicable=bool(
                    certificate is not None and certificate.certified and not damped
                ),
            )
        step = problem.right_inverse(x)(r)
        lam = 1.0
        trial = x - lam * step
        trial_norm = problem.residual_norm(problem.residual(trial))
        halvings = 0
        while trial_norm >= rn and options.allow_damping and halvings < _MAX_HALVINGS:
            lam *= 0.5
            halvings += 1
            trial = x - lam * step
            trial_norm = problem.residual_norm(problem.residual(trial))
        if trial_norm >= rn and rn > options.tol:
            raise NoConvergence(
                f"residual stagnated at {rn:.3e} after {halvings} halvings",
                history=tuple(history),
            )
        if halvings > 0:
            damped = True
        x = trial
    raise NoConvergence(
        f"no convergence within {options.max_iter} iterations", history=tuple(history)
    )
