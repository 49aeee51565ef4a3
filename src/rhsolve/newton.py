"""Newton iteration with an a-priori convergence certificate.

A problem supplies the residual map A, a right inverse factory B (so that
DA(x) B(x) = identity on residuals), and the norms to measure both spaces.
The certificate bounds, by sampling,

    omega1 >= ||B(x0)||,   omega2 >= Lip(DA) near x0,   omega3 = ||A(x0)||,

and certifies convergence of the undamped iteration x <- x - B(x) A(x) when

    4 * omega1 * (omega1 + 1) * (omega2 + 1) * omega3 < 1.

The certificate draws all its probes first and then calls each callback
once per stack of probes, not once per probe; the iteration passes single
vectors. The iteration itself damps steps that increase the residual;
damping is recorded because it voids the certificate's applicability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NeumannDiverges, NoConvergence, SamplingFailed


@dataclass(frozen=True)
class NewtonProblem:
    """Residual map, right inverse, and the norms of both spaces.

    derivative_action(x, d) -> DA(x)[d] is optional; a central finite
    difference of the residual is used when absent. Samplers draw random
    directions in each space (defaults: Gaussian arrays shaped like the
    example vectors). certify_* norms, when given, replace the iteration
    norms inside the certificate only.

    Stacks: certify passes arrays with a leading probe axis, one probe per
    row. right_inverse(x)(r), derivative_action(x, d) and the residual (in
    the finite difference only) act row by row, broadcasting one point
    against a stack of directions, and every norm returns one value per
    row (certify raises TypeError on a norm that does not). iterate passes
    single vectors only.

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
    """Sample the three constants and test the right-inverse identity at x0."""
    rng = np.random.default_rng(options.seed)
    res_norm = problem.certify_residual_norm or problem.residual_norm
    it_norm = problem.certify_iterate_norm or problem.iterate_norm

    r0 = problem.residual(x0)
    omega3 = res_norm(r0)
    inverse = problem.right_inverse(x0)
    sample_r = problem.residual_sampler or _gaussian_like(r0)
    sample_x = problem.iterate_sampler or _gaussian_like(x0)

    # every probe is drawn before any is used, in the order of one probe
    # after the other: residual probes, then per pair du, dv, d and two radii
    probes = np.stack([sample_r(rng) for _ in range(_RESIDUAL_SAMPLES)])
    triples, radii = [], []
    for _ in range(_LIPSCHITZ_PAIRS):
        triples.append([sample_x(rng) for _ in range(3)])
        radii.append([rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)])

    rn = _row_norms(res_norm, probes)
    if np.any(rn == 0.0) or not np.all(np.isfinite(rn)):
        raise SamplingFailed("residual probe has degenerate norm")
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
        omega1 = float(np.max(_row_norms(it_norm, step) / scale))
        recovered = _derivative_action(problem, x0, step)
        identity_defect = max(identity_defect, float(np.max(_row_norms(res_norm, recovered - r) / scale)))

    du, dv, d = (np.stack(column) for column in zip(*triples))
    nu, nv, nd = (_row_norms(problem.iterate_norm, stack) for stack in (du, dv, d))
    norms = np.stack([nu, nv, nd])
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise SamplingFailed("iterate probe has degenerate norm")
    radius_u, radius_v = np.asarray(radii).T
    u = x0 + _per_row(_BALL_RADIUS * radius_u / nu, du) * du
    v = x0 + _per_row(_BALL_RADIUS * radius_v / nv, dv) * dv
    gap = _row_norms(problem.iterate_norm, u - v)
    omega2 = 0.0
    apart = gap != 0.0
    if apart.any():
        d = d[apart]
        diff = _derivative_action(problem, u[apart], d) - _derivative_action(problem, v[apart], d)
        omega2 = float(np.max(_row_norms(res_norm, diff) / (gap[apart] * nd[apart])))

    product = 4.0 * omega1 * (omega1 + 1.0) * (omega2 + 1.0) * omega3 if reached.any() else np.inf
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
                certificate_applicable=bool(
                    certificate is not None and certificate.certified and not damped
                ),
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
        x, r, rn = trial, trial_r, trial_norm
    raise NoConvergence(
        f"no convergence within {options.max_iter} iterations", history=tuple(history)
    )
