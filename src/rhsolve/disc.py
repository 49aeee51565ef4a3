"""Disc solver: holomorphic f with boundary values on prescribed curves.

Seeks f holomorphic on the unit disc, with winding number n on the boundary,
such that f(e^{i theta}) lies on the curve gamma_theta for every theta. The
prescribed winding is divided out by the multiplier exp(i n theta), and the
remaining nonvanishing factor is written as exp(g); Newton runs on the
boundary trace of g, where the linearized equation 2 Re(eta k) = r has the
explicit right inverse

    k = 1/2 exp(b~ - i b) (phi + i T phi),   phi = exp(-a - b~) r,

built from the decomposition eta = exp(a + i b), b~ = T b. Every factor of k
is a boundary value of a holomorphic function, so the iteration never leaves
the holomorphic class (up to spectral truncation, which is not projected
away and shows up honestly in the residual).

A certified solve certifies the converged iterate g (or the homotopy's, when
the direct run fails) with computed bounds in the Wiener algebra A of
absolutely summable Fourier series, ||u||_A = sum |u_k|, where
||uv||_A <= ||u||_A ||v||_A:

    omega1 = 1/2 ||exp(b~ - i b)||_A ||exp(-a - b~)||_A,

because ||phi + i T phi||_A = ||phi||_A for real phi;

    omega3 = ||rho(theta, exp(g))||_A

on twice the grid, from the zero-padded g, so the residual between the
nodes counts; and omega2, a Lipschitz bound of DA on the A-ball of radius
_BALL_RADIUS around g. It rests on d rho / d w-bar being affine in (w, w-bar)
for the builtin families and their divisor transforms,
alpha + beta w + gamma w-bar, so that eta = conj(alpha) h + conj(beta) |h|^2
+ conj(gamma) h^2 with h = exp(g); a family that is not affine gets
omega2 = inf and no certificate. The right-inverse identity defect is
computed from the same weights. The A-norms are read off the DFT of the
grid samples, so the aliasing tail is estimated, not enclosed. The row
helpers _rho_rows and _fine_residual take one row here and both
boundaries' rows in the annulus certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .boundary import BoundaryGrid, BoundaryTrace, _nodes, _refined_samples, conjugate_samples, wiener_norm
from .curves import CurveFamily, EtaDecomposition, builtin_circle_family, eta_decompose, monomial_transform, on_grid
from .errors import NoConvergence
from .newton import (
    _BALL_RADIUS,
    CertificateBounds,
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    NewtonRun,
    certify,
    iterate,
)
from .trig import as_trig_polynomial


@dataclass(frozen=True)
class DiscSolveOptions:
    grid_n: int = 256
    tol: float = 1e-10
    max_iter: int = 30
    certify: bool = True


@dataclass(frozen=True)
class DiscSolution:
    grid: BoundaryGrid
    f_trace: BoundaryTrace
    residual_sup: float
    run: Optional[NewtonRun] = None


def right_inverse_apply(eta: EtaDecomposition, rhs: np.ndarray) -> np.ndarray:
    """Solve 2 Re(eta k) = rhs with k in the holomorphic class.

    k = 1/2 k_weight (phi + i T phi) with phi = phi_weight rhs; rhs is one
    real trace or a stack of them along the last axis.
    """
    phi = eta.phi_weight * np.asarray(rhs, dtype=float)
    analytic = phi + 1j * conjugate_samples(eta.grid, phi)
    return 0.5 * eta.k_weight * analytic


def _initial_log_trace(fam_t: CurveFamily, grid: BoundaryGrid) -> np.ndarray:
    # radius guess along the ray the solution would follow if its phase were
    # exactly the prescribed winding; exact for centered-circle families
    u = np.log(fam_t.ray_radius(grid.theta, np.zeros(grid.n)))
    return u + 1j * conjugate_samples(grid, u)


def _sup(v):
    """Sup norm, one value per row of a stack."""
    return np.max(np.abs(v), axis=-1)


# the fourth point of the affinity check, and its tolerance relative to the
# profiles' size there
_AFFINE_PROBE = 0.6 - 1.7j
_AFFINE_TOL = 1e-12


def _affine_dbar(fam_t: CurveFamily, theta: np.ndarray):
    """alpha, beta, gamma with dbar_w(theta, w) = alpha + beta w + gamma conj(w), or None.

    The profiles are read off at w = 0, 1 and i, and the family is taken as
    affine when it matches them at a fourth point to rounding; the four
    probes are one call, a (4, N) stack of constant rows.
    """
    w = _AFFINE_PROBE
    probes = np.array([0.0, 1.0, 1j, w])[:, None] * np.ones(theta.shape)
    alpha, one, unit, at_w = np.asarray(fam_t.dbar_w(theta, probes), dtype=complex)
    real, imag = one - alpha, (unit - alpha) / 1j
    beta, gamma = 0.5 * (real + imag), 0.5 * (real - imag)
    scale = np.abs(alpha) + (np.abs(beta) + np.abs(gamma)) * abs(w)
    if not np.all(np.abs(at_w - (alpha + beta * w + gamma * np.conj(w))) <= _AFFINE_TOL * scale):
        return None
    return alpha, beta, gamma


def _rho_rows(families, theta, traces) -> np.ndarray:
    """rho of each boundary's family at its trace, one row per boundary."""
    return np.array([fam.rho(theta, trace) for fam, trace in zip(families, traces)])


def _row_norms(eta, phi_weight, k_weight, *extra) -> tuple:
    """Per boundary row: ||phi_weight||_A, the weight defect delta, and the A-norm of each extra row.

    delta = ||Re(m) phi_weight - 1||_A + ||Im m||_A ||phi_weight||_A bounds
    the A-norm of the defect of 2 Re(eta k) = r under the explicit inverse,
    per unit ||r||_A: 2 Re(eta k) = Re(m) phi - Im(m) T phi with
    phi = phi_weight r and m = eta k_weight = exp(a + b~) up to rounding,
    and ||T||_A <= 1. The arguments are one row each (the disc) or (rows, N)
    stacks; all norms come from one FFT, and each row's are bitwise its own.
    """
    m = eta * k_weight
    phi, defect_re, defect_im, *rest = wiener_norm(np.stack([phi_weight, m.real * phi_weight - 1.0, m.imag, *extra]))
    return (phi, defect_re + defect_im * phi, *rest)


def _fine_residual(families, traces, units=1.0):
    """omega3: the largest A-norm of the rows rho_i / u_i at traces sampled on twice the grid."""
    theta = _nodes(np.shape(traces[0])[-1])
    return np.max(wiener_norm(_rho_rows(families, theta, traces)) / units)


def _bounds(fam_t: CurveFamily, grid: BoundaryGrid, g) -> CertificateBounds:
    """The computed certificate bounds at g (see the module docstring)."""
    h = np.exp(g)
    dec = eta_decompose(fam_t, BoundaryTrace(grid, h))
    rows = [dec.k_weight]
    profiles = _affine_dbar(fam_t, grid.theta)
    if profiles is not None:
        alpha, beta, gamma = np.conj(profiles)
        rows += [alpha * h, beta * np.abs(h) ** 2, gamma * h * h]
    phi_norm, identity_defect, k_norm, *affine = _row_norms(dec.eta.values, dec.phi_weight, dec.k_weight, *rows)
    omega1 = 0.5 * k_norm * phi_norm
    omega2 = np.inf
    if profiles is not None:
        # eta at g + d is alpha h e^d + beta |h|^2 e^(d + conj d) + gamma h^2 e^(2d),
        # and ||e^x - e^y||_A <= e^max(||x||_A, ||y||_A) ||x - y||_A
        grow = np.exp(_BALL_RADIUS)
        linear, square, conj_square = affine
        omega2 = 2.0 * (grow * linear + 2.0 * grow**2 * (square + conj_square))
    omega3 = _fine_residual((fam_t,), (np.exp(_refined_samples(g, 2)),))
    return CertificateBounds(omega1, omega2, omega3, identity_defect)


def _g_space_problem(fam_t: CurveFamily, grid: BoundaryGrid) -> NewtonProblem:
    theta = grid.theta
    fam_t = on_grid(fam_t, theta)

    def residual(g):
        return np.asarray(fam_t.rho(theta, np.exp(g)), dtype=float)

    def right_inverse(g):
        dec = eta_decompose(fam_t, BoundaryTrace(grid, np.exp(g)))
        return lambda r: right_inverse_apply(dec, r)

    def derivative_action(g, d):
        h = np.exp(g)
        eta = h * np.conj(fam_t.dbar_w(theta, h))
        return 2.0 * (eta * d).real

    return NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=_sup,
        residual_norm=_sup,
        derivative_action=derivative_action,
        bounds=lambda g: _bounds(fam_t, grid, g),
    )


def _finish(family: CurveFamily, winding: int, grid: BoundaryGrid, g, run) -> DiscSolution:
    f_vals = np.exp(1j * winding * grid.theta) * np.exp(g)
    f_trace = BoundaryTrace(grid, f_vals)
    residual_sup = float(_sup(family.rho(grid.theta, f_vals)))
    return DiscSolution(
        grid=grid,
        f_trace=f_trace,
        residual_sup=residual_sup,
        run=run,
    )


def solve_disc(family: CurveFamily, winding: int, options: DiscSolveOptions = DiscSolveOptions()) -> DiscSolution:
    """Solve the disc problem with the prescribed boundary winding.

    A failed direct solve is retried along a linear blend from a fitted
    circle family to the target, warm-starting each stage.
    """
    if winding < 0:
        raise ValueError("a holomorphic solution cannot have negative boundary winding")
    grid = BoundaryGrid(options.grid_n)
    family = on_grid(family, grid.theta)
    fam_t = on_grid(monomial_transform(family, winding), grid.theta)
    problem = _g_space_problem(fam_t, grid)
    g0 = _initial_log_trace(fam_t, grid)
    it_opts = IterateOptions(tol=options.tol, max_iter=options.max_iter)
    try:
        run = iterate(problem, g0, it_opts)
    except NoConvergence:
        run = _homotopy_run(family, winding, grid, it_opts)
    if options.certify:
        run = replace(run, certificate=certify(problem, run.x, CertifyOptions(tol=options.tol)))
    return _finish(family, winding, grid, run.x, run)


def _blend_families(circle: CurveFamily, target: CurveFamily, t: float) -> CurveFamily:
    mix = lambda fa, fb: (lambda theta, w: (1.0 - t) * fa(theta, w) + t * fb(theta, w))
    return CurveFamily(
        rho=mix(circle.rho, target.rho),
        dbar_w=mix(circle.dbar_w, target.dbar_w),
        ray_radius=circle.ray_radius,  # only used to seed the t = 0 stage
        bind=lambda theta: _blend_families(on_grid(circle, theta), on_grid(target, theta), t),
    )


def _homotopy_run(family: CurveFamily, winding: int, grid: BoundaryGrid, it_opts: IterateOptions):
    theta = grid.theta
    r_bar = float(np.mean(family.ray_radius(theta, winding * theta)))
    circle = builtin_circle_family(as_trig_polynomial(r_bar))
    g = _initial_log_trace(monomial_transform(circle, winding), grid)
    run = None
    for t in (0.25, 0.5, 0.75, 1.0):
        blend = _blend_families(circle, family, t)
        problem = _g_space_problem(monomial_transform(blend, winding), grid)
        run = iterate(problem, g, it_opts)
        g = run.x
    return run


def solve_disc_circle_closed_form(radius, winding: int, grid_n: int = 256) -> DiscSolution:
    """Exact solution for centered-circle families |f| = R(theta).

    log |f| on the boundary is forced to log R, so g = log R + i T log R and
    f = exp(i n theta) exp(g); this equals the Newton initializer, which is
    why circle problems converge with zero iterations.
    """
    if winding < 0:
        raise ValueError("a holomorphic solution cannot have negative boundary winding")
    R = as_trig_polynomial(radius)
    family = builtin_circle_family(R)
    grid = BoundaryGrid(grid_n)
    u = np.log(R(grid.theta))
    g = u + 1j * conjugate_samples(grid, u)
    return _finish(family, winding, grid, g, None)


def gauge_align(values: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate values by the unit phase that best matches the reference.

    Circle families are rotation invariant, so solutions are defined up to a
    global phase; comparisons go through this alignment.
    """
    inner = np.sum(np.conj(values) * reference)
    if inner == 0:
        return values
    return values * (inner / abs(inner))
