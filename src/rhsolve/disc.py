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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boundary import (
    BoundaryGrid,
    BoundaryTrace,
    analytic_completion,
    band_limited_sampler,
    conjugate_samples,
    holder_iterate_norm,
    holder_residual_norm,
)
from .curves import CurveFamily, EtaDecomposition, builtin_circle_family, eta_decompose, monomial_transform, on_grid
from .errors import NoConvergence
from .newton import CertifyOptions, IterateOptions, NewtonProblem, NewtonRun, certify, iterate
from .trig import as_trig_polynomial


@dataclass(frozen=True)
class DiscSolveOptions:
    grid_n: int = 256
    tol: float = 1e-10
    max_iter: int = 30
    certify: bool = True
    seed: int = 0


@dataclass(frozen=True)
class DiscSolution:
    grid: BoundaryGrid
    winding: int
    f_trace: BoundaryTrace
    g_values: np.ndarray
    residual_sup: float
    run: Optional[NewtonRun] = None


def right_inverse_apply(eta: EtaDecomposition, rhs: np.ndarray) -> np.ndarray:
    """Solve 2 Re(eta k) = rhs with k in the holomorphic class.

    rhs is one real trace or a stack of them along the last axis.
    """
    phi = np.exp(-eta.a - eta.b_tilde) * np.asarray(rhs, dtype=float)
    analytic = phi + 1j * conjugate_samples(eta.grid, phi)
    return 0.5 * np.exp(eta.b_tilde - 1j * eta.b) * analytic


def _initial_log_trace(fam_t: CurveFamily, grid: BoundaryGrid) -> np.ndarray:
    # radius guess along the ray the solution would follow if its phase were
    # exactly the prescribed winding; exact for centered-circle families
    u = np.log(fam_t.ray_radius(grid.theta, np.zeros(grid.n)))
    return analytic_completion(BoundaryTrace(grid, u)).values


def _sup(v):
    """Sup norm, one value per row of a stack."""
    return np.max(np.abs(v), axis=-1)


def _g_space_problem(fam_t: CurveFamily, grid: BoundaryGrid) -> NewtonProblem:
    theta = grid.theta
    fam_t = on_grid(fam_t, theta)
    probe = band_limited_sampler(grid)

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
        iterate_sampler=lambda rng: probe(rng) + 1j * probe(rng),
        residual_sampler=probe,
        certify_iterate_norm=lambda d: holder_iterate_norm(grid, (d,)),
        certify_residual_norm=lambda r: holder_residual_norm(grid, (r,)),
    )


def _finish(family: CurveFamily, winding: int, grid: BoundaryGrid, g, run) -> DiscSolution:
    f_vals = np.exp(1j * winding * grid.theta) * np.exp(g)
    f_trace = BoundaryTrace(grid, f_vals)
    residual_sup = float(_sup(family.rho(grid.theta, f_vals)))
    return DiscSolution(
        grid=grid,
        winding=winding,
        f_trace=f_trace,
        g_values=np.asarray(g, dtype=complex),
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
    cert = certify(problem, g0, CertifyOptions(seed=options.seed)) if options.certify else None
    try:
        run = iterate(problem, g0, it_opts, certificate=cert)
    except NoConvergence:
        run = _homotopy_run(family, winding, grid, it_opts)
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
    R = as_trig_polynomial(radius)
    family = builtin_circle_family(R)
    grid = BoundaryGrid(grid_n)
    u = np.log(R(grid.theta))
    g = analytic_completion(BoundaryTrace(grid, u)).values
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
