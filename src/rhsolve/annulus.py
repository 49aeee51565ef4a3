"""Holomorphic boundary-value solver on the annulus q < |z| < 1.

This module keeps the collar, the glue and the two solvers; the Laurent
layer they work on (modes, traces, harmonic extension) is rhsolve.domains.
Each boundary condition is first solved as a disc problem in its own
collar, the inner one after the orientation-reversing pullback
zeta -> q / zeta. The two collar pieces are combined into one Laurent
iterate (telescoping: each piece is exponentially small at the other
boundary once the windings are balanced by a monomial twist). Newton
iteration on the Laurent coefficients then removes the gluing error.

The linearized equations are solved by the collar right inverse: the
per-boundary explicit inverses are projected onto one Laurent series.
The paper blends its collar pieces with a cutoff and removes the blend's
dbar defect by an area transform; the projection needs no such term, since
that transform has no mode the projection keeps. Right-preconditioned GMRES,
with this collar inverse as the preconditioner, absorbs the remaining
coupling. A step is accepted by an inexact-Newton forcing test; a residual
it cannot invert raises NeumannDiverges (there is no dense fallback).
The GMRES runs a stack of residuals in lockstep, one Krylov recurrence per
row and one collar inverse and linearization application per iteration for
the whole stack; the certificate's probes share it, and a Newton step is
its one-row case. Each row is solved only as exactly as its caller reads it:
its GMRES stops at the first iterate whose sup-norm defect meets the row's
target. A Newton step's target is the one newton.iterate passes (Dembo,
Eisenstat and Steihaug 1982); a certificate probe's is newton's
_PROBE_FORCING = 1e-2 times the identity tolerance times the probe's norm,
so that its identity defect is at most sqrt(N) * 1e-2 times that tolerance
(0.64 of it at N = 4096). The 2-norm of the defect brackets its sup,
sup <= |.|_2 <= sqrt(2N) sup, and decides every iterate it can; the sup is
read off the Arnoldi basis only in between.
"""

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .boundary import (
    BoundaryGrid,
    BoundaryTrace,
    band_limited_sampler,
    wiener_norm,
    winding_number,
)
from .curves import CurveFamily, eta_decompose, monomial_transform, on_grid
from .disc import DiscSolveOptions, right_inverse_apply, solve_disc
from .domains import (
    Annulus,
    _check_modulus,
    _shift_modes,
    harmonic_extend_annulus,
    laurent_evaluate,
    laurent_from_traces,
    laurent_modes,
    laurent_traces,
    locate_zeros,
)
from .errors import (
    ConfigError,
    GlueTooCoarse,
    CountMismatch,
    ModeConditioning,
    NeumannDiverges,
)
from .newton import (
    _FORCING,
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    NewtonRun,
    certify,
    draw_probe_set,
    iterate,
)

# collar GMRES: iteration budget, relative 2-norm tolerance, and the stall
# rule (stop once the 2-norm defect fell by less than the ratio over the
# window; GMRES can plateau for a few iterations and then drop again)
_GMRES_MAX_ITER = 20
_GMRES_TOL = 1e-11
_GMRES_STALL_RATIO = 0.9
_GMRES_STALL_WINDOW = 5


def _reindex(values: np.ndarray) -> np.ndarray:
    """Trace of v(1/zeta)-type pullbacks: sample j goes to -j mod n (along the last axis)."""
    out = np.empty_like(values)
    out[..., 0] = values[..., 0]
    out[..., 1:] = values[..., :0:-1]
    return out


# --------------------------------------------------------------------------
# family transforms for the collar pieces
# --------------------------------------------------------------------------


def pullback_family(family: CurveFamily) -> CurveFamily:
    """Reparametrize theta -> -theta for the collar map zeta -> q/zeta.

    The map reverses the boundary orientation, so the curve index runs
    backwards.
    """
    return _pulled_back(family, _reversed)


def _reversed(theta) -> np.ndarray:
    # read-only, so that a parent bound at -theta accepts it
    angles = -np.asarray(theta)
    angles.flags.writeable = False
    return angles


def _pulled_back(family: CurveFamily, flip) -> CurveFamily:
    def bind(theta):
        # the parent is bound at -theta, and the bound flip hands back that one array
        angles = flip(theta)
        return _pulled_back(on_grid(family, angles), lambda t: angles if t is theta else flip(t))

    return CurveFamily(
        rho=lambda theta, w: family.rho(flip(theta), w),
        dbar_w=lambda theta, w: family.dbar_w(flip(theta), w),
        ray_radius=lambda theta, psi: family.ray_radius(flip(theta), psi),
        radial_profile=None
        if family.radial_profile is None
        else (lambda theta: family.radial_profile(flip(theta))),
        bind=bind,
    )


def _rho_scale(family: CurveFamily, theta) -> float:
    """Natural size of rho values: curve radius times the w-gradient there.

    Dividing rho by this makes a boundary residual dimensionless, so both
    boundaries are enforced to comparable relative accuracy even when the
    curves differ in size by a large power of the modulus (for a circle of
    radius R the scale is R^2, matching the units of |w|^2 - R^2).
    """
    theta = np.asarray(theta, dtype=float)
    ray = np.asarray(family.ray_radius(theta, np.zeros_like(theta)), dtype=float)
    slope = np.abs(np.asarray(family.dbar_w(theta, ray.astype(complex))))
    return float(np.max(ray) * np.max(slope))


def _rho_units(outer_family, inner_family, theta) -> tuple:
    """The _rho_scale of each boundary's family."""
    return _rho_scale(outer_family, theta), _rho_scale(inner_family, theta)


def _boundary_residuals(outer_family, inner_family, theta, t0, t1, units) -> tuple:
    """Sup of rho on each boundary circle, divided by that boundary's unit."""
    return (
        float(np.max(np.abs(outer_family.rho(theta, t0)))) / units[0],
        float(np.max(np.abs(inner_family.rho(theta, t1)))) / units[1],
    )


# --------------------------------------------------------------------------
# glue construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GlueReport:
    sigma: int
    pre_newton_residual: float


@dataclass(frozen=True)
class AnnulusSolveOptions:
    grid_n: int = 256
    tol: float = 1e-10
    max_iter: int = 40
    certify: bool = True
    seed: int = 0
    glue_threshold: float = 0.5


def _glue_coefficients(
    outer_family: CurveFamily,
    inner_family: CurveFamily,
    windings,
    q: float,
    opts: AnnulusSolveOptions,
):
    """Build the glued Laurent iterate for coherent windings (n0, n1).

    The windings are balanced by the twist z^sigma so that each collar
    piece carries half the zero count as a divisor at its own boundary;
    the pieces then decay like q^{m/2} across the annulus and their sum
    is the telescoped initial iterate. Returns (coefficients, report,
    (twisted outer family, twisted inner family, its pullback, outer unit,
    inner unit)), the families bound to the grid and the units their
    _rho_scale: the coefficients describe the twisted iterate h = f / z^sigma
    and the report residual is measured against the twisted families in
    those units. Raises GlueTooCoarse when
    that residual exceeds the threshold (the windings are too small for
    this modulus).
    """
    coherent = (int(windings[0]), int(windings[1]))
    n0, n1 = coherent[0], -coherent[1]  # disc convention used internally
    m = n0 - n1
    if m < 0:
        raise ConfigError(
            f"prescribed zero count {m} is negative; the coherent windings "
            f"must have a nonnegative sum, got {coherent}"
        )
    grid = BoundaryGrid(opts.grid_n)
    n = grid.n
    _check_modulus(q)

    # everything runs in the twisted gauge h = f / z^sigma: the windings are
    # balanced and the inner family is rescaled by q^-sigma to unit size, so
    # the two boundary residuals live on comparable scales
    sigma = n1 + m // 2
    w_out = n0 - sigma
    w_in = sigma - n1
    theta = grid.theta
    fam0t = on_grid(monomial_transform(outer_family, sigma), theta)
    fam1t = on_grid(monomial_transform(inner_family, sigma, q ** float(sigma)), theta)
    fam1p = on_grid(pullback_family(fam1t), theta)

    disc_opts = DiscSolveOptions(grid_n=n, tol=min(opts.tol, 1e-11), certify=False)
    sol0 = solve_disc(fam0t, w_out, disc_opts)
    sol1 = solve_disc(fam1p, w_in, disc_opts)
    # the inner piece's trace on |z| = q is its disc trace read at -theta;
    # laurent_from_traces drops its constant mode
    inner = _reindex(sol1.f_trace.values)
    if m == 0:
        # both pieces are winding-free: align the free inner phase with the
        # outer piece and average the shared constant term instead of
        # dropping the inner one
        a0, b0 = np.mean(sol0.f_trace.values), np.mean(inner)
        phase = np.exp(1j * (np.angle(a0) - np.angle(b0)))
        inner, b0 = inner * phase, b0 * phase
    coeffs = laurent_from_traces(grid, q, sol0.f_trace.values, inner)
    if m == 0:
        coeffs = np.where(laurent_modes(n) == 0, 0.5 * (coeffs + b0), coeffs)

    t0, t1 = laurent_traces(coeffs, q, n)
    units = _rho_units(fam0t, fam1t, theta)
    pre = max(_boundary_residuals(fam0t, fam1t, theta, t0, t1, units))

    report = GlueReport(sigma=sigma, pre_newton_residual=pre)
    if pre > opts.glue_threshold:
        raise GlueTooCoarse(
            f"glued iterate has boundary residual {pre:.3e} "
            f"(threshold {opts.glue_threshold}); windings {coherent} are too "
            f"small for modulus {q}"
        )
    return coeffs, report, (fam0t, fam1t, fam1p, *units)


def glue_construct(
    outer_family: CurveFamily,
    inner_family: CurveFamily,
    n: int,
    q: float,
    options: Optional[AnnulusSolveOptions] = None,
):
    """Glue two collar solutions of winding n into one annulus iterate.

    Each boundary gets a disc solve of winding n in its own coherent
    orientation (so the iterate carries 2n zeros); the pieces decay like
    q^n across the annulus and their sum is holomorphic, so the only
    defects are the cross terms each piece leaves on the other boundary.
    Returns ((outer trace, inner trace), report); the report carries the
    pre-Newton boundary residual in curve-relative units.
    """
    opts = options if options is not None else AnnulusSolveOptions()
    coeffs, report, _ = _glue_coefficients(outer_family, inner_family, (int(n), int(n)), q, opts)
    grid = BoundaryGrid(opts.grid_n)
    t0, t1 = laurent_traces(coeffs, q, grid.n)
    return (BoundaryTrace(grid, t0), BoundaryTrace(grid, t1)), report


# --------------------------------------------------------------------------
# Newton problem on Laurent coefficients
# --------------------------------------------------------------------------


def _wiener_norms(grid: BoundaryGrid, q: float) -> tuple:
    """The certificate's residual and iterate norms, both Wiener norms.

    A residual's is the larger of its two boundary rows', an iterate's the
    larger of its two traces'. The Laurent layer forms the traces, so a
    mode whose q-power overflows is still measured at its size on |z| = q.
    """
    n = grid.n
    return (
        lambda r: np.maximum(wiener_norm(r[..., :n]), wiener_norm(r[..., n:])),
        lambda dc: np.maximum(*(wiener_norm(t) for t in laurent_traces(dc, q, n))),
    )


def _probe_space(grid: BoundaryGrid, q: float) -> tuple:
    """The residual and iterate samplers of the Laurent-space certificate probes."""
    probe = band_limited_sampler(grid)
    modes = laurent_modes(grid.n)
    window = np.abs(modes) <= 8
    weight = np.where(modes < 0, q ** np.abs(modes).astype(float), 1.0) / (1.0 + np.abs(modes)) ** 2

    def sample_iterate(rng):
        g = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        return np.where(window, g * weight, 0.0)

    return lambda rng: np.concatenate([probe(rng), probe(rng)]), sample_iterate


# (grid, q, seed) -> ProbeSet, its samplers built only on a miss; an entry holds
# 16 real 2N-vectors and 24 complex (N-1)-vectors, about 2.6 MB at N = 4096; the
# bound covers the bench's two keys
@functools.lru_cache(maxsize=4)
def _probe_set(grid: BoundaryGrid, q: float, seed: int):
    return draw_probe_set(seed, *_probe_space(grid, q), *_wiener_norms(grid, q))


def _sup_defect(beta, last, vectors):
    """The sup norm of a GMRES iterate's defect, read off the Arnoldi basis without applying act.

    The defect r - act(x) is V (beta e1 - H y) = beta q_0 sum_i q_i v_i, q
    (last) the last column of the complete Q of the Hessenberg matrix H and
    v_0..v_{k+1} (vectors) the basis, v_{k+1} = w / h.
    """
    return beta * abs(last[0]) * np.max(np.abs(last @ np.asarray(vectors)))


def _gmres(act, precondition, rows, targets=None):
    """Right-preconditioned GMRES for act(precondition(y)) = r, in real arithmetic.

    rows is a stack of residuals r along a leading axis; a Newton step is a
    one-row stack. Each row runs its own GMRES, and the rows run in
    lockstep: an iteration applies precondition and act once, to the stack
    of the rows still running. The k-th iterate of a row minimizes its
    2-norm defect |r - act(x)| over x = precondition(y), y in the k-th
    Krylov space of act o precondition, which holds the first k Neumann
    partial sums (Saad and Schultz 1986).
    A row stops at the iteration budget, at a relative defect of _GMRES_TOL,
    or once its defect fell by less than _GMRES_STALL_RATIO over its last
    _GMRES_STALL_WINDOW iterations, and then leaves the stack. targets, when
    given, holds one sup-norm defect per row or one for all rows (NaN for
    none): a targeted row also stops at its first iterate whose sup-norm
    defect is at most its target, and then keeps that iterate. With 2N the
    row length, the iterate meets its target when its 2-norm defect does,
    and cannot when the 2-norm is above sqrt(2N) times the target; only in
    between is the sup read off the Arnoldi basis (_sup_defect), without
    applying act. Returns the stack of best iterates and, per row, the list
    of defect 2-norms of iterates 0..k. No row may be zero.
    """
    beta = np.linalg.norm(rows, axis=1)
    root = np.sqrt(rows.shape[1])
    targets = np.broadcast_to(np.asarray(np.nan if targets is None else targets, dtype=float), len(rows))
    norms = [[float(b)] for b in beta]
    steps = [None] * len(rows)
    running = np.arange(len(rows))  # the input row behind each running row
    basis = [rows / beta[:, None]]  # one stack of Krylov vectors per iteration
    images = []
    hess = np.zeros((len(rows), _GMRES_MAX_ITER + 1, _GMRES_MAX_ITER))
    for k in range(_GMRES_MAX_ITER):
        images.append(precondition(basis[k]))
        w = act(images[k])
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            hess[:, i, k] = np.einsum("pj,pj->p", v, w)
            w = w - hess[:, i, k, None] * v
        hess[:, k + 1, k] = np.linalg.norm(w, axis=1)
        # the defect of min |beta e1 - H y| is the part of beta e1 along the
        # last column of the complete Q of H
        q_full, _ = np.linalg.qr(hess[:, : k + 2, : k + 1], mode="complete")
        done = np.zeros(len(running), dtype=bool)
        for j, row in enumerate(running):
            history = norms[row]
            history.append(float(beta[j] * abs(q_full[j, 0, k + 1])))
            window = history[-1 - _GMRES_STALL_WINDOW :]
            stalled = len(window) > _GMRES_STALL_WINDOW and window[-1] > _GMRES_STALL_RATIO * window[0]
            converged = history[-1] <= _GMRES_TOL * beta[j]
            met = False
            if not (converged or np.isnan(targets[j])):
                # sup <= |.|_2 <= sqrt(2N) sup: the 2-norm decides a row that
                # meets its target, or cannot, without the sup estimate
                met = history[-1] <= targets[j]
                if not met and history[-1] <= root * targets[j]:
                    vectors = [v[j] for v in basis] + [w[j] / hess[j, k + 1, k]]
                    met = _sup_defect(beta[j], q_full[j, :, k + 1], vectors) <= targets[j]
            if not (converged or met or stalled or k + 1 == _GMRES_MAX_ITER):
                continue
            # a stalled stretch lowered the defect by less than the stall
            # ratio; at a grid's truncation floor it does so by growing the
            # step along near-kernel directions, so the iterate before it is
            # the better step, unless this one already meets its target
            keep = max(1, k + 1 - _GMRES_STALL_WINDOW) if stalled and not met else k + 1
            q_red, tri = np.linalg.qr(hess[j, : keep + 1, :keep])
            y = np.linalg.solve(tri, beta[j] * q_red[0])
            steps[row] = np.asarray([z[j] for z in images[:keep]]).T @ y
            done[j] = True
        if done.all():
            break
        if done.any():
            go = ~done
            basis = [v[go] for v in basis]
            images = [z[go] for z in images]
            hess, beta, running, targets, w = hess[go], beta[go], running[go], targets[go], w[go]
        basis.append(w / hess[:, k + 1, k, None])
    return np.asarray(steps), norms


def _annulus_problem(
    outer_family: CurveFamily,
    inner_family: CurveFamily,
    fam1p: CurveFamily,
    unit0: float,
    unit1: float,
    q: float,
    grid: BoundaryGrid,
    tol: float,
) -> NewtonProblem:
    """Newton problem on the Laurent coefficients, for the families and units the glue returns.

    The residual rows are in curve-relative units, one fixed scale per boundary.
    """
    theta = grid.theta
    n = grid.n
    kmax = n // 2 - 1

    def traces(c):
        return laurent_traces(c, q, n)

    def residual(c):
        t0, t1 = traces(c)
        return np.concatenate(
            [
                np.asarray(outer_family.rho(theta, t0), dtype=float) / unit0,
                np.asarray(inner_family.rho(theta, t1), dtype=float) / unit1,
            ],
            axis=-1,
        )

    def linearization(t0, t1):
        # DA at the iterate with traces t0, t1
        g0 = np.conj(outer_family.dbar_w(theta, t0))
        g1 = np.conj(inner_family.dbar_w(theta, t1))

        def act(dc):
            d0, d1 = traces(dc)
            return np.concatenate(
                [2.0 * (g0 * d0).real / unit0, 2.0 * (g1 * d1).real / unit1], axis=-1
            )

        return act

    def right_inverse(c):
        t0, t1 = traces(c)
        dec0 = eta_decompose(outer_family, BoundaryTrace(grid, t0))
        dec1 = eta_decompose(fam1p, BoundaryTrace(grid, _reindex(t1)))
        act = linearization(t0, t1)

        def collar_apply(r):
            # per-boundary explicit inverses, multiplied back onto the
            # iterate so each correction carries the iterate's divisor;
            # the explicit inverses work in raw rho units
            k0 = right_inverse_apply(dec0, r[..., :n] * unit0)
            k1t = right_inverse_apply(dec1, _reindex(r[..., n:] * unit1))
            return laurent_from_traces(grid, q, t0 * k0, t1 * _reindex(k1t))

        def apply(r, target=None):
            # target: the sup-norm defect at which a step may stop short of
            # the GMRES tolerance, one for all residuals or one per residual
            # (newton.iterate passes one, certify one per probe)
            r = np.asarray(r, dtype=float)
            lead = r.shape[:-1]
            rows = r.reshape(-1, 2 * n)
            scale = np.max(np.abs(rows), axis=1)
            live = scale > 0.0
            steps = np.zeros((len(rows), 2 * kmax + 1), dtype=complex)
            iterations = np.zeros(len(rows), dtype=int)
            if live.any():
                # one residual is the one-row case of the lockstep GMRES
                targets = None if target is None else np.broadcast_to(target, lead).reshape(-1)[live]
                steps[live], norms = _gmres(act, collar_apply, rows[live], targets)
                iterations[live] = [len(h) - 1 for h in norms]
            defect = np.max(np.abs(rows - act(steps)), axis=1)
            # a step is accepted when its sup-norm defect is at most
            # max(_FORCING * |r|, tol / 2), newton's inexact-Newton forcing term
            # (less than half the Newton tolerance is as good as exact); a Newton
            # step's GMRES stops earlier, at newton.iterate's target
            bound = np.maximum(_FORCING * scale, 0.5 * tol)
            missed = defect > bound
            if r.ndim == 1 and missed[0]:
                raise NeumannDiverges(
                    f"collar GMRES left defect {defect[0]:.3e} > {bound[0]:.3e} on a residual "
                    f"of size {scale[0]:.3e} after {iterations[0]} iterations on a {n}-point grid",
                    defect[0] / scale[0],
                    iterations[0],
                )
            steps = steps.reshape(lead + (2 * kmax + 1,))
            if missed.any():
                relative = np.full(len(rows), np.nan)
                relative[missed] = defect[missed] / scale[missed]
                raise NeumannDiverges(
                    f"collar GMRES left {int(missed.sum())} of {len(rows)} residuals above "
                    f"the forcing bound, worst relative defect {np.max(relative[missed]):.3e} "
                    f"on a {n}-point grid",
                    relative.reshape(lead),
                    iterations.reshape(lead),
                    steps,
                )
            return steps

        return apply

    certify_residual_norm, iterate_norm = _wiener_norms(grid, q)
    return NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=iterate_norm,
        residual_norm=lambda r: np.max(np.abs(r), axis=-1),
        derivative_action=lambda c, dc: linearization(*traces(c))(dc),
        certify_residual_norm=certify_residual_norm,
        probe_set=lambda seed: _probe_set(grid, q, seed),
    )


@dataclass(frozen=True)
class AnnulusSolution:
    grid: BoundaryGrid
    q: float
    coefficients: np.ndarray
    outer_trace: BoundaryTrace
    inner_trace: BoundaryTrace
    residual_sup: float
    residual_by_boundary: tuple
    zeros: tuple
    glue: GlueReport
    run: Optional[NewtonRun]

    @property
    def fallback_used(self) -> bool:
        """Always False: no dense least-squares path exists (result.json keeps the key)."""
        return False

    def evaluate(self, z):
        return laurent_evaluate(self.coefficients, z)


def solve_annulus(
    outer_family: CurveFamily,
    inner_family: CurveFamily,
    windings,
    q: float,
    options: Optional[AnnulusSolveOptions] = None,
) -> AnnulusSolution:
    """Solve the two-boundary problem with prescribed windings.

    windings = (n0, n1) counts boundary turns in the coherent orientation
    (outer counterclockwise, inner clockwise), so the solution carries
    n0 + n1 interior zeros. Starts from the glued collar iterate, runs
    Newton on the Laurent coefficients and certifies the converged
    iterate (sampled, in Wiener norms). The converged trace
    windings are checked against the prescription and the interior zeros
    are located from the boundary data, so the zero count is certified
    independently of the iteration.
    """
    opts = options if options is not None else AnnulusSolveOptions()
    grid = BoundaryGrid(opts.grid_n)
    _check_modulus(q)
    windings = (int(windings[0]), int(windings[1]))
    outer_family = on_grid(outer_family, grid.theta)
    inner_family = on_grid(inner_family, grid.theta)

    # Newton runs in the twisted gauge (balanced windings, unit-scale inner
    # family); the monomial factor is restored afterwards
    h0, glue, families = _glue_coefficients(outer_family, inner_family, windings, q, opts)
    sigma = glue.sigma
    problem = _annulus_problem(*families, q, grid, opts.tol)
    run = iterate(problem, h0, IterateOptions(tol=opts.tol, max_iter=opts.max_iter))
    if opts.certify:
        run = replace(run, certificate=certify(problem, run.x, CertifyOptions(seed=opts.seed, tol=opts.tol)))

    coeffs = _shift_modes(run.x, sigma)
    t0, t1 = laurent_traces(coeffs, q, grid.n)
    tr0 = BoundaryTrace(grid, t0)
    tr1 = BoundaryTrace(grid, t1)
    got = (winding_number(tr0), -winding_number(tr1))
    if got != windings:
        raise CountMismatch(
            f"converged trace windings {got} (coherent) != prescribed {windings}"
        )
    residual_by_boundary = _boundary_residuals(
        outer_family, inner_family, grid.theta, t0, t1, _rho_units(outer_family, inner_family, grid.theta)
    )
    zeros = tuple(locate_zeros((tr0, tr1), Annulus(q))) if sum(windings) > 0 else ()
    return AnnulusSolution(
        grid=grid,
        q=q,
        coefficients=coeffs,
        outer_trace=tr0,
        inner_trace=tr1,
        residual_sup=max(residual_by_boundary),
        residual_by_boundary=residual_by_boundary,
        zeros=zeros,
        glue=glue,
        run=run,
    )


# --------------------------------------------------------------------------
# the radial closed form
# --------------------------------------------------------------------------


def _split_flux(s: float):
    """Split the flux s into a monomial power and a fractional exponent.

    Returns (k1, t): the solution carries winding k1 at the inner boundary
    and, when t is not None, a single zero at radius q^t. Fluxes within
    1e-12 of an integer need no zero.
    """
    k1 = int(np.floor(s))
    t = s - k1
    if t > 1.0 - 1e-12:
        k1 += 1
        t = 0.0
    if t < 1e-12:
        return k1, None
    return k1, t


@dataclass(frozen=True)
class RadialSolution:
    """Product-form solution (z - z1) z^k1 exp(G) for circle-family data."""

    grid: BoundaryGrid
    q: float
    k1: int
    zero: Optional[complex]
    g_coeffs: np.ndarray
    outer_trace: BoundaryTrace
    inner_trace: BoundaryTrace
    residual_sup: float
    residual_by_boundary: tuple
    modulus_error: float
    zeros: tuple

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        out = z ** self.k1 * np.exp(laurent_evaluate(self.g_coeffs, z))
        if self.zero is not None:
            out = out * (z - self.zero)
        return out


def solve_annulus_radial(
    outer_family: CurveFamily,
    inner_family: CurveFamily,
    q: float,
    grid_n: int = 256,
    zero_phase: float = 0.0,
) -> RadialSolution:
    """Closed-form solve when every curve is a circle centered at 0.

    log|f| must extend the boundary data harmonically, so the flux of the
    extension dictates the inner winding and the single zero radius; the
    rest of f is the exponential of a mode-by-mode completion. The zero
    phase is free and can be prescribed.
    """
    from .errors import NotRadialFamily

    if outer_family.radial_profile is None or inner_family.radial_profile is None:
        raise NotRadialFamily("both families must be circles centered at the origin")
    grid = BoundaryGrid(grid_n)
    theta = grid.theta
    outer_family = on_grid(outer_family, theta)
    inner_family = on_grid(inner_family, theta)
    r0 = np.asarray(outer_family.radial_profile(theta), dtype=float)
    r1 = np.asarray(inner_family.radial_profile(theta), dtype=float)
    if np.min(r0) <= 0.0 or np.min(r1) <= 0.0:
        raise ConfigError("radial profiles must be positive")

    s, _ = harmonic_extend_annulus(grid, q, np.log(r0), np.log(r1))
    k1, t = _split_flux(s)
    zero = None if t is None else q ** t * np.exp(1j * zero_phase)

    w0 = np.log(r0)
    w1 = np.log(r1) - k1 * np.log(q)
    outer_circle = np.exp(1j * theta)
    inner_circle = q * outer_circle
    if zero is not None:
        # subtract the divisor's log-modulus with its circle mean pinned to
        # the analytic value (0 outer, log|z1| inner): the grid mean only
        # converges like |z1|^N when the zero sits near a circle, and the
        # flux must not inherit that error
        lg0 = np.log(np.abs(outer_circle - zero))
        lg1 = np.log(np.abs(inner_circle - zero))
        w0 = w0 - (lg0 - float(np.mean(lg0)))
        w1 = w1 - (lg1 - float(np.mean(lg1))) - np.log(np.abs(zero))
    flux_left, g_coeffs = harmonic_extend_annulus(grid, q, w0, w1)
    if abs(flux_left) > 1e-6:
        raise ModeConditioning(
            f"flux {flux_left:.3e} left after removing divisor contributions"
        )

    g0, g1 = laurent_traces(g_coeffs, q, grid.n)
    f0 = outer_circle ** k1 * np.exp(g0)
    f1 = inner_circle ** k1 * np.exp(g1)
    if zero is not None:
        f0 = f0 * (outer_circle - zero)
        f1 = f1 * (inner_circle - zero)
    tr0 = BoundaryTrace(grid, f0)
    tr1 = BoundaryTrace(grid, f1)
    modulus_error = max(
        float(np.max(np.abs(np.abs(f0) - r0))),
        float(np.max(np.abs(np.abs(f1) - r1))),
    )
    residual_by_boundary = _boundary_residuals(
        outer_family, inner_family, theta, f0, f1, _rho_units(outer_family, inner_family, theta)
    )
    zeros = tuple(locate_zeros((tr0, tr1), Annulus(q))) if zero is not None else ()
    return RadialSolution(
        grid=grid,
        q=q,
        k1=k1,
        zero=zero,
        g_coeffs=g_coeffs,
        outer_trace=tr0,
        inner_trace=tr1,
        residual_sup=max(residual_by_boundary),
        residual_by_boundary=residual_by_boundary,
        modulus_error=modulus_error,
        zeros=zeros,
    )
