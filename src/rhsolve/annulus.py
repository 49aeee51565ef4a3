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
per-boundary explicit inverses are projected onto one Laurent series. Both
boundaries run as one (2, N) stack (rhsolve.boundary): one eta
decomposition per inverse, and one conjugation and one projection FFT per
application, with every row bitwise what it would be alone.
The paper blends its collar pieces with a cutoff and removes the blend's
dbar defect by an area transform; the projection needs no such term, since
that transform has no mode the projection keeps. Right-preconditioned GMRES,
with this collar inverse as the preconditioner, absorbs the remaining
coupling. A step is accepted by an inexact-Newton forcing test; a residual
it cannot invert raises NeumannDiverges (there is no dense fallback).
Each Newton step runs one GMRES on its one residual, with one collar
inverse and one linearization application per iteration. It stops at the
first iterate whose sup-norm defect meets the step's inexact-Newton target
(Dembo, Eisenstat and Steihaug 1982). The 2-norm of the defect
brackets its sup, sup <= |.|_2 <= sqrt(2N) sup, and decides every iterate
it can; the sup is read off the Arnoldi basis only in between.

A certified solve certifies the converged iterate c from bounds computed
in the Wiener algebra A (as the disc solver does), in radii-polynomial form
(Day, Lessard and Mischaikow 2007; van den Berg and Lessard 2015):
omega3 = Y, the A-norm of the residual rows on twice the grid; Z bounds
||I - DA C|| for the collar inverse C; and ||B|| <= ||C|| / (1 - Z) for
the right inverse B = C (DA C)^-1, so omega1 = ||C|| / (1 - Z) when Z < 1
and omega1 = inf otherwise. A residual is measured by the larger A-norm of
its two rows, an iterate by the larger A-norm of its two traces. No
certificate probe and no GMRES is run; _bounds derives the constants.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .boundary import BoundaryGrid, BoundaryTrace, wiener_norm, winding_numbers
from .curves import CurveFamily, _eta_weights, monomial_transform, on_grid
from .disc import (
    DiscSolveOptions,
    _affine_dbar,
    _explicit_inverse,
    _fine_residual,
    _rho_rows,
    _row_norms,
    _sup,
    solve_disc,
)
from .domains import (
    Annulus,
    _check_modulus,
    _shift_modes,
    annulus_flux,
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
    NotRadialFamily,
)
from .newton import (
    CertificateBounds,
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    NewtonRun,
    certify,
    iterate,
)

# collar GMRES: iteration budget and the stall rule (stop once the 2-norm
# defect fell by less than the ratio over the window; GMRES can plateau for
# a few iterations and then drop again)
_GMRES_MAX_ITER = 20
_GMRES_STALL_RATIO = 0.9
_GMRES_STALL_WINDOW = 5
# inexact-Newton forcing term: a step whose sup-norm defect is at most
# min(_FORCING, |r|) * |r| keeps the iteration quadratic (Dembo, Eisenstat
# and Steihaug 1982)
_FORCING = 0.1


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


def _boundary_residuals(families, theta, traces, units=None) -> tuple:
    """Sup of rho on each boundary circle, divided by that boundary's unit (its family's _rho_scale by default)."""
    if units is None:
        units = np.array([_rho_scale(fam, theta) for fam in families])
    return tuple(float(value) for value in _sup(_rho_rows(families, theta, traces)) / units)


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
    (twisted outer family, twisted inner family, its pullback, units)), the
    families bound to the grid and units the array of the twisted families'
    _rho_scale: the coefficients describe the twisted iterate h = f / z^sigma
    and the report residual is measured against the twisted families in
    those units. Raises GlueTooCoarse when that residual exceeds the
    threshold (the windings are too small for this modulus).
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

    units = np.array([_rho_scale(fam, theta) for fam in (fam0t, fam1t)])
    pre = max(_boundary_residuals((fam0t, fam1t), theta, laurent_traces(coeffs, q, n), units))

    report = GlueReport(sigma=sigma, pre_newton_residual=pre)
    if pre > opts.glue_threshold:
        raise GlueTooCoarse(
            f"glued iterate has boundary residual {pre:.3e} "
            f"(threshold {opts.glue_threshold}); windings {coherent} are too "
            f"small for modulus {q}"
        )
    return coeffs, report, (fam0t, fam1t, fam1p, units)


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


def _iterate_norm(q: float, n: int):
    """The certificate's iterate norm: the larger Wiener norm of the two traces.

    The Laurent layer forms the traces, so a mode whose q-power overflows
    is still measured at its size on |z| = q.
    """
    return lambda dc: np.max(wiener_norm(laurent_traces(dc, q, n)), axis=0)


def _sup_defect(beta, last, vectors):
    """The sup norm of a GMRES iterate's defect, read off the Arnoldi basis without applying act.

    The defect r - act(x) is V (beta e1 - H y) = beta q_0 sum_i q_i v_i, q
    (last) the last column of the complete Q of the Hessenberg matrix H and
    v_0..v_{k+1} (vectors) the basis, v_{k+1} = w / h.
    """
    return beta * abs(last[0]) * np.max(np.abs(last @ np.asarray(vectors)))


def _gmres(act, precondition, r, target):
    """Right-preconditioned GMRES for act(precondition(y)) = r, in real arithmetic.

    The k-th iterate minimizes the 2-norm defect |r - act(x)| over
    x = precondition(y), y in the k-th Krylov space of act o precondition,
    which holds the first k Neumann partial sums (Saad and Schultz 1986);
    an iteration applies precondition and act once.
    The run stops at the iteration budget, or once its defect fell by less
    than _GMRES_STALL_RATIO over its last _GMRES_STALL_WINDOW iterations.
    target is a sup-norm defect: the run also stops at its first iterate
    whose sup-norm defect is at most target, and then keeps that iterate (a
    zero target is met only by a zero defect). With
    2N the length of r, the iterate meets its target when its 2-norm defect
    does, and cannot when the 2-norm is above sqrt(2N) times the target;
    only in between is the sup read off the Arnoldi basis (_sup_defect),
    without applying act. Returns the best iterate and the list of defect
    2-norms of iterates 0..k. r may not be zero.
    """
    # einsum products and norms along an axis, not v @ w or a plain norm:
    # those go through a BLAS dot, which rounds differently, and at a grid's
    # truncation floor a Newton step's acceptance hinges on the last bit
    # (v @ w makes the README case stagnate)
    beta = np.linalg.norm(r, axis=0)
    root = np.sqrt(len(r))
    norms = [float(beta)]
    basis = [r / beta]  # the Krylov vectors
    images = []
    hess = np.zeros((_GMRES_MAX_ITER + 1, _GMRES_MAX_ITER))
    for k in range(_GMRES_MAX_ITER):
        images.append(precondition(basis[k]))
        w = act(images[k])
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            hess[i, k] = np.einsum("j,j->", v, w)
            w = w - hess[i, k] * v
        hess[k + 1, k] = np.linalg.norm(w, axis=0)
        # the defect of min |beta e1 - H y| is the part of beta e1 along the
        # last column of the complete Q of H
        q_full, _ = np.linalg.qr(hess[: k + 2, : k + 1], mode="complete")
        norms.append(float(beta * abs(q_full[0, k + 1])))
        window = norms[-1 - _GMRES_STALL_WINDOW :]
        stalled = len(window) > _GMRES_STALL_WINDOW and window[-1] > _GMRES_STALL_RATIO * window[0]
        # sup <= |.|_2 <= sqrt(2N) sup: the 2-norm decides an iterate that
        # meets its target, or cannot, without the sup estimate
        met = norms[-1] <= target
        if not met and norms[-1] <= root * target:
            met = _sup_defect(beta, q_full[:, k + 1], basis + [w / hess[k + 1, k]]) <= target
        if met or stalled or k + 1 == _GMRES_MAX_ITER:
            break
        basis.append(w / hess[k + 1, k])
    # a stalled stretch lowered the defect by less than the stall ratio; at
    # a grid's truncation floor it does so by growing the step along
    # near-kernel directions, so the iterate before it is the better step,
    # unless this one already meets its target
    keep = max(1, k + 1 - _GMRES_STALL_WINDOW) if stalled and not met else k + 1
    q_red, tri = np.linalg.qr(hess[: keep + 1, :keep])
    y = np.linalg.solve(tri, beta * q_red[0])
    return np.asarray(images[:keep]).T @ y, norms


def _bounds(families, q: float, grid: BoundaryGrid, c) -> CertificateBounds:
    """The computed certificate bounds at the Laurent coefficients c.

    families is the glue's (outer family, inner family, inner pullback,
    units). With t_i the traces of c, k_i and phi_i the
    weights of each boundary's explicit inverse and u_i the units, the
    collar inverse C puts the modes >= 0 of a = M0 psi0 on |z| = 1 and the
    modes < 0 of b = M1 psi1 on |z| = q, where M0 = t0 k_0 / 2,
    M1 = t1 k_1(-theta) / 2, psi0 has modes >= 0, psi1 modes <= 0, and
    ||psi_i||_A <= p_i ||r_i||_A with p_i = u_i ||phi_i||_A. k_i is
    holomorphic, so the pulled-back k_1(-theta) carries modes <= 0.

    Then DA C = I - E + D. D is each boundary's weight defect delta_i, as
    on the disc. E holds the cross terms, with G_i = 2 ||g_i||_A / u_i and
    g_i = conj(d rho_i / d w-bar) at t_i: on |z| = 1 the modes < 0 of a,
    which C drops (N0 p0), and those of b continued to |z| = 1 (W1 p1); on
    |z| = q the modes >= 0 of b (P1 p1) and a continued to |z| = q (V0 p0).
    With |M_s| the moduli of the DFT coefficients of M0 and M1,
    N0 = sum_{s<0} |M0_s|, P1 = sum_{s>=0} |M1_s|,
    W1 = sum_{s<0} |M1_s| q^|s| + q P1 and V0 = sum_{s>=0} |M0_s| q^s + N0,
    so that

        Z = max(G0 (N0 p0 + W1 p1), G1 (V0 p0 + P1 p1)) + max delta_i,
        ||C|| <= max(||M0||_A p0 + N0 p0 + W1 p1, ||M1||_A p1 + V0 p0 + P1 p1).

    When Z < 1, omega1 = ||C|| / (1 - Z) bounds B = C (DA C)^-1 and the
    identity defect is max delta_i; otherwise omega1 = inf and the identity
    defect is Z, that of C, the only right inverse at hand. omega2 is
    max_i 2 (||beta_i||_A + ||gamma_i||_A) / u_i for the affine profiles
    d rho_i / d w-bar = alpha_i + beta_i w + gamma_i w-bar (disc._affine_dbar),
    inf when a family is not affine; omega3 is the larger A-norm of the two
    residual rows on twice the grid (disc._fine_residual), so the residual
    between the nodes counts. The per-row norms come from disc._row_norms,
    which the disc's own bounds read as the one-row case.

    The bounds read the continuum operator off the grid DFT. Products such
    as t0 k_0 alias past N/2, so a residual in the top modes is outside the
    range of the grid operator, and a single mode near N/2 can see
    ||E r|| / ||r|| above Z. As on the disc, that tail is estimated, not
    enclosed, and the verdict is that the contraction is bounded.
    """
    fam0t, fam1t, _, units = families
    z, norm_c, delta, omega2 = _collar_bounds(families, q, grid, c)
    omega1, identity_defect = (norm_c / (1.0 - z), delta) if z < 1.0 else (np.inf, z)
    omega3 = _fine_residual((fam0t, fam1t), laurent_traces(c, q, 2 * grid.n), units)
    return CertificateBounds(omega1, omega2, omega3, identity_defect)


def _collar_weights(families, grid: BoundaryGrid, t0, t1) -> tuple:
    """eta and the explicit inverses' weights (phi_weight, k_weight) at the traces t0, t1, one row per boundary.

    Row 1 is the inner boundary's, read in the pullback's orientation; both
    rows are decomposed as one stack.
    """
    fam0t, _, fam1p, _ = families
    theta = grid.theta
    inner = _reindex(t1)
    eta = np.array([t0 * np.conj(fam0t.dbar_w(theta, t0)), inner * np.conj(fam1p.dbar_w(theta, inner))])
    return eta, *_eta_weights(grid, eta)


def _collar_bounds(families, q: float, grid: BoundaryGrid, c) -> tuple:
    """(Z, the bound on ||C||, max delta_i, omega2) at the Laurent coefficients c (see _bounds)."""
    fam0t, fam1t, _, units = families
    theta, n = grid.theta, grid.n
    t0, t1 = laurent_traces(c, q, n)
    eta, phi_weight, k_weight = _collar_weights(families, grid, t0, t1)
    m0, m1 = 0.5 * t0 * k_weight[0], 0.5 * t1 * _reindex(k_weight[1])
    rows = [np.array([fam0t.dbar_w(theta, t0), fam1t.dbar_w(theta, t1)])]
    profiles = [_affine_dbar(fam, theta) for fam in (fam0t, fam1t)]
    affine = all(profile is not None for profile in profiles)
    if affine:
        _, beta, gamma = map(np.array, zip(*profiles))
        rows += [beta, gamma]
    phi, deltas, dbar, *profile_norms = _row_norms(eta, phi_weight, k_weight, *rows)
    (g0, g1), (p0, p1) = 2.0 * dbar / units, units * phi
    omega2 = max(2.0 * sum(profile_norms) / units) if affine else np.inf

    modes = np.fft.fftfreq(n, 1.0 / n)
    neg = modes < 0
    reach = q ** np.abs(modes)
    spec0, spec1 = np.abs(np.fft.fft(np.array([m0, m1]))) / n
    n0, p1_modes = np.sum(spec0[neg]), np.sum(spec1[~neg])
    w1 = np.sum(spec1[neg] * reach[neg]) + q * p1_modes
    v0 = np.sum(spec0[~neg] * reach[~neg]) + n0

    delta = max(deltas)
    z = max(g0 * (n0 * p0 + w1 * p1), g1 * (v0 * p0 + p1_modes * p1)) + delta
    norm_c = max(np.sum(spec0) * p0 + n0 * p0 + w1 * p1, np.sum(spec1) * p1 + v0 * p0 + p1_modes * p1)
    return z, norm_c, delta, omega2


def _annulus_problem(families, q: float, grid: BoundaryGrid, tol: float) -> NewtonProblem:
    """Newton problem on the Laurent coefficients, for the families and units the glue returns.

    The residual rows are in curve-relative units, one fixed scale per boundary.
    """
    fam0t, fam1t, _, units = families
    theta = grid.theta
    n = grid.n
    kmax = n // 2 - 1

    def traces(c):
        return laurent_traces(c, q, n)

    def residual(c):
        return (_rho_rows((fam0t, fam1t), theta, traces(c)) / units[:, None]).ravel()

    def linearization(t0, t1):
        # DA at the iterate with traces t0, t1
        g0 = np.conj(fam0t.dbar_w(theta, t0))
        g1 = np.conj(fam1t.dbar_w(theta, t1))

        def act(dc):
            d0, d1 = traces(dc)
            return np.concatenate([2.0 * (g0 * d0).real / units[0], 2.0 * (g1 * d1).real / units[1]], axis=-1)

        return act

    def right_inverse(c):
        t0, t1 = traces(c)
        _, phi_weight, k_weight = _collar_weights(families, grid, t0, t1)
        act = linearization(t0, t1)

        def collar_apply(r):
            # per-boundary explicit inverses, one (..., 2, N) stack in raw
            # rho units, multiplied back onto the iterate so each correction
            # carries the iterate's divisor
            rows = r.reshape(r.shape[:-1] + (2, n)) * units[:, None]
            rows[..., 1, :] = _reindex(rows[..., 1, :])
            k = _explicit_inverse(grid, phi_weight, k_weight, rows)
            return laurent_from_traces(grid, q, t0 * k[..., 0, :], t1 * _reindex(k[..., 1, :]))

        def apply(r):
            r = np.asarray(r, dtype=float)
            scale = np.max(np.abs(r))
            if not scale > 0.0:  # a zero (or NaN) residual: nothing to invert
                return np.zeros(2 * kmax + 1, dtype=complex)
            # GMRES stops at half the forcing bound max(min(_FORCING, |r|) |r|,
            # tol / 2), so that roundoff in its own defect estimate cannot
            # push the step past the bound
            step, norms = _gmres(act, collar_apply, r, 0.5 * max(min(_FORCING, scale) * scale, 0.5 * tol))
            defect = np.max(np.abs(r - act(step)))
            # a step is accepted when its sup-norm defect is at most
            # max(_FORCING * |r|, tol / 2) (less than half the Newton
            # tolerance is as good as exact)
            bound = max(_FORCING * scale, 0.5 * tol)
            if defect > bound:
                raise NeumannDiverges(
                    f"collar GMRES left defect {defect:.3e} > {bound:.3e} on a residual "
                    f"of size {scale:.3e} after {len(norms) - 1} iterations on a {n}-point grid",
                    defect / scale,
                    len(norms) - 1,
                )
            return step

        return apply

    return NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=_iterate_norm(q, n),
        residual_norm=_sup,
        derivative_action=lambda c, dc: linearization(*traces(c))(dc),
        bounds=lambda c: _bounds(families, q, grid, c),
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
        """Always False: no dense least-squares path exists (the benchmark records read it)."""
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
    iterate from computed Wiener-norm bounds (_bounds). The converged trace
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
    problem = _annulus_problem(families, q, grid, opts.tol)
    run = iterate(problem, h0, IterateOptions(tol=opts.tol, max_iter=opts.max_iter))
    if opts.certify:
        run = replace(run, certificate=certify(problem, run.x, CertifyOptions(tol=opts.tol)))

    coeffs = _shift_modes(run.x, sigma)
    t0, t1 = laurent_traces(coeffs, q, grid.n)
    tr0 = BoundaryTrace(grid, t0)
    tr1 = BoundaryTrace(grid, t1)
    got = tuple(sign * w for sign, w in zip((1, -1), winding_numbers((tr0, tr1))))
    if got != windings:
        raise CountMismatch(
            f"converged trace windings {got} (coherent) != prescribed {windings}"
        )
    residual_by_boundary = _boundary_residuals((outer_family, inner_family), grid.theta, (t0, t1))
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
    if outer_family.radial_profile is None or inner_family.radial_profile is None:
        raise NotRadialFamily("both families must be circles centered at the origin")
    grid = BoundaryGrid(grid_n)
    theta = grid.theta
    outer_family = on_grid(outer_family, theta)
    inner_family = on_grid(inner_family, theta)
    # both boundaries as one (2, N) stack, outer first
    r = np.array([outer_family.radial_profile(theta), inner_family.radial_profile(theta)], dtype=float)
    if np.min(r) <= 0.0:
        raise ConfigError("radial profiles must be positive")

    log_r = np.log(r)
    k1, t = _split_flux(annulus_flux(grid, q, *log_r))
    zero = None if t is None else q ** t * np.exp(1j * zero_phase)

    circles = np.array([[1.0], [q]]) * np.exp(1j * theta)
    w = log_r - [[0.0], [k1 * np.log(q)]]
    if zero is not None:
        # subtract the divisor's log-modulus with its circle mean pinned to
        # the analytic value (0 outer, log|z1| inner): the grid mean only
        # converges like |z1|^N when the zero sits near a circle, and the
        # flux must not inherit that error
        divisor = circles - zero
        lg = np.log(np.abs(divisor))
        w = w - (lg - np.mean(lg, axis=1, keepdims=True))
        w[1] -= np.log(np.abs(zero))
    flux_left, g_coeffs = harmonic_extend_annulus(grid, q, *w)
    if abs(flux_left) > 1e-6:
        raise ModeConditioning(
            f"flux {flux_left:.3e} left after removing divisor contributions"
        )

    f = circles ** k1 * np.exp(laurent_traces(g_coeffs, q, grid.n))
    if zero is not None:
        f = f * divisor
    tr0, tr1 = (BoundaryTrace(grid, row) for row in f)
    modulus_error = float(np.max(np.abs(np.abs(f) - r)))
    residual_by_boundary = _boundary_residuals((outer_family, inner_family), theta, f)
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
