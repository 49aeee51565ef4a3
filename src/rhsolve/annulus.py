"""Holomorphic boundary-value solver on the annulus q < |z| < 1.

This module keeps the collar, the glue and the two solvers; the Laurent
layer they work on (modes, traces, harmonic extension) is rhsolve.domains.
Each boundary condition is first solved as a disc problem in its own
collar, the inner one after the orientation-reversing pullback
zeta -> q / zeta. The two collar pieces are combined into one Laurent
iterate (telescoping: each piece is exponentially small at the other
boundary once the windings are balanced by a monomial twist). Newton
iteration on the Laurent coefficients then removes the gluing error.

The linearized equations have an exact right inverse, the disc's explicit
inverse written on the annulus (Wegert 1992 treats the problem on multiply
connected domains). With eta_i = t_i conj(d rho_i / d w-bar) on both
circles and b_i its argument (curves._eta_phases), the harmonic extension
c_log log|z| + Re G of b turns Re(eta k) = s into Re m = sigma_0 on
|z| = 1 and Re(e^{i phi} m) = sigma_1 on |z| = q for k = e^{-iG} m, with
phi = c_log log q and sigma_i = s_i / |eta_i e^{-iG}|. That system is
diagonal in the Laurent modes of m, one 2x2 solve per mode (_mode_solve).
Its mode 0 has one real obstruction, the problem's index, which one
bordered real unknown mu removes (Govaerts 2000): with zeros the step gains
mu times a monomial direction, which moves the iterate's zeros; zero-free,
the step leaves mu times a constant residual on the outer circle, and mu
vanishes when the flux of log|f| is an integer (else ModeConditioning).
The step is d = t k, read back into one Laurent series by
laurent_from_traces.

A certified solve certifies the converged iterate c from bounds on this
same inverse, computed in the Wiener algebra A (as the disc solver does),
in radii-polynomial form (Day, Lessard and Mischaikow 2007; van den Berg
and Lessard 2015): omega1 bounds ||B|| from the mode gains, the weights and
the border; the identity defect carries the weight defect of e^{-iG}
against the phase of eta through the same gains; omega3 = Y is the A-norm
of the residual rows on twice the grid. A residual is measured by the
larger A-norm of its two rows, an iterate by the larger A-norm of its two
traces. No certificate probe is run; _bounds derives the constants.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .boundary import BoundaryGrid, BoundaryTrace, wiener_norm, winding_numbers
from .curves import CurveFamily, _eta_phases, monomial_transform, on_grid
from .disc import DiscSolveOptions, _affine_dbar, _fine_residual, _rho_rows, _sup, solve_disc
from .domains import (
    Annulus,
    _check_modulus,
    _shift_modes,
    annulus_flux,
    certify_simple_zero,
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
    (twisted outer family, twisted inner family, units, zero_free)), the
    families bound to the grid, units the array of the twisted families'
    _rho_scale and zero_free whether the iterate has no zeros: the
    coefficients describe the twisted iterate h = f / z^sigma and the
    report residual is measured against the twisted families in those
    units. Raises GlueTooCoarse when that residual exceeds the
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
    return coeffs, report, (fam0t, fam1t, units, m == 0)


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


class _Inverse(NamedTuple):
    """The exact annulus inverse at one iterate, on (2, N) stacks, outer circle first.

    zeta = eta e^{-iG} is |zeta| e^{i phi_i} up to the weight defect, with
    phi_0 = 0 and phi_1 = phi; a residual r gives sigma = weight r, weight =
    u / (2 |zeta|), and turn = t e^{-iG} carries m back to a step. beta is
    the border's image in sigma, delta its step (zero for zero-free data),
    and pivot its weight in the mode-0 condition.
    """

    phi: float
    zeta: np.ndarray
    weight: np.ndarray
    turn: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    pivot: float


def _inverse(families, q: float, grid: BoundaryGrid, t) -> _Inverse:
    """The exact inverse of DA at the traces t, for the families the glue returns (see the module docstring).

    With zeros, the border is the direction mu_hat z^p, scaled to unit size
    on the annulus, whose mode-0 weight |C_p| is largest: C_p, for every p
    at once, is read off one FFT of e^{iG} / t. Zero-free, it is the
    constant residual 1 on the outer circle.
    """
    fam0t, fam1t, units, zero_free = families
    theta, n = grid.theta, grid.n
    eta = t * np.conj([fam0t.dbar_w(theta, t[0]), fam1t.dbar_w(theta, t[1])])
    c_log, g = harmonic_extend_annulus(grid, q, *_eta_phases(eta))
    phi = c_log * np.log(q)
    rotate = np.exp(-1j * laurent_traces(g, q, n))
    zeta, turn = eta * rotate, t * rotate
    weight = 0.5 * units[:, None] / np.abs(zeta)
    if zero_free:
        beta, delta = weight * [[1.0], [0.0]], np.zeros_like(t)
    else:
        # C_p is mode -p of the border's mode-0 rows; z^p is scaled by q^|p|
        # on the circle where it is largest
        p = laurent_modes(n)
        spectra = np.fft.fft(1.0 / turn)[:, -p % n] / n
        scales = q ** np.maximum(0.0, [-p, p])
        scores = np.cos(phi) * scales[0] * spectra[0] - np.exp(1j * phi) * scales[1] * spectra[1]
        best = np.argmax(np.abs(scores))
        direction = np.conj(scores[best]) / np.abs(scores[best]) * scales[:, best, None]
        delta = direction * np.exp(1j * p[best] * theta)
        beta = (delta / turn * [[1.0], [np.exp(1j * phi)]]).real
    pivot = np.cos(phi) * np.mean(beta[0]) - np.mean(beta[1])
    return _Inverse(phi, zeta, weight, turn, beta, delta, pivot)


def _mode_solve(q: float, phi: float, sigma: np.ndarray) -> np.ndarray:
    """The traces of m with Re m = sigma_0 on |z| = 1, Re(e^{i phi} m) = sigma_1 on |z| = q and Im m_0 = 0.

    sigma is a real (2, N) stack, outer first, whose means meet the mode-0
    condition cos(phi) mean(sigma_0) = mean(sigma_1). Mode j >= 1 is the
    2x2 solve a_j + q^j b_j = 2 s0_j, e^{i phi} q^j a_j + e^{-i phi} b_j =
    2 s1_j, for the coefficient a_j of z^j and b_j = conj(a_-j) q^-j, the
    size of mode -j on |z| = q: every power of q sits in a numerator, so no
    mode overflows. Returns the (2, N) traces, outer first.
    """
    n = sigma.shape[-1]
    k = n // 2 - 1
    s = np.fft.fft(sigma)[:, : k + 1] * (2.0 / n)
    qj = q ** np.arange(1.0, k + 1)
    turn = np.exp(1j * phi)
    det = np.conj(turn) - turn * qj * qj
    a = (s[0, 1:] * np.conj(turn) - s[1, 1:] * qj) / det
    b = np.conj((s[1, 1:] - s[0, 1:] * turn * qj) / det)
    spectra = np.zeros((2, n), dtype=complex)
    spectra[:, 0] = 0.5 * s[0, 0].real
    spectra[:, 1 : k + 1] = a, a * qj
    spectra[:, n - k :] = (b * qj)[::-1], b[::-1]
    return np.fft.ifft(spectra) * n


def _apply(inverse: _Inverse, q: float, r) -> tuple:
    """The step's traces for the residual r, and the border's mu.

    The mode-0 condition fixes mu, and the mode solve the rest.
    """
    phi, _, weight, turn, beta, delta, pivot = inverse
    sigma = weight * np.reshape(r, weight.shape)
    mu = (np.cos(phi) * np.mean(sigma[0]) - np.mean(sigma[1])) / pivot
    return turn * _mode_solve(q, phi, sigma - mu * beta) + mu * delta, mu


def _bounds(families, q: float, grid: BoundaryGrid, c) -> CertificateBounds:
    """The computed certificate bounds at the Laurent coefficients c, for the inverse B that Newton applies.

    Per unit A-norm of r, and per row i (with W_i, T_i, ... the A-norms of
    the _Inverse rows): |mu| <= M = (|cos phi| W_0 + W_1) / |pivot|, the
    mode solve's data have ||sigma_i - mu beta_i||_A <= S_i = W_i + M B_i,
    and mode j passes them on with the gains (1 + q^2j) / |det_j| to its own
    circle and 2 q^j / |det_j| to the other, |det_j| >= 1 - q^2j, so
    ||m_0||_A <= g S_0 + h S_1 and ||m_1||_A <= max(1, h) S_0 + g S_1 with
    g, h the largest gains. The step is turn m + mu delta, so

        omega1 = max_i (T_i ||m_i|| + M ||delta_i||_A),

    and DA B r - r = Re(eps_i m_i') / weight_i, with eps_i = zeta_i / |zeta_i|
    - e^{i phi_i} the weight defect and m' = m + mu delta / turn, bounds the
    identity defect by max_i ||1 / weight_i||_A ||eps_i||_A ||m_i'||_A.
    Zero-free data have no right inverse (the flux direction is off the
    range of DA), so omega1 = inf, and the identity defect also counts the
    border's mu psi, M >= 1. omega2 is max_i 2 (||beta_i||_A +
    ||gamma_i||_A) / u_i for the affine profiles d rho_i / d w-bar =
    alpha_i + beta_i w + gamma_i w-bar (disc._affine_dbar), inf when a
    family is not affine; omega3 is the larger A-norm of the two residual
    rows on twice the grid (disc._fine_residual), so the residual between
    the nodes counts.

    The bounds read the continuum operator off the grid DFT: the products
    turn m alias past N/2 and the mode solve drops the Nyquist mode, so
    that tail is estimated, not enclosed, and the verdict is that the
    contraction is bounded.
    """
    fam0t, fam1t, units, zero_free = families
    theta, n = grid.theta, grid.n
    inv = _inverse(families, q, grid, laurent_traces(c, q, n))
    defect = inv.zeta / np.abs(inv.zeta) - [[1.0], [np.exp(1j * inv.phi)]]
    rows = [inv.weight, inv.turn, inv.beta, inv.delta, inv.delta / inv.turn, defect, 1.0 / inv.weight]
    profiles = [_affine_dbar(fam, theta) for fam in (fam0t, fam1t)]
    affine = all(profile is not None for profile in profiles)
    if affine:
        rows += list(map(np.array, zip(*profiles)))[1:]
    weight, turn, beta, delta, border, eps, unweight, *profile_norms = wiener_norm(np.array(rows))
    omega2 = max(2.0 * sum(profile_norms) / units) if affine else np.inf

    mu = (abs(np.cos(inv.phi)) * weight[0] + weight[1]) / abs(inv.pivot)
    s = weight + mu * beta
    qj = q ** np.arange(1.0, n // 2)
    det = np.abs(np.exp(-1j * inv.phi) - np.exp(1j * inv.phi) * qj * qj)
    same, cross = np.max((1.0 + qj * qj) / det), np.max(2.0 * qj / det)
    m = np.array([same * s[0] + cross * s[1], max(1.0, cross) * s[0] + same * s[1]])
    identity_defect = np.max(unweight * eps * (m + mu * border))
    omega3 = _fine_residual((fam0t, fam1t), laurent_traces(c, q, 2 * n), units)
    if zero_free:
        return CertificateBounds(np.inf, omega2, omega3, mu + identity_defect)
    return CertificateBounds(np.max(turn * m + mu * delta), omega2, omega3, identity_defect)


def _annulus_problem(families, q: float, grid: BoundaryGrid) -> NewtonProblem:
    """Newton problem on the Laurent coefficients, for the families, units and zero_free flag the glue returns.

    The residual rows are in curve-relative units, one fixed scale per boundary.
    """
    fam0t, fam1t, units, zero_free = families
    theta, n = grid.theta, grid.n

    def residual(c):
        return (_rho_rows((fam0t, fam1t), theta, laurent_traces(c, q, n)) / units[:, None]).ravel()

    def derivative_action(c, dc):
        t = laurent_traces(c, q, n)
        g = np.conj([fam0t.dbar_w(theta, t[0]), fam1t.dbar_w(theta, t[1])])
        return (2.0 * (g * laurent_traces(dc, q, n)).real / units[:, None]).ravel()

    def right_inverse(c):
        inverse = _inverse(families, q, grid, laurent_traces(c, q, n))

        def apply(r):
            d, mu = _apply(inverse, q, r)
            scale = np.max(np.abs(r))
            # the step leaves mu on the outer row; once that is half the
            # residual, Newton cannot reduce it
            if zero_free and abs(mu) > 0.5 * scale:
                raise ModeConditioning(
                    f"zero-free step leaves mu = {mu:.3e} of a residual of size {scale:.3e}: "
                    f"the flux of log|f| is off an integer, so no zero-free solution exists"
                )
            return laurent_from_traces(grid, q, *d)

        return apply

    return NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=_iterate_norm(q, n),
        residual_norm=_sup,
        derivative_action=derivative_action,
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
    problem = _annulus_problem(families, q, grid)
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
    phase is free and can be prescribed. The zero is not searched for:
    domains.certify_simple_zero checks on the traces' own series that it is
    their only zero, and gives its certified radius.
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
    zeros = (certify_simple_zero((tr0, tr1), Annulus(q), zero),) if zero is not None else ()
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
