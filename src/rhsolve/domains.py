"""Laurent series, zero location and interior evaluation from boundary traces.

A holomorphic function on the annulus q < |z| < 1 is one Laurent series
with modes -K..K (laurent_modes); this module owns that layout, and no other
indexes the coefficients by position. laurent_traces samples the series
counterclockwise on both circles at any n >= 2K + 2 points (zero-padding is
exact, so a finer grid prolongs it), laurent_from_traces reads the
coefficients back off the traces, and harmonic_extend_annulus solves for
the series from real boundary data; annulus_flux reads its log
coefficient off the means. (A disc solution z^n exp(g) needs no zero
search: its n zeros sit at the origin.)
_LaurentSums lays the coefficients out once as four power series, the
series and its slope in z and in 1/z, in blocks of 32: values (all that
laurent_evaluate asks), or values and slopes, take one table z^0..z^31 of z
and 1/z, one matrix product and K/32 Horner steps in z^32. Like
Horner's rule, and unlike a table of all K powers, it never forms z^K, which
overflows in the 1/z half on |z| = q for small q on fine grids.
locate_zeros finds all interior zeros with multiplicities from the
argument-principle moments of the traces (Kravanja and Van Barel 2000;
Austin, Kravanja and Trefethen 2014), Newton-polishes those with |f| above
the traces' roundoff and certifies each by a winding count, all from one
prepared series and from each trace's one spectrum; the two boundary
windings are one stacked unwrap, as are the winding counts of all
certification circles. A multiple zero with |f| above the roundoff is a
cluster, refused. A zero known in closed form is not searched for:
certify_simple_zero bounds F'' about it from the traces' modes and shows by
Rouche's theorem that it is their only zero, and within what radius.
Both circles' traces move through one FFT: laurent_traces and
laurent_from_traces transform a (2, ..., n) stack, outer circle first.
cauchy_extend, the discretized Cauchy integral, is the reference quadrature
the Laurent evaluation is tested against; its error decays like
dist(point, boundary)^N, so a margin precondition guards the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import (
    _TWO_PI,
    BoundaryGrid,
    BoundaryTrace,
    _derivative_samples,
    _phase_rows,
    _same_grid,
    winding_numbers,
)
from .errors import (
    ConfigError,
    CountMismatch,
    ModeConditioning,
    PointTooCloseToBoundary,
)


@dataclass(frozen=True)
class Annulus:
    """The annulus q < |z| < 1."""

    q: float

    def __post_init__(self):
        _check_modulus(self.q)


def _check_modulus(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise ConfigError(f"annulus modulus must lie in (0, 1), got {q}")


def _trace_pair(traces):
    traces = (traces,) if isinstance(traces, BoundaryTrace) else tuple(traces)
    if len(traces) != 2:
        raise ValueError(f"an annulus needs 2 boundary traces (outer, inner), got {len(traces)}")
    return traces


def cauchy_extend(traces, domain: Annulus, points):
    """Evaluate the holomorphic extension of boundary traces at interior points.

    traces = (outer, inner), both sampled counterclockwise; the inner-circle
    integral enters with a minus sign.

    Raises PointTooCloseToBoundary when any point is within 2 pi / N of a
    boundary circle, where the quadrature degrades.
    """
    traces = _trace_pair(traces)
    margin = _TWO_PI / min(t.grid.n for t in traces)
    points = np.asarray(points, dtype=complex)
    flat = points.ravel()
    r = np.abs(flat)
    if np.any(r > 1.0 - margin):
        raise PointTooCloseToBoundary(f"point within {margin:.3g} of the outer circle")
    if np.any(r < domain.q + margin):
        raise PointTooCloseToBoundary(f"point within {margin:.3g} of the inner circle")

    out = np.zeros(flat.shape, dtype=complex)
    for sign, radius, trace in zip((1.0, -1.0), (1.0, domain.q), traces):
        z = radius * np.exp(1j * trace.grid.theta)
        f = trace.values
        n = trace.grid.n
        for start in range(0, flat.size, 1024):
            w = flat[start : start + 1024, None]
            kernel = z[None, :] / (z[None, :] - w)
            out[start : start + 1024] += sign * (kernel @ f) / n
    return out.reshape(points.shape)


# --------------------------------------------------------------------------
# Laurent series
# --------------------------------------------------------------------------


# largest log of q^-k that laurent_traces forms directly, with a margin below
# the float64 overflow at about 709.8
_LOG_POWER_MAX = 700.0


def laurent_modes(n: int) -> np.ndarray:
    """Modes -K..K carried by an n-point grid, K = n/2 - 1."""
    k = n // 2 - 1
    return np.arange(-k, k + 1)


@lru_cache(maxsize=16)
def _q_powers(q: float, k: int) -> np.ndarray:
    """q^j for the modes j = -K..K, read-only: every Newton step reuses them.

    q^-K may overflow to inf; laurent_traces then takes its log branch, and
    laurent_from_traces reads only the powers q^1..q^K.
    """
    with np.errstate(over="ignore"):
        powers = q ** np.arange(-k, k + 1).astype(float)
    powers.flags.writeable = False
    return powers


def laurent_traces(coeffs, q: float, n: int) -> np.ndarray:
    """Values on |z| = 1 and |z| = q at n points (for stacked coefficients, per row).

    Returns the two circles' values as one (2, ..., n) array, outer first.

    The modes -K..K are read from the length of the coefficients; any n of
    at least 2K + 2 samples the same series, so a finer grid than the one
    that carried the coefficients prolongs their traces exactly.
    """
    coeffs = np.asarray(coeffs)
    k = coeffs.shape[-1] // 2
    if n < 2 * k + 2:
        raise ValueError(f"modes -{k}..{k} need at least {2 * k + 2} points, got {n}")
    if -k * np.log(q) < _LOG_POWER_MAX:
        inner = coeffs * _q_powers(q, k)
    else:
        # q^-k overflows on this grid although each product, that mode's
        # coefficient on |z| = q, is of ordinary size: form it from logs
        with np.errstate(divide="ignore"):
            log_c = np.log(coeffs.astype(complex))
        inner = np.exp(log_c + np.arange(-k, k + 1) * np.log(q))
    # one buffer for both circles, in FFT storage order: modes 0..K first,
    # modes -K..-1 last
    buf = np.zeros((2,) + coeffs.shape[:-1] + (n,), dtype=complex)
    for circle, c in zip(buf, (coeffs, inner)):
        circle[..., : k + 1] = c[..., k:]
        circle[..., n - k :] = c[..., :k]
    return np.fft.ifft(buf) * n


def laurent_from_traces(grid: BoundaryGrid, q: float, outer, inner) -> np.ndarray:
    """Coefficients of the holomorphic function with the given traces.

    Nonnegative modes are read off the outer circle, negative modes off
    the inner one (where they are O(1) rather than O(q^|k|)); this keeps
    the roundoff of every coefficient at its own scale. The traces may be
    stacks along the last axis, of one shape, giving one coefficient row
    per trace pair; both are transformed in one FFT.
    """
    return _laurent_from_spectra(grid, q, np.fft.fft(np.array([outer, inner], dtype=complex)))


def _laurent_from_spectra(grid: BoundaryGrid, q: float, spectra: np.ndarray) -> np.ndarray:
    """laurent_from_traces from the DFTs of the traces, stacked outer first along the first axis."""
    n = grid.n
    k = n // 2 - 1
    f0 = spectra[0, ..., : k + 1] / n
    f1 = spectra[1, ..., n - k :] / n
    return np.concatenate([f1 * _q_powers(q, k)[:k:-1], f0], axis=-1)


# coefficients per block of the power-series sums: the table of powers is
# P x _BLOCK, and K/_BLOCK Python steps remain (8 at N = 512); the points
# are summed _CHUNK at a time, which bounds the table (and the memory of a
# zero search with many certification circles) without changing any sum
_BLOCK = 32
_CHUNK = 256


def _power_series(z, blocks):
    """Power-series sums at the rows of z, shape (h, P), for m series per row.

    blocks[r, i, s, b] is coefficient b * width + i of series s of row r.
    Horner's rule in w = z^width sums each block by one product with the
    table z^0..z^(width-1), so K/width steps remain; as in Horner's rule,
    every intermediate is a tail sum_{i>=j} c_i z^(i-j) at the scale of the
    coefficients, and no power above z^width is formed, so the 1/z half of
    a series on |z| = q stays finite where q^-K overflows. Returns (h, P, m).
    """
    h, width, m, nblocks = blocks.shape
    powers = np.ones(z.shape + (width,), dtype=complex)
    powers[..., 1:] = z[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    sums = (powers @ blocks.reshape(h, width, m * nblocks)).reshape(z.shape + (m, nblocks))
    w = (powers[..., -1] * z)[..., None]
    out = sums[..., -1]
    for b in range(nblocks - 2, -1, -1):
        out = out * w + sums[..., b]
    return out


class _LaurentSums:
    """The series with modes -K..K laid out once: f(z) = P(z) + Q(1/z), f'(z) = P'(z) - Q'(1/z) / z^2.

    P = c_0..c_K and Q = 0, c_-1..c_-K share one block layout with their
    slopes, so values (and slopes) take one table of powers and one Horner
    loop. Q is dropped when it vanishes: a Taylor series is defined at z = 0.
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        k = (len(c) - 1) // 2
        width = min(k + 1, _BLOCK)
        nblocks = -(-(k + 1) // width)
        rows = np.zeros((2, 2, nblocks * width), dtype=complex)  # (P, Q) x (series, slope)
        rows[:, 0, : k + 1] = c[k:], c[: k + 1][::-1]
        rows[1, 0, 0] = 0.0
        rows[:, 1, :k] = rows[:, 0, 1 : k + 1] * np.arange(1, k + 1)
        rows = rows[: 1 + bool(np.any(rows[1]))]
        self.blocks = np.ascontiguousarray(rows.reshape(len(rows), 2, nblocks, width).transpose(0, 3, 1, 2))

    def __call__(self, z, slope=False):
        """f at the points z (any shape), or (f, f') with slope, summed _CHUNK points at a time."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.empty((1 + slope, flat.size), dtype=complex)
        for start in range(0, flat.size, _CHUNK):
            points = flat[None, start : start + _CHUNK]
            if len(self.blocks) == 2:
                points = np.concatenate([points, 1.0 / points])
            sums = _power_series(points, self.blocks[:, :, : 1 + slope])
            if slope and len(points) == 2:
                sums[1, :, 1] *= -points[1] ** 2
            out[:, start : start + _CHUNK] = sums.sum(axis=0).T
        out = out.reshape((-1,) + z.shape)
        return (out[0], out[1]) if slope else out[0]


def laurent_evaluate(coeffs, z) -> np.ndarray:
    """Evaluate the Laurent series with modes -K..K at the points z.

    A series without negative modes is a Taylor series and is defined at
    z = 0 as well.
    """
    return _LaurentSums(coeffs)(z)


def _shift_modes(coeffs: np.ndarray, sigma: int) -> np.ndarray:
    """Multiply by z^sigma in coefficient space, truncating at the ends."""
    k = len(coeffs)
    sigma = int(np.clip(sigma, -k, k))
    return np.pad(coeffs, k)[k - sigma : 2 * k - sigma]


def annulus_flux(grid: BoundaryGrid, q: float, outer_values, inner_values) -> float:
    """The flux (inner mean - outer mean) / log q of the harmonic extension of real boundary data.

    It is harmonic_extend_annulus's c_log without the mode solve, and refuses what that refuses.
    """
    _check_modulus(q)
    if q * q > 1.0 - 1e-6:
        raise ModeConditioning("mode solve degenerates as the annulus thins")
    if np.shape(outer_values) != (grid.n,) or np.shape(inner_values) != (grid.n,):
        raise ConfigError("boundary data must be sampled on the grid")
    outer_mean, inner_mean = np.mean(np.array([outer_values, inner_values], dtype=float), axis=1)
    return float((inner_mean - outer_mean) / np.log(q))


def harmonic_extend_annulus(grid: BoundaryGrid, q: float, outer_values, inner_values) -> tuple:
    """Harmonic function u = c_log log|z| + Re G on the annulus with the given real boundary data.

    Returns (c_log, coefficients of the Laurent series G, modes -K..K). The
    log coefficient c_log is the flux through the annulus (annulus_flux); G
    is single-valued and solved mode by mode.
    """
    c_log = annulus_flux(grid, q, outer_values, inner_values)
    k = grid.n // 2 - 1
    f0, f1 = np.fft.fft(np.array([outer_values, inner_values], dtype=float))[:, : k + 1] / grid.n
    qk = q ** np.arange(1, k + 1, dtype=float)
    denom = 1.0 - qk * qk
    fk = 2.0 * (f0[1:] - f1[1:] * qk) / denom
    # same as 2 d0 - f, but keeps the q^k damping explicit so the inner
    # trace is reproduced to roundoff relative to its own data
    gk = 2.0 * qk * (f1[1:] - f0[1:] * qk) / denom
    return c_log, np.concatenate([np.conj(gk)[::-1], [f0[0].real], fk])


# --------------------------------------------------------------------------
# zero location
# --------------------------------------------------------------------------


# diagonal entries of the Hankel QR factor below _RANK_TOL times the first
# end the numerical rank (the number of distinct zeros); Newton polish takes at
# most _POLISH_STEPS steps; each multiplicity is certified by the winding
# on a _CIRCLE_POINTS-point circle around its zero
_RANK_TOL = 1e-11
_POLISH_STEPS = 50
_CIRCLE_POINTS = 64


@dataclass(frozen=True)
class LocatedZero:
    """A zero with its multiplicity, |f| there, and the radius of a disc about it holding it alone."""

    position: complex
    multiplicity: int
    residual: float
    radius: float


def _moments(traces, spectra, domain: Annulus, count) -> np.ndarray:
    """s_k = (1/2 pi i) * contour integral of z^k f'/f dz, k < count.

    On the circle z = R exp(i theta), f' dz = (df/dtheta) dtheta, so s_k is
    R^k / i times mode -k of f_theta / f, which one inverse FFT of both
    traces as a stack yields (spectra holds their DFTs); the inner circle
    enters with a minus sign.
    """
    values = np.array([t.values for t in traces])
    log_derivative = _derivative_samples(spectra) / values
    scale = np.array([[1.0], [-1.0]]) * -1j * np.array([[1.0], [domain.q]]) ** np.arange(count)
    return (scale * np.fft.ifft(log_derivative)[:, :count]).sum(axis=0)


def _hankel_zeros(s, p):
    """Distinct zeros and multiplicities from the moments s_0..s_{2p-1}.

    H = [s_{i+j}] is V^T D V (V Vandermonde in the r distinct zeros, D their
    multiplicities), so its first r columns span its range and an unpivoted
    QR reveals r. The zeros are the eigenvalues of the pencil (H_>, H),
    H_> = [s_{i+j+1}], on those columns; sum_j m_j z_j^k = s_k, k < r, gives
    the multiplicities. For p = 1 the pencil (s_1, s_0) is solved in closed
    form: one zero s_1 / s_0 of multiplicity s_0, none when s_0 = 0.
    """
    if p == 1:
        return (s[1:2] / s[:1], np.rint(s[:1].real).astype(int)) if s[0] != 0 else (s[:0], np.zeros(0, int))
    idx = np.add.outer(np.arange(p), np.arange(p))
    basis, tri = np.linalg.qr(s[idx])
    diag = np.abs(np.diag(tri))
    small = diag <= _RANK_TOL * diag[0]
    r = int(np.argmax(small)) if small.any() else p
    reduced = basis[:, :r].conj().T @ s[idx[:, :r] + 1]
    nodes = np.linalg.eigvals(np.linalg.solve(tri[:r, :r], reduced))
    vandermonde = nodes[None, :] ** np.arange(r)[:, None]
    mult = np.rint(np.linalg.solve(vandermonde, s[:r]).real).astype(int)
    return nodes, mult


def _polish(series, z, mult, noise):
    """Newton steps z <- z - m f/f' on the Laurent series, all zeros at once.

    Only zeros whose |f| is above noise, the roundoff floor of the traces,
    move, and only they need f'. A step stands only while |f| decreases: at
    the floor, and around a multiple zero where f is flat, steps only wander.
    """
    z = np.array(z, dtype=complex)
    fz = series(z)
    todo = np.flatnonzero(np.abs(fz) > noise)
    slope = series(z[todo], slope=True)[1] if todo.size else None
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            if not todo.size:
                break
            trial = z[todo] - mult[todo] * fz[todo] / slope
            f_trial, slope = series(trial, slope=True)
            better = np.abs(f_trial) < np.abs(fz[todo])
            z[todo[better]] = trial[better]
            fz[todo[better]] = f_trial[better]
            keep = better & (np.abs(f_trial) > noise)
            todo, slope = todo[keep], slope[keep]
    return z, np.abs(fz)


def locate_zeros(traces, domain: Annulus):
    """Find all zeros of the holomorphic extension, with multiplicities.

    The expected total p comes from the boundary winding numbers. The zeros
    are the eigenvalues of the Hankel pencil of the boundary moments of
    f'/f, polished by Newton's method on the Laurent series; a winding
    count on a small circle around each zero, inside the domain and apart
    from the other zeros, must confirm its multiplicity, and the
    multiplicities must sum to p. Raises CountMismatch otherwise, and when
    an eigenvalue of the pencil lies outside q <= |z| <= 1.
    """
    traces = _trace_pair(traces)
    grid = _same_grid(*traces)
    expected = sum(sign * w for sign, w in zip((1, -1), winding_numbers(traces)))
    if not 0 <= 2 * expected <= grid.n:
        raise CountMismatch(f"boundary windings predict {expected} zeros on a {grid.n}-point grid")
    if expected == 0:
        return []

    spectra = np.array([t._spectrum for t in traces])
    nodes, mult = _hankel_zeros(_moments(traces, spectra, domain, 2 * expected), expected)
    if np.any(mult < 1) or mult.sum() != expected:
        raise CountMismatch(
            f"moment multiplicities {mult.tolist()} do not sum to the boundary count {expected}"
        )
    # the polish sums the Laurent series at the nodes, and its 1/z half
    # overflows far inside the inner circle
    outside = ~((np.abs(nodes) >= domain.q) & (np.abs(nodes) <= 1.0))
    if outside.any():
        raise CountMismatch(
            f"moment nodes {nodes[outside].tolist()} lie outside the annulus {domain.q} <= |z| <= 1"
        )
    coeffs = _laurent_from_spectra(grid, domain.q, spectra)
    series = _LaurentSums(coeffs)
    # each Laurent mode carries about one unit in the last place of the
    # largest trace value, and these add up like a random walk over the
    # modes; the polish of a true k-fold zero ends below that floor, while a
    # cluster of k zeros of diameter d leaves |f| at its centre near
    # (d / r)^k times the maximum on its certification circle
    noise = np.sqrt(len(coeffs)) * np.finfo(float).eps * max(t.sup() for t in traces)
    z, residuals = _polish(series, nodes, mult, noise)

    # disjoint circles inside the annulus: half the distance to the nearest
    # other zero and to the boundary
    r = np.abs(z)
    room = np.minimum(1.0 - r, r - domain.q)
    gaps = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    radii = 0.5 * np.minimum(room, gaps.min(axis=1))
    if not np.all(radii > 0.0):
        raise CountMismatch("polished zeros left the domain or merged")

    # the windings of all circles, unwrapped as one stack; each row is
    # checked as a trace of its own would be
    values = series(z[:, None] + radii[:, None] * np.exp(1j * BoundaryGrid(_CIRCLE_POINTS).theta))
    if not np.all(np.isfinite(values)):
        raise ValueError("trace values must be finite")
    windings, failures, _ = _phase_rows(values)
    zeros = []
    for zj, mj, rj, row, res, counted, failure in zip(z, mult, radii, values, residuals, windings, failures):
        if failure is not None:
            raise CountMismatch(f"cannot count the zeros near {zj:.6g}: {failure}") from failure
        if counted != mj:
            raise CountMismatch(f"{counted} zeros near {zj:.6g}, the moments predict {mj}")
        if mj > 1 and res > noise:
            peak = np.max(np.abs(row))
            raise CountMismatch(
                f"|f| at the {mj}-fold zero near {zj:.6g} is {res / peak:.3g} of its maximum on "
                f"the certification circle, above the roundoff bound {noise / peak:.3g}: "
                f"a cluster of {mj} zeros"
            )
        zeros.append(LocatedZero(position=complex(zj), multiplicity=int(mj), residual=float(res), radius=float(rj)))
    return sorted(zeros, key=lambda z: (round(abs(z.position), 9), np.angle(z.position)))


def certify_simple_zero(traces, domain: Annulus, z) -> LocatedZero:
    """Certify z as the only zero of the traces' Laurent extension F = sum a_k w^k + b_k (q/w)^k.

    a_k are the outer trace's modes, b_k the inner one's modes -k, and the
    boundary windings must count one zero. Within rho_max, half the distance
    from z to the nearer circle, |F''| <= M = sum k(k-1)|a_k| R+^(k-2) +
    sum k(k+1)|b_k| (q/R-)^k / R-^2, R+- = |z| +- rho_max, and no power of q
    above 1 is formed. Where the radii polynomial p(rho) = M rho^2 / 2 -
    (|F'(z)| - eps') rho + |F(z)| + eps is negative (eps and eps' the roundoff
    floors of F and F'), Rouche's theorem puts one zero within rho of z. The
    radius is p's smaller root (Day, Lessard and Mischaikow 2007); CountMismatch
    when it is not below rho_max.
    """
    traces = _trace_pair(traces)
    grid = _same_grid(*traces)
    outer_winding, inner_winding = winding_numbers(traces)
    if outer_winding - inner_winding != 1:
        raise CountMismatch(f"boundary windings predict {outer_winding - inner_winding} zeros, not one")
    q, n, k, r = domain.q, grid.n, grid.n // 2 - 1, abs(z)
    rho_max = 0.5 * min(1.0 - r, r - q)
    if not rho_max > 0.0:
        raise CountMismatch(f"{z:.6g} is not inside the annulus {q} < |z| < 1")
    spectra = np.array([t._spectrum for t in traces])
    value, slope = np.abs(_LaurentSums(_laurent_from_spectra(grid, q, spectra))(complex(z), slope=True))
    j = np.arange(1, k + 1)
    a, b = np.abs(spectra[0, 1 : k + 1]) / n, np.abs(spectra[1, n - k :][::-1]) / n
    far, near = r + rho_max, r - rho_max
    curvature = np.sum(j * (j - 1) * a * far ** (j - 2.0) + j * (j + 1) * b * (q / near) ** j / near**2)
    # each mode carries about one unit in the last place of the largest trace
    # value, summed like a random walk: plainly for F, weighted by the slope for F'
    unit = np.finfo(float).eps * max(t.sup() for t in traces)
    gain = slope - unit * np.sqrt(np.sum((j * r ** (j - 1.0)) ** 2 + (j * (q / r) ** j / r) ** 2))
    offset = value + np.sqrt(2 * k + 1) * unit
    discriminant = gain * gain - 2.0 * curvature * offset
    rho = 2.0 * offset / (gain + np.sqrt(discriminant)) if gain > 0.0 and discriminant > 0.0 else np.inf
    if not rho < rho_max:
        raise CountMismatch(
            f"radii polynomial leaves no certified disc about {z:.6g}: |F(z)| = {value:.3g}, "
            f"|F'(z)| = {slope:.3g}, M = {curvature:.3g}, rho_max = {rho_max:.3g}"
        )
    return LocatedZero(position=complex(z), multiplicity=1, residual=float(value), radius=float(rho))
