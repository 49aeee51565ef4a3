"""Laurent series, zero location and interior evaluation from boundary traces.

A holomorphic function on the annulus q < |z| < 1 is represented by its
boundary traces sampled counterclockwise at radius * exp(i theta_j);
laurent_from_traces reads off its Laurent coefficients. (A disc solution
z^n exp(g) needs no zero search: its n zeros sit at the origin.)
laurent_evaluate and laurent_derivative sum the series as two power series,
in z and in 1/z, each by Horner's rule in z^32 over blocks of 32
coefficients: one matrix product with the table z^0..z^31 and K/32 Python
steps, where a Horner loop takes one step per mode. Like Horner's rule, and
unlike a table of all K powers, it never forms z^K, which overflows in the
1/z half on |z| = q for small q on fine grids.
locate_zeros finds all interior zeros with multiplicities from the
argument-principle moments of the traces (Kravanja and Van Barel 2000;
Austin, Kravanja and Trefethen 2014) and certifies each by a winding count,
evaluating the series once on all the small circles; a multiple zero whose
|f| sits above the roundoff of the traces is a cluster and is refused.
cauchy_extend, the discretized Cauchy integral, is the reference quadrature
the Laurent evaluation is tested against; its error decays like
dist(point, boundary)^N, so a margin precondition guards the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (
    _TWO_PI,
    BoundaryGrid,
    BoundaryTrace,
    _same_grid,
    spectral_derivative,
    winding_number,
)
from .errors import CountMismatch, PointTooCloseToBoundary, UnresolvedPhase, ZeroOnBoundary


@dataclass(frozen=True)
class Annulus:
    """The annulus q < |z| < 1."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"annulus modulus must lie in (0, 1), got {self.q}")


def _trace_pair(traces):
    traces = (traces,) if isinstance(traces, BoundaryTrace) else tuple(traces)
    if len(traces) != 2:
        raise ValueError(f"an annulus needs 2 boundary traces (outer, inner), got {len(traces)}")
    return traces


def cauchy_extend(traces, domain: Annulus, points, *, margin=None, derivative=False):
    """Evaluate the holomorphic extension of boundary traces at interior points.

    traces = (outer, inner), both sampled counterclockwise; the inner-circle
    integral enters with a minus sign. With derivative=True the kernel
    z/(z-w) is replaced by z/(z-w)^2.

    Raises PointTooCloseToBoundary when any point is within margin (default
    2 pi / N) of a boundary circle, where the quadrature degrades.
    """
    traces = _trace_pair(traces)
    if margin is None:
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
            dz = z[None, :] - w
            kernel = z[None, :] / (dz * dz) if derivative else z[None, :] / dz
            out[start : start + 1024] += sign * (kernel @ f) / n
    return out.reshape(points.shape)


# --------------------------------------------------------------------------
# Laurent series
# --------------------------------------------------------------------------


def laurent_from_traces(grid: BoundaryGrid, q: float, outer, inner) -> np.ndarray:
    """Coefficients of the holomorphic function with the given traces.

    Nonnegative modes are read off the outer circle, negative modes off
    the inner one (where they are O(1) rather than O(q^|k|)); this keeps
    the roundoff of every coefficient at its own scale. The traces may be
    stacks along the last axis, giving one coefficient row per trace pair.
    """
    n = grid.n
    k = n // 2 - 1
    f0 = np.fft.fft(np.asarray(outer, dtype=complex)) / n
    f1 = np.fft.fft(np.asarray(inner, dtype=complex)) / n
    c = np.zeros(f0.shape[:-1] + (2 * k + 1,), dtype=complex)
    c[..., k:] = f0[..., : k + 1]
    neg = np.arange(-k, 0)
    c[..., :k] = f1[..., neg % n] * q ** (-neg.astype(float))
    return c


# coefficients per block of the power-series sums: the table of powers is
# P x _BLOCK, and K/_BLOCK Python steps remain (8 at N = 512)
_BLOCK = 32


def _power_series(z, c):
    """sum_j c_j z^j at the points z (any shape), for coefficients c_0..c_K.

    Horner's rule in w = z^_BLOCK: each block of _BLOCK coefficients is
    summed by one product with the table z^0..z^(_BLOCK-1), so K/_BLOCK
    steps remain. As in Horner's rule, every intermediate is the tail
    sum_{i>=j} c_i z^(i-j) at the scale of the coefficients, and no power
    above z^_BLOCK is formed: the 1/z half of a series on |z| = q stays
    finite where q^-K overflows.
    """
    c = np.asarray(c, dtype=complex)
    flat = np.asarray(z, dtype=complex).reshape(-1)
    nblocks = -(-len(c) // _BLOCK)
    if nblocks == 0:
        return np.zeros(np.shape(z), dtype=complex)
    width = min(len(c), _BLOCK)
    padded = np.zeros(nblocks * _BLOCK, dtype=complex)
    padded[: len(c)] = c
    blocks = padded.reshape(nblocks, _BLOCK)[:, :width].T
    powers = np.empty((flat.size, width + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = flat[:, None]
    np.cumprod(powers, axis=1, out=powers)
    sums = powers[:, :width] @ blocks
    w = powers[:, width]
    out = sums[:, -1]
    for b in range(nblocks - 2, -1, -1):
        out = out * w + sums[:, b]
    return out.reshape(np.shape(z))


def laurent_evaluate(coeffs, z) -> np.ndarray:
    """Evaluate the Laurent series with modes -K..K at the points z.

    A series without negative modes is a Taylor series and is defined at
    z = 0 as well.
    """
    c = np.asarray(coeffs, dtype=complex)
    k = (len(c) - 1) // 2
    z = np.asarray(z, dtype=complex)
    out = _power_series(z, c[k:])
    if np.any(c[:k]):
        inv = 1.0 / z
        out = out + inv * _power_series(inv, c[:k][::-1])
    return out


def laurent_derivative(coeffs, z) -> np.ndarray:
    """Evaluate the derivative of the Laurent series (at z = 0 too for a Taylor series)."""
    c = np.asarray(coeffs, dtype=complex)
    k = (len(c) - 1) // 2
    z = np.asarray(z, dtype=complex)
    out = _power_series(z, c[k + 1 :] * np.arange(1, k + 1))
    if np.any(c[:k]):
        inv = 1.0 / z
        neg = c[:k][::-1] * -np.arange(1, k + 1)
        out = out + inv * inv * _power_series(inv, neg)
    return out


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
    position: complex
    multiplicity: int
    residual: float


def _moments(traces, domain: Annulus, count) -> np.ndarray:
    """s_k = (1/2 pi i) * contour integral of z^k f'/f dz, k < count.

    On the circle z = R exp(i theta), f' dz = (df/dtheta) dtheta, so s_k is
    R^k / i times mode -k of f_theta / f, which one inverse FFT yields; the
    inner circle enters with a minus sign.
    """
    k = np.arange(count)
    s = np.zeros(count, dtype=complex)
    for sign, radius, trace in zip((1.0, -1.0), (1.0, domain.q), traces):
        log_derivative = spectral_derivative(trace).values / trace.values
        s += sign * -1j * radius ** k * np.fft.ifft(log_derivative)[:count]
    return s


def _hankel_zeros(s, p):
    """Distinct zeros and multiplicities from the moments s_0..s_{2p-1}.

    H = [s_{i+j}] is V^T D V (V Vandermonde in the r distinct zeros, D their
    multiplicities), so its first r columns span its range and an unpivoted
    QR reveals r. The zeros are the eigenvalues of the pencil (H_>, H),
    H_> = [s_{i+j+1}], on those columns; sum_j m_j z_j^k = s_k, k < r, gives
    the multiplicities.
    """
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


def _polish(coeffs, z, mult):
    """Newton steps z <- z - m f/f' on the Laurent series, all zeros at once.

    A zero keeps a step only while |f| decreases: at the roundoff floor, and
    around a multiple zero where f is flat, further steps only wander.
    """
    fz = laurent_evaluate(coeffs, z)
    moving = fz != 0
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            trial = z - mult * fz / laurent_derivative(coeffs, z)
            f_trial = laurent_evaluate(coeffs, trial)
            moving &= np.abs(f_trial) < np.abs(fz)
            if not moving.any():
                break
            z = np.where(moving, trial, z)
            fz = np.where(moving, f_trial, fz)
    return z, np.abs(fz)


def locate_zeros(traces, domain: Annulus):
    """Find all zeros of the holomorphic extension, with multiplicities.

    The expected total p comes from the boundary winding numbers. The zeros
    are the eigenvalues of the Hankel pencil of the boundary moments of
    f'/f, polished by Newton's method on the Laurent series; a winding
    count on a small circle around each zero, inside the domain and apart
    from the other zeros, must confirm its multiplicity, and the
    multiplicities must sum to p. Raises CountMismatch otherwise.
    """
    traces = _trace_pair(traces)
    grid = _same_grid(*traces)
    expected = sum(sign * winding_number(t) for sign, t in zip((1, -1), traces))
    if not 0 <= 2 * expected <= grid.n:
        raise CountMismatch(f"boundary windings predict {expected} zeros on a {grid.n}-point grid")
    if expected == 0:
        return []

    nodes, mult = _hankel_zeros(_moments(traces, domain, 2 * expected), expected)
    if np.any(mult < 1) or mult.sum() != expected:
        raise CountMismatch(
            f"moment multiplicities {mult.tolist()} do not sum to the boundary count {expected}"
        )
    coeffs = laurent_from_traces(grid, domain.q, traces[0].values, traces[1].values)
    z, residuals = _polish(coeffs, nodes, mult)

    # disjoint circles inside the annulus: half the distance to the nearest
    # other zero and to the boundary
    r = np.abs(z)
    room = np.minimum(1.0 - r, r - domain.q)
    gaps = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    radii = 0.5 * np.minimum(room, gaps.min(axis=1))
    if not np.all(radii > 0.0):
        raise CountMismatch("polished zeros left the domain or merged")

    # each Laurent mode carries about one unit in the last place of the
    # largest trace value, and these add up like a random walk over the
    # modes; the polish of a true k-fold zero ends below that floor, while a
    # cluster of k zeros of diameter d leaves |f| at its centre near
    # (d / r)^k times the maximum on its certification circle
    noise = np.sqrt(len(coeffs)) * np.finfo(float).eps * max(t.sup() for t in traces)
    circle = BoundaryGrid(_CIRCLE_POINTS)
    values = laurent_evaluate(coeffs, z[:, None] + radii[:, None] * np.exp(1j * circle.theta))
    zeros = []
    for zj, mj, row, res in zip(z, mult, values, residuals):
        try:
            counted = winding_number(BoundaryTrace(circle, row))
        except (ZeroOnBoundary, UnresolvedPhase) as exc:
            raise CountMismatch(f"cannot count the zeros near {zj:.6g}: {exc}") from exc
        if counted != mj:
            raise CountMismatch(f"{counted} zeros near {zj:.6g}, the moments predict {mj}")
        if mj > 1 and res > noise:
            peak = np.max(np.abs(row))
            raise CountMismatch(
                f"|f| at the {mj}-fold zero near {zj:.6g} is {res / peak:.3g} of its maximum on "
                f"the certification circle, above the roundoff bound {noise / peak:.3g}: "
                f"a cluster of {mj} zeros"
            )
        zeros.append(LocatedZero(position=complex(zj), multiplicity=int(mj), residual=float(res)))
    return sorted(zeros, key=lambda z: (round(abs(z.position), 9), np.angle(z.position)))
