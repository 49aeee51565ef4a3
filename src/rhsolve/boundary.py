"""Discrete calculus on equispaced boundary grids.

A boundary function is stored by its samples on the uniform grid
theta_j = 2 pi j / N and identified with its trigonometric interpolant, so
spectral operations (conjugation, differentiation, off-grid evaluation) are
exact for band-limited data. Trig coefficients are indexed -N/2 < k <= N/2.

The discrete conjugation operator multiplies mode k by -i sign(k) and zeroes
the mean, so u + i T(u) is the trace of a holomorphic function with real part
u on the unit circle. The Nyquist mode N/2 is also zeroed: its conjugate
samples to zero on this grid and keeping it would make T(u) complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import UnresolvedPhase, ZeroOnBoundary

_TWO_PI = 2.0 * np.pi

# the certificate's Holder scan holds at most _SCAN_BLOCK x N differences at a
# time but forms up to N^2 / 2 of them per row; no bench case or README example
# goes above N = 1024, and only the Holder memory test reaches N = 4096
_MAX_GRID = 4096


@dataclass(frozen=True)
class BoundaryGrid:
    """Uniform periodic grid with N a power of two, 16 <= N <= 4096."""

    n: int

    def __post_init__(self):
        n = self.n
        if n < 16 or n > _MAX_GRID or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two in [16, {_MAX_GRID}], got {n}")

    @property
    def theta(self) -> np.ndarray:
        """The nodes, one read-only array per grid size: its identity names the grid."""
        return _nodes(self.n)

    def modes(self) -> np.ndarray:
        """Mode numbers in FFT storage order, with the Nyquist mode at +N/2."""
        k = np.arange(self.n)
        k = np.where(k > self.n // 2, k - self.n, k)
        return k


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@lru_cache(maxsize=None)
def _nodes(n: int) -> np.ndarray:
    return _read_only(_TWO_PI * np.arange(n) / n)


@lru_cache(maxsize=None)
def _derivative_multiplier(n: int) -> np.ndarray:
    """i k per mode; the Nyquist derivative is pure-imaginary noise on the grid, so it is dropped."""
    k = BoundaryGrid(n).modes().astype(float)
    k[n // 2] = 0.0
    return _read_only(1j * k)


@lru_cache(maxsize=None)
def _conjugate_multiplier(n: int) -> np.ndarray:
    """-i sign(k) per mode, with the mean and the Nyquist mode dropped."""
    mult = -1j * np.sign(BoundaryGrid(n).modes()).astype(complex)
    mult[n // 2] = 0.0
    return _read_only(mult)


@lru_cache(maxsize=None)
def _abs_modes(n: int) -> np.ndarray:
    """|k| per mode; the Nyquist mode's two split halves weigh N/2 together."""
    return _read_only(np.abs(BoundaryGrid(n).modes()).astype(float))


@dataclass(frozen=True)
class BoundaryTrace:
    """Samples of a boundary function on a BoundaryGrid (stored complex).

    The values are read-only, on a copy when the caller's array would be
    aliased, so the phase increments a trace memoizes for winding_number and
    unwrapped_phase cannot go stale.
    """

    grid: BoundaryGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values is self.values:
            values = values.copy()
        if values.shape != (self.grid.n,):
            raise ValueError("trace length does not match its grid")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("trace values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def _increments(self) -> np.ndarray:
        """Phase increments, unwrapped once per trace."""
        increments = _interval_increments(self)
        increments.flags.writeable = False
        return increments

    def real_values(self, tol: float = 1e-11) -> np.ndarray:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        if np.max(np.abs(self.values.imag)) > tol * scale:
            raise ValueError("trace is not real-valued")
        return self.values.real.copy()

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


def _same_grid(*traces: BoundaryTrace) -> BoundaryGrid:
    grid = traces[0].grid
    for t in traces[1:]:
        if t.grid.n != grid.n:
            raise ValueError("traces live on different grids")
    return grid


def trig_coefficients(trace: BoundaryTrace) -> np.ndarray:
    """Trig coefficients in ascending order, k = -N/2+1 .. N/2."""
    n = trace.grid.n
    c = np.fft.fft(trace.values) / n
    return np.roll(c, n // 2 - 1)


def coefficient_modes(grid: BoundaryGrid) -> np.ndarray:
    """Mode numbers matching the trig_coefficients layout."""
    n = grid.n
    return np.arange(-(n // 2) + 1, n // 2 + 1)


def _derivative_samples(grid: BoundaryGrid, values: np.ndarray) -> np.ndarray:
    """d/dtheta of the interpolant of samples on the grid, along the last axis of a stack."""
    c = np.fft.fft(np.asarray(values, dtype=complex))
    return np.fft.ifft(_derivative_multiplier(grid.n) * c)


def spectral_derivative(trace: BoundaryTrace) -> BoundaryTrace:
    """d/dtheta of the interpolant, sampled back on the grid."""
    return BoundaryTrace(trace.grid, _derivative_samples(trace.grid, trace.values))


def conjugate_samples(grid: BoundaryGrid, u: np.ndarray) -> np.ndarray:
    """T(u) for real samples u on the grid, along the last axis of a stack.

    Mode k is multiplied by -i sign(k); the mean and the Nyquist mode are
    dropped, so the output is real with zero mean and T(cos k.) = sin k. for
    0 < k < N/2.
    """
    return np.fft.ifft(np.fft.fft(u) * _conjugate_multiplier(grid.n)).real


def hilbert_transform(trace: BoundaryTrace) -> BoundaryTrace:
    """Periodic Hilbert transform of a real trace (conjugate_samples on a trace)."""
    return BoundaryTrace(trace.grid, conjugate_samples(trace.grid, trace.real_values()).astype(complex))


def analytic_completion(trace: BoundaryTrace) -> BoundaryTrace:
    """u + i T(u): the trace of the holomorphic extension with Re = u, Im(0) = 0."""
    u = trace.real_values()
    return BoundaryTrace(trace.grid, u + 1j * conjugate_samples(trace.grid, u))


# --------------------------------------------------------------------------
# phase unwrapping and winding numbers
# --------------------------------------------------------------------------

_REFINE = 8
# modulus floor, relative to the trace's maximum, below which a trace counts
# as vanishing
_ZERO_FLOOR = 1e-12
# relative to the trace's maximum, covers the rounding of the refined samples
# and of the spectral bound in the certified unwrap; far above both
_ROUNDOFF_MARGIN = 1e-9


def _refined_samples(values: np.ndarray, factor: int) -> np.ndarray:
    """Upsample by zero-padding the spectrum (Nyquist split symmetrically)."""
    n = len(values)
    spec = np.fft.fft(values)
    m = n * factor
    padded = np.zeros(m, dtype=complex)
    padded[: n // 2] = spec[: n // 2]
    padded[m - n // 2 + 1 :] = spec[n // 2 + 1 :]
    padded[n // 2] = 0.5 * spec[n // 2]
    padded[m - n // 2] += 0.5 * spec[n // 2]
    return np.fft.ifft(padded) * factor


def _interval_increments(trace: BoundaryTrace) -> np.ndarray:
    """Continuous-phase increment of the interpolant across each grid interval.

    Raises ZeroOnBoundary when the (refined) trace modulus drops below the
    zero floor, and UnresolvedPhase when an increment reaches pi or a refined
    step is nearly antipodal (the grid cannot certify the unwrapping).

    The spectrum decides first. L = sum |k| |c_k| bounds |u'| on the
    interpolant, so between nodes the modulus stays above
    m = min |u_j| - L pi / N and the phase turns by at most L (2 pi / N) / m
    per interval. When m clears the zero floor and that turn is below
    0.9 pi, every check of the refinement would pass and each increment is
    the principal angle of u_{j+1} / u_j; otherwise the refinement runs.
    """
    values = trace.values
    modulus = np.abs(values)
    scale, low = float(np.max(modulus)), float(np.min(modulus))
    if scale == 0.0 or low <= _ZERO_FLOOR * scale:
        raise ZeroOnBoundary("trace modulus at or below the zero floor")
    n = trace.grid.n
    lipschitz = float(_abs_modes(n) @ np.abs(np.fft.fft(values))) / n
    floor = low - lipschitz * np.pi / n - _ROUNDOFF_MARGIN * scale
    if floor > _ZERO_FLOOR * scale and lipschitz * _TWO_PI / n < 0.9 * np.pi * floor:
        return np.angle(np.roll(values, -1) / values)
    fine = _refined_samples(values, _REFINE)
    if np.min(np.abs(fine)) <= _ZERO_FLOOR * scale:
        raise ZeroOnBoundary("interpolated trace modulus at or below the zero floor")
    steps = np.angle(np.roll(fine, -1) / fine)
    if np.max(np.abs(steps)) >= 0.9 * np.pi:
        raise UnresolvedPhase("near-antipodal phase step after refinement")
    increments = steps.reshape(trace.grid.n, _REFINE).sum(axis=1)
    if np.max(np.abs(increments)) >= np.pi:
        raise UnresolvedPhase("adjacent-node phase jump reaches pi; grid too coarse")
    return increments


def winding_number(trace: BoundaryTrace) -> int:
    """Winding of a nonvanishing trace around 0, by certified phase unwrapping."""
    increments = trace._increments
    total = float(np.sum(increments)) / _TWO_PI
    w = int(np.round(total))
    residue = abs(total - w)
    if residue >= 0.1:
        raise UnresolvedPhase(f"winding rounding residue {residue:.3f} >= 0.1")
    return w


def unwrapped_phase(trace: BoundaryTrace) -> np.ndarray:
    """Continuous argument along the trace, anchored in (-pi, pi] at node 0.

    Each value is re-snapped to agree with the principal argument modulo 2 pi,
    so exp(i b_j) reproduces values_j / |values_j| to roundoff.
    """
    increments = trace._increments
    b = np.empty(trace.grid.n)
    b[0] = np.angle(trace.values[0])
    b[1:] = b[0] + np.cumsum(increments[:-1])
    principal = np.angle(trace.values)
    b = principal + _TWO_PI * np.round((b - principal) / _TWO_PI)
    return b


# --------------------------------------------------------------------------
# discrete Holder norms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderNormReport:
    """Discrete C^alpha surrogates of one trace, or of each row of a stack, on the grid.

    alpha is the Holder exponent and sup_norm is max |u_i|. c_alpha is the
    exact maximum of |u_i - u_j| / d_ij^alpha over all node pairs, with
    d_ij = 2 sin(pi |i - j| / N) the chord between e^{i theta_i} and e^{i theta_j}.
    Of a stack, sup_norm and c_alpha hold one value per row.
    """

    alpha: float
    sup_norm: float
    c_alpha: float


# the scan takes separations in blocks of 8, 8, 16, 32 and then _SCAN_BLOCK,
# each block as many rows at a time as keep a step within _SCAN_BLOCK x N
# differences
_FIRST_BLOCK = 8
_SCAN_BLOCK = 64


@lru_cache(maxsize=64)
def _chord_weights(n: int, alpha: float) -> np.ndarray:
    """chord(k)^-alpha for separations k = 1 .. N/2, chord(k) = 2 sin(pi k / N)."""
    weights = (2.0 * np.sin(np.pi * np.arange(1, n // 2 + 1) / n)) ** -alpha
    weights.flags.writeable = False
    return weights


def _pair_seminorm(values: np.ndarray, alpha: float) -> np.ndarray:
    """Per row of a (rows, N) stack: max over node pairs of |u_i - u_j| / chord_ij^alpha.

    The chord between nodes i and j depends only on k = |i - j| mod N, and
    separations k and N - k have the same chord, so the pair maximum is the
    maximum over k = 1..N/2 of max_i |u_i - u_{i+k}| * chord(k)^-alpha. The
    weight decreases with k, so a row leaves the scan once a bound on the
    diameter of its values times the next block's first weight cannot beat
    the best ratio found for it.
    """
    if not values.imag.any():
        values = values.real
    rows, n = values.shape
    half = n // 2
    weights = _chord_weights(n, alpha)
    # a true upper bound on max |u_i - u_j|, widened to cover its own rounding
    spread = np.hypot(np.ptp(values.real, axis=1), np.ptp(values.imag, axis=1)) * (1.0 + 1e-12)
    best = np.zeros(rows)
    # the rows still in the scan, and each row followed by its first half:
    # extended[r, k + i] = u_{(i + k) mod N}
    active = np.arange(rows)
    extended = np.concatenate([values, values[:, :half]], axis=1)
    # the differences of a step, then (for complex rows) their moduli: one
    # float per difference, or three
    floats = 3 if np.iscomplexobj(values) else 1
    buffer = np.empty(0)
    start, block = 0, _FIRST_BLOCK
    while start < half:
        keep = spread[active] * weights[start] > best[active]
        if not keep.all():
            active, extended = active[keep], extended[keep]
        if not len(active):
            break
        stop = min(start + block, half)
        width = stop - start
        # windows[r, j, i] = u_{(i + start + 1 + j) mod N} for the active row r
        windows = np.lib.stride_tricks.sliding_window_view(extended[:, start + 1 : stop + n], n, axis=1)
        per_step = min(max(1, _SCAN_BLOCK // width), len(active))
        count = per_step * width * n
        if buffer.size < floats * count:
            buffer = np.empty(floats * count)
        if floats == 3:
            diffs = buffer[: 2 * count].view(complex).reshape(per_step, width, n)
            moduli = buffer[2 * count : 3 * count].reshape(per_step, width, n)
        else:
            diffs = moduli = buffer[:count].reshape(per_step, width, n)
        gaps = np.empty((len(active), width))
        for first in range(0, len(active), per_step):
            last = min(first + per_step, len(active))
            diff, modulus = diffs[: last - first], moduli[: last - first]
            # copying the windows and subtracting in place is faster than
            # subtracting from the overlapping window view
            np.copyto(diff, windows[first:last])
            np.subtract(diff, extended[first:last, None, :n], out=diff)
            np.abs(diff, out=modulus)
            np.max(modulus, axis=2, out=gaps[first:last])
        best[active] = np.maximum(best[active], np.max(gaps * weights[start:stop], axis=1))
        start, block = stop, min(stop, _SCAN_BLOCK)
    return best


def holder_norms(samples, alpha: float = 0.5) -> HolderNormReport:
    """sup and C^alpha seminorm of a BoundaryTrace, or of each row of a stack of samples.

    A stack is an array whose last axis holds samples on a BoundaryGrid; the
    report's fields then have its leading shape (floats for one row).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = samples.values if isinstance(samples, BoundaryTrace) else np.asarray(samples)
    n = BoundaryGrid(values.shape[-1]).n
    if not np.all(np.isfinite(values)):
        raise ValueError("trace values must be finite")
    lead = values.shape[:-1]
    stack = values.reshape(-1, n)
    sup_norm = np.max(np.abs(stack), axis=1).reshape(lead)
    c_alpha = _pair_seminorm(stack, alpha).reshape(lead)
    if not lead:
        sup_norm, c_alpha = float(sup_norm), float(c_alpha)
    return HolderNormReport(alpha=alpha, sup_norm=sup_norm, c_alpha=c_alpha)


# --------------------------------------------------------------------------
# certificate norms and probes
# --------------------------------------------------------------------------

# Holder exponent of the certificate norms
_CERTIFY_ALPHA = 0.5


def _parts_max(grid: BoundaryGrid, parts, norm):
    """max over the boundary parts of norm(part), one value per row of a stack.

    Each part is one trace's samples or a stack of them along the last axis;
    a single trace per part gives a float. Parts are checked as a
    BoundaryTrace checks its values.
    """
    best = None
    for part in parts:
        part = np.asarray(part)
        if part.shape[-1:] != (grid.n,):
            raise ValueError("trace length does not match its grid")
        if not np.all(np.isfinite(part)):
            raise ValueError("trace values must be finite")
        value = norm(part)
        best = value if best is None else np.maximum(best, value)
    return best if np.ndim(best) else float(best)


def holder_residual_norm(grid: BoundaryGrid, parts):
    """Certificate norm of a residual: max of sup + C^alpha over its boundary parts.

    Parts may be stacks of residuals along the last axis; the norm is then
    one value per row, from one seminorm scan per part.
    """

    def norm(part):
        rep = holder_norms(part, _CERTIFY_ALPHA)
        return rep.sup_norm + rep.c_alpha

    return _parts_max(grid, parts, norm)


def holder_iterate_norm(grid: BoundaryGrid, parts):
    """Certificate norm of an iterate: max of sup + C^alpha of d/dtheta over its boundary parts.

    Parts may be stacks of iterates along the last axis; the norm is then
    one value per row, from one FFT pair and one seminorm scan per part.
    """

    def norm(part):
        return np.max(np.abs(part), axis=-1) + holder_norms(_derivative_samples(grid, part), _CERTIFY_ALPHA).c_alpha

    return _parts_max(grid, parts, norm)


def band_limited_sampler(grid: BoundaryGrid):
    """Sampler of smooth real probes c0 + sum_{m<=8} a_m cos m theta + b_m sin m theta.

    The coefficients are Gaussian, damped by (1 + m)^-2.
    """
    modes = np.arange(1, 9)
    cos = np.cos(np.outer(modes, grid.theta))
    sin = np.sin(np.outer(modes, grid.theta))

    def sample(rng):
        c0 = rng.standard_normal()
        a = rng.standard_normal(len(modes)) / (1.0 + modes) ** 2
        b = rng.standard_normal(len(modes)) / (1.0 + modes) ** 2
        return c0 + a @ cos + b @ sin

    return sample
