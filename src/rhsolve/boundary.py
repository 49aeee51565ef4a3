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

import numpy as np

from .errors import UnresolvedPhase, ZeroOnBoundary

_TWO_PI = 2.0 * np.pi

# the certificate's Holder scan takes O(N) memory but up to N^2 / 2 pair
# differences per seminorm; no test, bench case or README example goes above
# N = 1024
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
        return _TWO_PI * np.arange(self.n) / self.n

    def modes(self) -> np.ndarray:
        """Mode numbers in FFT storage order, with the Nyquist mode at +N/2."""
        k = np.arange(self.n)
        k = np.where(k > self.n // 2, k - self.n, k)
        return k


@dataclass(frozen=True)
class BoundaryTrace:
    """Samples of a boundary function on a BoundaryGrid (stored complex)."""

    grid: BoundaryGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n,):
            raise ValueError("trace length does not match its grid")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, grid: BoundaryGrid, fn) -> "BoundaryTrace":
        return cls(grid, np.asarray(fn(grid.theta), dtype=complex))

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
    """Trig coefficients in ascending order, k = -N/2+1 .. N/2.

    The inverse, values_from_coefficients, reproduces the samples to roundoff.
    """
    n = trace.grid.n
    c = np.fft.fft(trace.values) / n
    return np.roll(c, n // 2 - 1)


def coefficient_modes(grid: BoundaryGrid) -> np.ndarray:
    """Mode numbers matching the trig_coefficients layout."""
    n = grid.n
    return np.arange(-(n // 2) + 1, n // 2 + 1)


def values_from_coefficients(grid: BoundaryGrid, coefficients: np.ndarray) -> BoundaryTrace:
    n = grid.n
    c = np.roll(np.asarray(coefficients, dtype=complex), -(n // 2 - 1))
    return BoundaryTrace(grid, np.fft.ifft(c * n))


def evaluate_trace(trace: BoundaryTrace, theta) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary angles."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    c = trig_coefficients(trace)
    k = coefficient_modes(trace.grid)
    return np.exp(1j * np.outer(theta, k)) @ c


def spectral_derivative(trace: BoundaryTrace) -> BoundaryTrace:
    """d/dtheta of the interpolant, sampled back on the grid."""
    n = trace.grid.n
    c = np.fft.fft(trace.values)
    k = trace.grid.modes().astype(float)
    k[n // 2] = 0.0  # the Nyquist derivative is pure-imaginary noise on this grid
    return BoundaryTrace(trace.grid, np.fft.ifft(1j * k * c))


def hilbert_transform(trace: BoundaryTrace) -> BoundaryTrace:
    """Periodic Hilbert transform of a real trace.

    Mode k is multiplied by -i sign(k); the mean and the Nyquist mode are
    dropped, so the output is real with zero mean and T(cos k.) = sin k. for
    0 < k < N/2.
    """
    values = trace.real_values()
    n = trace.grid.n
    c = np.fft.fft(values)
    mult = -1j * np.sign(trace.grid.modes()).astype(complex)
    mult[n // 2] = 0.0
    out = np.fft.ifft(c * mult)
    return BoundaryTrace(trace.grid, out.real.astype(complex))


def analytic_completion(trace: BoundaryTrace) -> BoundaryTrace:
    """u + i T(u): the trace of the holomorphic extension with Re = u, Im(0) = 0."""
    u = trace.real_values()
    t = hilbert_transform(trace).values.real
    return BoundaryTrace(trace.grid, u + 1j * t)


# --------------------------------------------------------------------------
# phase unwrapping and winding numbers
# --------------------------------------------------------------------------

_REFINE = 8


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


def _interval_increments(trace: BoundaryTrace, floor: float) -> np.ndarray:
    """Continuous-phase increment of the interpolant across each grid interval.

    Raises ZeroOnBoundary when the (refined) trace modulus drops below the
    floor, and UnresolvedPhase when an increment reaches pi or a refined step
    is nearly antipodal (the grid cannot certify the unwrapping).
    """
    values = trace.values
    scale = float(np.max(np.abs(values)))
    if scale == 0.0 or np.min(np.abs(values)) <= floor * scale:
        raise ZeroOnBoundary("trace modulus at or below the zero floor")
    fine = _refined_samples(values, _REFINE)
    if np.min(np.abs(fine)) <= floor * scale:
        raise ZeroOnBoundary("interpolated trace modulus at or below the zero floor")
    steps = np.angle(np.roll(fine, -1) / fine)
    if np.max(np.abs(steps)) >= 0.9 * np.pi:
        raise UnresolvedPhase("near-antipodal phase step after refinement")
    increments = steps.reshape(trace.grid.n, _REFINE).sum(axis=1)
    if np.max(np.abs(increments)) >= np.pi:
        raise UnresolvedPhase("adjacent-node phase jump reaches pi; grid too coarse")
    return increments


def winding_number(trace: BoundaryTrace, floor: float = 1e-12) -> int:
    """Winding of a nonvanishing trace around 0, by certified phase unwrapping."""
    increments = _interval_increments(trace, floor)
    total = float(np.sum(increments)) / _TWO_PI
    w = int(np.round(total))
    residue = abs(total - w)
    if residue >= 0.1:
        raise UnresolvedPhase(f"winding rounding residue {residue:.3f} >= 0.1")
    return w


def unwrapped_phase(trace: BoundaryTrace, floor: float = 1e-12) -> np.ndarray:
    """Continuous argument along the trace, anchored in (-pi, pi] at node 0.

    Each value is re-snapped to agree with the principal argument modulo 2 pi,
    so exp(i b_j) reproduces values_j / |values_j| to roundoff.
    """
    increments = _interval_increments(trace, floor)
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
    """Discrete C^alpha surrogates of one trace measured on the grid.

    alpha is the Holder exponent and sup_norm is max |u_i|. c_alpha is the
    exact maximum of |u_i - u_j| / d_ij^alpha over all node pairs, with
    d_ij = 2 sin(pi |i - j| / N) the chord between e^{i theta_i} and e^{i theta_j}.
    """

    alpha: float
    sup_norm: float
    c_alpha: float


# separations scanned per block: the scan holds _SCAN_BLOCK x N differences
_SCAN_BLOCK = 64


def _pair_seminorm(values: np.ndarray, alpha: float) -> float:
    """max over node pairs of |u_i - u_j| / chord_ij^alpha, scanned by separation.

    The chord between nodes i and j depends only on k = |i - j| mod N, and
    separations k and N - k have the same chord, so the pair maximum is the
    maximum over k = 1..N/2 of max_i |u_i - u_{i+k}| * chord(k)^-alpha. The
    weight decreases with k, so the scan stops once a bound on the diameter
    of the values times the next block's first weight cannot beat the best
    ratio found.
    """
    if not values.imag.any():
        values = values.real
    n = len(values)
    half = n // 2
    weights = (2.0 * np.sin(np.pi * np.arange(1, half + 1) / n)) ** -alpha
    # a true upper bound on max |u_i - u_j|, widened to cover its own rounding
    spread = np.hypot(np.ptp(values.real), np.ptp(values.imag)) * (1.0 + 1e-12)
    # row k - 1 of the windows is u shifted by k: windows[k - 1, i] = u_{(i + k) mod N}
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([values, values[:half]]), n)[1:]
    best = 0.0
    for start in range(0, half, _SCAN_BLOCK):
        if spread * weights[start] <= best:
            break
        stop = min(start + _SCAN_BLOCK, half)
        gaps = np.abs(windows[start:stop] - values).max(axis=1)
        best = max(best, float(np.max(gaps * weights[start:stop])))
    return best


def holder_norms(trace: BoundaryTrace, alpha: float = 0.5) -> HolderNormReport:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return HolderNormReport(alpha=alpha, sup_norm=trace.sup(), c_alpha=_pair_seminorm(trace.values, alpha))


# --------------------------------------------------------------------------
# certificate norms and probes
# --------------------------------------------------------------------------

# Holder exponent of the certificate norms
_CERTIFY_ALPHA = 0.5


def holder_residual_norm(grid: BoundaryGrid, parts) -> float:
    """Certificate norm of a residual: max of sup + C^alpha over its boundary parts."""
    reports = [holder_norms(BoundaryTrace(grid, part), _CERTIFY_ALPHA) for part in parts]
    return max(rep.sup_norm + rep.c_alpha for rep in reports)


def holder_iterate_norm(grid: BoundaryGrid, parts) -> float:
    """Certificate norm of an iterate: max of sup + C^alpha of d/dtheta over its boundary parts."""
    traces = [BoundaryTrace(grid, part) for part in parts]
    return max(t.sup() + holder_norms(spectral_derivative(t), _CERTIFY_ALPHA).c_alpha for t in traces)


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
