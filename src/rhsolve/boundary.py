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

# both certificates read Wiener norms off FFTs, so no solve runs the O(N^2)
# Holder scan; what the grid cap bounds is an annulus certificate's lockstep
# GMRES, which keeps up to 20 Krylov vectors and their preconditioned images
# for each of its 16 probes, about 40 MB at N = 4096. No bench case or README
# example goes above N = 1024. The disc certificate's residual is measured
# on twice the grid, which may exceed this cap. ROADMAP item 1 (nested
# grids) revisits the cap
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


def wiener_norm(values):
    """||u||_A = sum_k |u_k| over the DFT coefficients of the samples, one value per row of a stack.

    The Wiener algebra A of absolutely summable Fourier series is the norm
    of both certificates; ||uv||_A <= ||u||_A ||v||_A. Read off the samples,
    it is the norm of their interpolant, so the aliasing tail is estimated,
    not enclosed.
    """
    values = np.asarray(values)
    return np.sum(np.abs(np.fft.fft(values)), axis=-1) / values.shape[-1]


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


def _pair_seminorm(values: np.ndarray, alpha: float) -> np.ndarray:
    """Per row of a (rows, N) stack: max over node pairs of |u_i - u_j| / chord_ij^alpha.

    The chord between nodes i and j depends only on k = |i - j| mod N, and
    separations k and N - k have the same chord, so the pair maximum is the
    maximum over k = 1..N/2 of max_i |u_{i+k} - u_i| * chord(k)^-alpha. The
    weight falls with k, so the scan stops once a bound on the diameter of
    each row times the next weight cannot beat that row's best ratio.
    """
    if not values.imag.any():
        values = values.real
    n = values.shape[1]
    # chord(k)^-alpha for k = 1..N/2, chord(k) = 2 sin(pi k / N)
    weights = (2.0 * np.sin(np.pi * np.arange(1, n // 2 + 1) / n)) ** -alpha
    # a true upper bound on max |u_i - u_j|, widened to cover its own rounding
    spread = np.hypot(np.ptp(values.real, axis=1), np.ptp(values.imag, axis=1)) * (1.0 + 1e-12)
    # each row followed by its first half: extended[:, k + i] = u_{(i + k) mod N}
    extended = np.concatenate([values, values[:, : n // 2]], axis=1)
    best = np.zeros(len(values))
    for k, weight in enumerate(weights, start=1):
        if np.all(spread * weight <= best):
            break
        best = np.maximum(best, np.max(np.abs(extended[:, k : k + n] - values), axis=1) * weight)
    return best


# Holder exponent of holder_norms
_CERTIFY_ALPHA = 0.5


def holder_norms(grid: BoundaryGrid, parts, derivative: bool = False):
    """Holder norm: max over the boundary parts of sup|u| + C^alpha(u), alpha = 1/2.

    With derivative=True the seminorm is that of du/dtheta instead of u. The
    C^alpha seminorm is the exact maximum of |u_i - u_j| / d_ij^alpha over all
    node pairs, with d_ij = 2 sin(pi |i - j| / N) the chord between
    e^{i theta_i} and e^{i theta_j}. Each part is one trace's samples or a
    stack of them along the last axis; the norm is then one value per row,
    from one seminorm scan per part, and a float for single traces. Parts
    are checked as a BoundaryTrace checks its values.
    """
    best = None
    for part in parts:
        part = np.asarray(part)
        if part.shape[-1:] != (grid.n,):
            raise ValueError("trace length does not match its grid")
        if not np.all(np.isfinite(part)):
            raise ValueError("trace values must be finite")
        stack = part.reshape(-1, grid.n)
        varied = _derivative_samples(grid, stack) if derivative else stack
        sup = np.max(np.abs(stack), axis=1)
        value = (sup + _pair_seminorm(varied, _CERTIFY_ALPHA)).reshape(part.shape[:-1])
        best = value if best is None else np.maximum(best, value)
    return best if np.ndim(best) else float(best)


# --------------------------------------------------------------------------
# certificate probes
# --------------------------------------------------------------------------


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
