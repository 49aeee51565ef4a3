"""Discrete calculus on equispaced boundary grids.

A boundary function is stored by its samples on the uniform grid
theta_j = 2 pi j / N and identified with its trigonometric interpolant, so
spectral operations (conjugation, differentiation, off-grid evaluation) are
exact for band-limited data. Trig coefficients are indexed -N/2 < k <= N/2.

The discrete conjugation operator multiplies mode k by -i sign(k) and zeroes
the mean, so u + i T(u) is the trace of a holomorphic function with real part
u on the unit circle. The Nyquist mode N/2 is also zeroed: its conjugate
samples to zero on this grid and keeping it would make T(u) complex.

Functions of samples (not of a trace) work along the last axis of a
(rows, N) stack, one boundary function per row, and give each row what it
would give that row alone, bitwise: numpy's FFT of a stack equals the FFTs
of its rows, and every other step is elementwise or a reduction along a
row. The annulus runs its two boundaries as one such stack; a trace is
the one-row case. A trace keeps its spectrum, taken once, beside its
phase increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import UnresolvedPhase, ZeroOnBoundary

_TWO_PI = 2.0 * np.pi

# both certificates are computed from FFTs, so a solve holds a bounded
# number of length-N arrays (at most 20 Krylov vectors and their images in
# a Newton step's GMRES, and the certificate's stack of eight A-norm rows),
# and the grid cap bounds their length: a certified README annulus solve
# at N = 4096 peaks 2.9 MB above its start in traced allocations
# (tracemalloc, in process; 22 MB with the 16-probe stacked GMRES
# certificate it replaced), 0.7 MB in its first Newton step's GMRES and
# 2.1 MB in its certificate bounds. No bench case or README
# example goes above N = 1024. The disc certificate's residual is measured
# on twice the grid, which may exceed this cap. ROADMAP item 2 (nested
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
    aliased, so the spectrum and the phase increments a trace memoizes
    cannot go stale.
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
    def _spectrum(self) -> np.ndarray:
        """The DFT of the values, taken once per trace."""
        return _read_only(np.fft.fft(self.values))

    @cached_property
    def _increments(self) -> np.ndarray:
        """Phase increments, unwrapped once per trace."""
        (increments,), (failure,) = _interval_increments(self.values[None], self._spectrum[None])
        if failure is not None:
            raise failure
        return _read_only(increments)

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
    return np.roll(trace._spectrum / n, n // 2 - 1)


def coefficient_modes(grid: BoundaryGrid) -> np.ndarray:
    """Mode numbers matching the trig_coefficients layout."""
    n = grid.n
    return np.arange(-(n // 2) + 1, n // 2 + 1)


def _derivative_samples(spectrum: np.ndarray) -> np.ndarray:
    """d/dtheta of the interpolant, sampled on the grid, from the DFT of its samples (per row of a stack)."""
    return np.fft.ifft(_derivative_multiplier(spectrum.shape[-1]) * spectrum)


def spectral_derivative(trace: BoundaryTrace) -> BoundaryTrace:
    """d/dtheta of the interpolant, sampled back on the grid."""
    return BoundaryTrace(trace.grid, _derivative_samples(trace._spectrum))


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
    """Upsample by zero-padding the spectrum (Nyquist split symmetrically), per row of a stack."""
    n = values.shape[-1]
    spec = np.fft.fft(values)
    m = n * factor
    padded = np.zeros(spec.shape[:-1] + (m,), dtype=complex)
    padded[..., : n // 2] = spec[..., : n // 2]
    padded[..., m - n // 2 + 1 :] = spec[..., n // 2 + 1 :]
    padded[..., n // 2] = 0.5 * spec[..., n // 2]
    padded[..., m - n // 2] += 0.5 * spec[..., n // 2]
    return np.fft.ifft(padded) * factor


def _shifted(values: np.ndarray) -> np.ndarray:
    """Each row's samples from the next node on: u_{j+1}, with u_N = u_0."""
    return np.concatenate((values[:, 1:], values[:, :1]), axis=1)


def _interval_increments(values: np.ndarray, spectrum: np.ndarray) -> tuple:
    """Continuous-phase increment of the interpolant across each grid interval, per row.

    values is a (rows, N) stack and spectrum its DFT. Returns the increments
    and, per row, the error that row raises, or None: ZeroOnBoundary when the
    (refined) modulus of the row drops below the zero floor, and
    UnresolvedPhase when an increment reaches pi or a refined step is nearly
    antipodal (the grid cannot certify the unwrapping). A failed row's
    increments are zero.

    The spectrum decides first. L = sum |k| |c_k| bounds |u'| on the
    interpolant, so between nodes the modulus stays above
    m = min |u_j| - L pi / N and the phase turns by at most L (2 pi / N) / m
    per interval. When m clears the zero floor and that turn is below
    0.9 pi, every check of the refinement would pass and each increment is
    the principal angle of u_{j+1} / u_j; otherwise the row is refined. L is
    one matrix product over the stack, whose rounding may differ from a
    row's own; it only picks the rows to refine and never enters a value.
    """
    rows, n = values.shape
    modulus = np.abs(values)
    scales, lows = modulus.max(axis=1), modulus.min(axis=1)
    lipschitz = (np.abs(spectrum) @ _abs_modes(n)) / n
    failures, refine = [None] * rows, []
    for row, (scale, low, lip) in enumerate(zip(scales.tolist(), lows.tolist(), lipschitz.tolist())):
        if scale == 0.0 or low <= _ZERO_FLOOR * scale:
            failures[row] = ZeroOnBoundary("trace modulus at or below the zero floor")
            continue
        floor = low - lip * np.pi / n - _ROUNDOFF_MARGIN * scale
        if not (floor > _ZERO_FLOOR * scale and lip * _TWO_PI / n < 0.9 * np.pi * floor):
            refine.append(row)
    if not refine and failures.count(None) == rows:
        return np.angle(_shifted(values) / values), failures
    increments = np.zeros((rows, n))
    fast = [row for row in range(rows) if failures[row] is None and row not in refine]
    increments[fast] = np.angle(_shifted(values[fast]) / values[fast])
    if refine:
        fine = _refined_samples(values[refine], _REFINE)
        # a row whose refined samples vanish fails before its steps are read
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(_shifted(fine) / fine)
        sums = steps.reshape(len(refine), n, _REFINE).sum(axis=2)
        checks = (
            (np.min(np.abs(fine), axis=1) <= _ZERO_FLOOR * scales[refine], ZeroOnBoundary,
             "interpolated trace modulus at or below the zero floor"),
            (np.max(np.abs(steps), axis=1) >= 0.9 * np.pi, UnresolvedPhase,
             "near-antipodal phase step after refinement"),
            (np.max(np.abs(sums), axis=1) >= np.pi, UnresolvedPhase,
             "adjacent-node phase jump reaches pi; grid too coarse"),
        )
        for i, row in enumerate(refine):
            for flags, error, message in checks:
                if flags[i]:
                    failures[row] = error(message)
                    break
            else:
                increments[row] = sums[i]
    return increments, failures


def _windings(increments: np.ndarray, failures: list) -> list:
    """Per row of a stack of phase increments, its winding, or None for a failed row.

    A row whose turns do not round to an integer within 0.1 gets its
    UnresolvedPhase in failures (see winding_number).
    """
    windings = []
    for row, total in enumerate((np.sum(increments, axis=1) / _TWO_PI).tolist()):
        w = round(total) if failures[row] is None else None
        if w is not None and abs(total - w) >= 0.1:
            failures[row] = UnresolvedPhase(f"winding rounding residue {abs(total - w):.3f} >= 0.1")
            w = None
        windings.append(w)
    return windings


def _phase_rows(values: np.ndarray) -> tuple:
    """Windings, errors and phase increments of the rows of a (rows, N) stack of samples.

    The rows are unwrapped together, from one FFT of the stack; a row's
    winding is None where its error is set (see _windings).
    """
    increments, failures = _interval_increments(values, np.fft.fft(values))
    return _windings(increments, failures), failures, increments


def winding_number(trace: BoundaryTrace) -> int:
    """Winding of a nonvanishing trace around 0, by certified phase unwrapping."""
    failures = [None]
    (w,) = _windings(trace._increments[None], failures)
    if failures[0] is not None:
        raise failures[0]
    return w


def winding_numbers(traces) -> tuple:
    """winding_number of each trace; the traces not yet unwrapped are unwrapped as one stack.

    An annulus's outer and inner traces go through one _interval_increments
    call, from their memoized spectra, and each keeps its row, bitwise its
    own unwrap, as its increments. A trace that fails is left to
    winding_number, which raises its error, the outer trace's first.
    """
    # a cached_property keeps its value in the instance dict
    fresh = [t for t in traces if "_increments" not in vars(t)]
    if fresh:
        _same_grid(*fresh)
        stack = np.array([t.values for t in fresh])
        rows, errors = _interval_increments(stack, np.array([t._spectrum for t in fresh]))
        for t, row, error in zip(fresh, rows, errors):
            if error is None:
                vars(t)["_increments"] = _read_only(row)
    return tuple(winding_number(t) for t in traces)


def _unwrapped_phases(values: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Continuous argument along each row of a (rows, N) stack, from its phase increments.

    Each row is anchored in (-pi, pi] at node 0, and each value is
    re-snapped to agree with the principal argument modulo 2 pi, so
    exp(i b_j) reproduces values_j / |values_j| to roundoff.
    """
    b = np.empty(values.shape)
    b[:, 0] = np.angle(values[:, 0])
    b[:, 1:] = b[:, :1] + np.cumsum(increments[:, :-1], axis=1)
    principal = np.angle(values)
    return principal + _TWO_PI * np.round((b - principal) / _TWO_PI)


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
        varied = _derivative_samples(np.fft.fft(stack)) if derivative else stack
        sup = np.max(np.abs(stack), axis=1)
        value = (sup + _pair_seminorm(varied, _CERTIFY_ALPHA)).reshape(part.shape[:-1])
        best = value if best is None else np.maximum(best, value)
    return best if np.ndim(best) else float(best)
