"""Smooth radial cutoffs and the reference Cauchy area transform on bands.

A cutoff blend of holomorphic pieces has its dbar defect in the band; the
area transform

    T(phi)(z) = -(1/pi) integral over the band of phi(zeta)/(zeta - z) dA

satisfies dbar T(phi) = phi. No solver stage uses it: the annulus Laurent
projection already cancels it exactly, which the tests check against this
reference operator. Charges are stored by angular Fourier mode on a
Gauss-Legendre radial grid, which turns the kernel into geometric series:
for |z| outside the band radii only modes m <= 0 reach z, inside only
m >= 1, and points inside the band split the radial integral at s = |z|
with barycentric interpolation onto fresh sub-quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _TWO_PI, BoundaryGrid

_GL_POINTS = 64  # enough for machine-precision integrals of the flat-ended cutoffs


def _psi(x):
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smoothstep(x):
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    a = _psi(x)
    b = _psi(1.0 - x)
    return a / (a + b)


def smoothstep_derivative(x):
    """Derivative of smoothstep; its maximum is 2 at x = 1/2."""
    x = np.asarray(x, dtype=float)
    a = _psi(x)
    b = _psi(1.0 - x)
    da = np.zeros_like(x)
    db = np.zeros_like(x)
    pos = x > 0
    da[pos] = a[pos] / x[pos] ** 2
    neg = (1.0 - x) > 0
    db[neg] = b[neg] / (1.0 - x[neg]) ** 2
    return (da * b + a * db) / (a + b) ** 2


@dataclass(frozen=True)
class RadialCutoff:
    """chi(|z|) transitioning smoothly across the band [lo, hi].

    rising: 0 below lo, 1 above hi; falling: 1 below lo, 0 above hi.
    """

    lo: float
    hi: float
    rising: bool = True

    def __post_init__(self):
        if not 0.0 < self.lo < self.hi:
            raise ValueError("cutoff band must satisfy 0 < lo < hi")

    def value(self, r):
        u = (np.asarray(r, dtype=float) - self.lo) / (self.hi - self.lo)
        s = smoothstep(u)
        return s if self.rising else 1.0 - s

    def derivative(self, r):
        u = (np.asarray(r, dtype=float) - self.lo) / (self.hi - self.lo)
        d = smoothstep_derivative(u) / (self.hi - self.lo)
        return d if self.rising else -d

    def dbar(self, z):
        """dbar of chi(|z|): chi'(r) z / (2r)."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        return self.derivative(r) * z / (2.0 * r)


def radial_quadrature(lo: float, hi: float, points: int = _GL_POINTS):
    """Gauss-Legendre nodes and weights for plain ds integrals on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(points)
    s = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    return s, 0.5 * (hi - lo) * w


def _barycentric_weights(nodes):
    # scale to [-1, 1] so the 31-fold products stay in range
    t = (2.0 * nodes - nodes[0] - nodes[-1]) / (nodes[-1] - nodes[0])
    w = np.ones(len(t))
    for k in range(len(t)):
        w[k] = 1.0 / np.prod(np.delete(t[k] - t, k))
    return t, w


def _barycentric_rows(nodes, bary_t, bary_w, values, x):
    """Interpolate the rows of values (indexed by nodes) at scalar x."""
    tx = (2.0 * x - nodes[0] - nodes[-1]) / (nodes[-1] - nodes[0])
    diff = tx - bary_t
    hit = np.argmin(np.abs(diff))
    if abs(diff[hit]) < 1e-14:
        return values[hit]
    c = bary_w / diff
    return (c @ values) / np.sum(c)


class AreaCharge:
    """A density on the band lo <= |z| <= hi, resolved by angular mode.

    samples[i, j] = phi(s_i exp(i theta_j)) on the Gauss-Legendre radii s_i
    and the grid angles theta_j. evaluate() applies the area transform T
    with dbar T(phi) = phi; direct_evaluate() is the same integral done as a
    raw tensor-product sum, kept separate as a cross-check. Acceptance
    criterion 10 checks that it inverts dbar.
    """

    def __init__(self, lo: float, hi: float, grid: BoundaryGrid, samples):
        if not 0.0 < lo < hi:
            raise ValueError("band must satisfy 0 < lo < hi")
        self.lo, self.hi, self.grid = float(lo), float(hi), grid
        self.s, self.w = radial_quadrature(lo, hi)
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (len(self.s), grid.n):
            raise ValueError(f"samples must have shape {(len(self.s), grid.n)}")
        self.samples = samples
        self.modes = grid.modes()
        # coeffs[i, m] = m-th angular Fourier coefficient at radius s_i
        self.coeffs = np.fft.fft(samples, axis=1) / grid.n
        self._bary_t, self._bary_w = _barycentric_weights(self.s)
        neg = self.modes <= 0
        pos = self.modes >= 1
        self._m_neg, self._m_pos = self.modes[neg], self.modes[pos]
        # radial reductions G_m = sum_i w_i coeffs[i, m] s_i^(1 - m); outside
        # points see u = 2 sum_{m<=0} G_m z^(m-1), inside points
        # u = -2 sum_{m>=1} G_m z^(m-1)
        self._g_neg = np.einsum(
            "i,im->m", self.w, self.coeffs[:, neg] * self.s[:, None] ** (1.0 - self._m_neg)
        )
        self._g_pos = np.einsum(
            "i,im->m", self.w, self.coeffs[:, pos] * self.s[:, None] ** (1.0 - self._m_pos)
        )

    @classmethod
    def from_function(cls, lo, hi, grid, fn):
        s, _ = radial_quadrature(lo, hi)
        z = s[:, None] * np.exp(1j * grid.theta)[None, :]
        return cls(lo, hi, grid, fn(z))

    def area(self) -> float:
        """Total weight of the quadrature, exactly pi (hi^2 - lo^2)."""
        return float(_TWO_PI * np.sum(self.w * self.s))

    def _evaluate_outside(self, z):
        p = z[:, None] ** (self._m_neg[None, :] - 1.0)
        return 2.0 * (p @ self._g_neg)

    def _evaluate_inside(self, z):
        p = z[:, None] ** (self._m_pos[None, :] - 1.0)
        return -2.0 * (p @ self._g_pos)

    def _evaluate_split(self, z):
        r = abs(z)
        out = 0.0 + 0.0j
        # [lo, r]: these radii lie inside |z|, so modes m <= 0 reach z
        if r - self.lo > 1e-15:
            s_in, w_in = radial_quadrature(self.lo, r)
            c = np.array(
                [
                    _barycentric_rows(self.s, self._bary_t, self._bary_w, self.coeffs, si)
                    for si in s_in
                ]
            )
            ratio = (s_in / z)[:, None] ** (1.0 - self._m_neg[None, :])
            out += 2.0 * np.sum(w_in[:, None] * c[:, self.modes <= 0] * ratio)
        # [r, hi]: these radii lie outside |z|, so modes m >= 1 reach z
        if self.hi - r > 1e-15:
            s_out, w_out = radial_quadrature(r, self.hi)
            c = np.array(
                [
                    _barycentric_rows(self.s, self._bary_t, self._bary_w, self.coeffs, si)
                    for si in s_out
                ]
            )
            ratio = (z / s_out)[:, None] ** (self._m_pos[None, :] - 1.0)
            out -= 2.0 * np.sum(w_out[:, None] * c[:, self.modes >= 1] * ratio)
        return out

    def evaluate(self, points):
        """Area transform T(phi) at the given points (any shape)."""
        points = np.asarray(points, dtype=complex)
        flat = points.ravel()
        r = np.abs(flat)
        out = np.empty(flat.shape, dtype=complex)
        outer = r >= self.hi
        inner = r <= self.lo
        mid = ~(outer | inner)
        if np.any(outer):
            out[outer] = self._evaluate_outside(flat[outer])
        if np.any(inner):
            out[inner] = self._evaluate_inside(flat[inner])
        for idx in np.nonzero(mid)[0]:
            out[idx] = self._evaluate_split(flat[idx])
        return out.reshape(points.shape)

    def direct_evaluate(self, points):
        """Raw tensor-product quadrature of -(1/pi) phi/(zeta - z) dA.

        Independent of the mode decomposition; used to cross-check evaluate()
        away from the band.
        """
        points = np.asarray(points, dtype=complex)
        flat = points.ravel()
        zeta = self.s[:, None] * np.exp(1j * self.grid.theta)[None, :]
        weight = (self.w * self.s)[:, None] * (_TWO_PI / self.grid.n)
        out = np.empty(flat.shape, dtype=complex)
        for k, z in enumerate(flat):
            out[k] = -np.sum(self.samples * weight / (zeta - z)) / np.pi
        return out.reshape(points.shape)
