"""Real trigonometric polynomials in the flat coefficient layout.

The interchange layout is a single list [c0, a1, b1, a2, b2, ...] meaning

    p(theta) = c0 + sum_k a_k cos(k theta) + b_k sin(k theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import _nodes


@dataclass(frozen=True)
class TrigPolynomial:
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("need at least the constant coefficient")
        if len(self.coefficients) % 2 == 0:
            raise ValueError("layout is [c0, a1, b1, ...]; length must be odd")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError(f"trig coefficients must be finite, got {list(self.coefficients)}")

    @classmethod
    def from_list(cls, coefficients) -> "TrigPolynomial":
        coefficients = [float(c) for c in coefficients]
        if len(coefficients) % 2 == 0:
            coefficients.append(0.0)
        return cls(tuple(coefficients))

    @classmethod
    def constant(cls, value: float) -> "TrigPolynomial":
        return cls((float(value),))

    @property
    def degree(self) -> int:
        return (len(self.coefficients) - 1) // 2

    def __call__(self, theta):
        """p at the angles theta; on a grid's own nodes the rows cos k theta, sin k theta come from a cache."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1 and not theta.flags.writeable and theta is _nodes(theta.size):
            harmonic = lambda wave, k: _node_harmonic(wave, k, theta.size)
        else:
            harmonic = lambda wave, k: wave(k * theta)
        out = np.full(theta.shape, self.coefficients[0], dtype=float)
        for k in range(1, self.degree + 1):
            a = self.coefficients[2 * k - 1]
            b = self.coefficients[2 * k]
            if a:
                out += a * harmonic(np.cos, k)
            if b:
                out += b * harmonic(np.sin, k)
        return out

    def derivative(self) -> "TrigPolynomial":
        # d/dtheta: a_k cos -> -a_k k sin, b_k sin -> b_k k cos
        coeffs = [0.0]
        for k in range(1, self.degree + 1):
            a = self.coefficients[2 * k - 1]
            b = self.coefficients[2 * k]
            coeffs.extend([k * b, -k * a])
        return TrigPolynomial(tuple(coeffs))


# (cos or sin, k, N) -> the row wave(k theta) at the N grid nodes; 128 rows
# hold at most 8 MB (at N = 8192, twice the largest grid, which the disc
# certificate's residual reaches)
@lru_cache(maxsize=128)
def _node_harmonic(wave, k: int, n: int) -> np.ndarray:
    row = wave(k * _nodes(n))
    row.flags.writeable = False
    return row


def as_trig_polynomial(value) -> TrigPolynomial:
    """Coerce a float, coefficient list, or TrigPolynomial to a TrigPolynomial."""
    if isinstance(value, TrigPolynomial):
        return value
    if np.isscalar(value):
        return TrigPolynomial.constant(float(value))
    return TrigPolynomial.from_list(value)
