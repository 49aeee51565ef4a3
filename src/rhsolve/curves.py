"""Families of Jordan curves prescribing boundary moduli.

A family assigns to each boundary angle theta a closed curve
gamma_theta = {w : rho(theta, w) = 0}, star-shaped about the origin. A
family is three callables, which is all a solve reads: the real defining
function rho, its partial d rho / d w-bar (rho is real, so d rho / d w is
its conjugate), and the ray radius r(theta, psi) at which the ray
arg w = psi meets gamma_theta.

eta_decompose supplies the multiplicative splitting of the linearized
boundary operator along a trace (the one-row case of _eta_weights). Its
phase core, _eta_phases, also gives the annulus inverse the argument of eta
on both boundaries at once; near a solution a star-shaped family puts eta
in the right half-plane, where its argument needs no unwrap.
divisor_transform rescales a family by a nonvanishing multiplier. Its case
g = scale * exp(i sigma theta), monomial_transform, is how prescribed
windings are divided out.

on_grid binds a builtin or transformed family to a solve's grid nodes, so
its theta-profiles (radii, axes, tilts, multipliers) are evaluated once per
solve instead of once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .boundary import (
    BoundaryGrid,
    BoundaryTrace,
    _ROUNDOFF_MARGIN,
    _ZERO_FLOOR,
    _abs_modes,
    _phase_rows,
    _unwrapped_phases,
    conjugate_samples,
)
from .errors import (
    DegenerateAxis,
    EtaWindingNonzero,
    MultiplierVanishes,
    ZeroNotEnclosed,
    ZeroOnBoundary,
    ZeroOnTrace,
)
from .trig import TrigPolynomial, as_trig_polynomial

# the nodes on which a family's profiles are checked at construction
_FINE = BoundaryGrid(4096).theta


@dataclass(frozen=True)
class CurveFamily:
    """A curve family: rho, d rho / d w-bar and the ray radius.

    rho(theta, w) is real and vanishes exactly on gamma_theta; dbar_w is
    d rho / d w-bar, whose conjugate is d rho / d w because rho is real; it
    gives the multiplier eta = w conj(dbar_w) of the linearized operator.
    ray_radius(theta, psi) is where the ray arg w = psi meets gamma_theta,
    which seeds the initial guess. All callables accept broadcastable arrays
    (theta real, w complex). radial_profile is set when every curve is a
    circle centered at the origin; it maps theta to the radius.

    bind, set by the builtin families and the transforms, maps grid nodes
    to the same family with its theta-profiles evaluated there; solvers
    reach it through on_grid.
    """

    rho: Callable
    dbar_w: Callable
    ray_radius: Callable
    radial_profile: Optional[Callable] = None
    bind: Optional[Callable] = field(default=None, repr=False, compare=False)


def on_grid(family: CurveFamily, theta) -> CurveFamily:
    """The family with its theta-profiles evaluated once at the nodes theta.

    The bound callables reuse those values when they are called with this
    very array, and evaluate afresh at any other angles, so the bound family
    equals the family everywhere. theta must be read-only (a BoundaryGrid's
    nodes are), or the family comes back unchanged, as does a family built
    from plain callables. Solvers bind once per solve and drop the bound
    family with it, so no evaluated profile outlives a solve.
    """
    if family.bind is None or not isinstance(theta, np.ndarray) or theta.flags.writeable:
        return family
    return family.bind(theta)


def _evaluated_at(profile: Callable, theta: np.ndarray) -> Callable:
    """profile, with its value at the nodes theta computed once."""
    values = profile(theta)
    return lambda angles: values if angles is theta else profile(angles)


def _is_zero_poly(p: TrigPolynomial) -> bool:
    return all(x == 0.0 for x in p.coefficients)


def builtin_circle_family(radius, center=0.0) -> CurveFamily:
    """Circles |w - c(theta)| = R(theta) with trig-polynomial R and real c.

    Raises ZeroNotEnclosed unless the origin lies strictly inside every
    curve, i.e. R(theta) > |c(theta)| for all theta.
    """
    R = as_trig_polynomial(radius)
    c = as_trig_polynomial(center)
    if np.min(R(_FINE) - np.abs(c(_FINE))) <= 0.0:
        raise ZeroNotEnclosed("some curve in the family does not enclose the origin")
    return _circle_family(R, c, _is_zero_poly(c))


def _circle_family(R: Callable, c: Callable, centered: bool) -> CurveFamily:
    def rho(theta, w):
        d = w - c(theta)
        return (d * np.conj(d)).real - R(theta) ** 2

    def dbar_w(theta, w):
        return w - c(theta)

    def ray_radius(theta, psi):
        cv, rv = c(theta), R(theta)
        a = cv * np.cos(psi)
        return a + np.sqrt(a * a + rv * rv - cv * cv)

    def bind(theta):
        return _circle_family(_evaluated_at(R, theta), _evaluated_at(c, theta), centered)

    return CurveFamily(rho, dbar_w, ray_radius, radial_profile=R if centered else None, bind=bind)


def builtin_ellipse_family(p, q, phi=0.0) -> CurveFamily:
    """Origin-centered ellipses with semi-axes p(theta), q(theta), tilt phi(theta).

    rho(theta, w) = (x/p)^2 + (y/q)^2 - 1 with x + iy = exp(-i phi) w.
    Raises DegenerateAxis when an axis profile is not strictly positive.
    """
    P = as_trig_polynomial(p)
    Q = as_trig_polynomial(q)
    Phi = as_trig_polynomial(phi)
    if min(np.min(P(_FINE)), np.min(Q(_FINE))) <= 0.0:
        raise DegenerateAxis("ellipse axis profile must be strictly positive")
    return _ellipse_family(P, Q, Phi, P.coefficients == Q.coefficients, _turns(Phi))


def _turns(Phi: Callable) -> tuple:
    """The profiles exp(-i Phi) and exp(i Phi)."""
    return (lambda theta: np.exp(-1j * Phi(theta)), lambda theta: np.exp(1j * Phi(theta)))


def _ellipse_family(P: Callable, Q: Callable, Phi: Callable, circular: bool, turns: tuple) -> CurveFamily:
    turn, unturn = turns

    def _hat(theta, w):
        u = turn(theta) * w
        return u.real, u.imag

    def rho(theta, w):
        x, y = _hat(theta, w)
        return (x / P(theta)) ** 2 + (y / Q(theta)) ** 2 - 1.0

    def dbar_w(theta, w):
        x, y = _hat(theta, w)
        return unturn(theta) * (x / P(theta) ** 2 + 1j * y / Q(theta) ** 2)

    def ray_radius(theta, psi):
        ang = psi - Phi(theta)
        return 1.0 / np.sqrt((np.cos(ang) / P(theta)) ** 2 + (np.sin(ang) / Q(theta)) ** 2)

    def bind(theta):
        phi = _evaluated_at(Phi, theta)
        turns = tuple(_evaluated_at(t, theta) for t in _turns(phi))
        return _ellipse_family(_evaluated_at(P, theta), _evaluated_at(Q, theta), phi, circular, turns)

    return CurveFamily(rho, dbar_w, ray_radius, radial_profile=P if circular else None, bind=bind)


def divisor_transform(family: CurveFamily, multiplier, _derivative=None) -> CurveFamily:
    """Family of the curves rho(theta, g(theta) w) = 0 for nonvanishing g.

    If f solves the transformed problem then g(theta) f solves the original
    one on the boundary; dividing out a prescribed winding uses
    g(theta) = exp(i n theta). A family carries no theta-partial, so g' is
    never needed: a third argument is accepted, for the benchmark's scaled
    families that pass one, and not read.
    """
    gv = np.asarray(multiplier(_FINE), dtype=complex)
    if np.min(np.abs(gv)) <= 1e-14 * max(1.0, np.max(np.abs(gv))):
        raise MultiplierVanishes("divisor multiplier vanishes on the circle")
    return _divided_family(family, multiplier)


def _divided_family(family: CurveFamily, g: Callable) -> CurveFamily:
    def rho(theta, w):
        return family.rho(theta, g(theta) * w)

    def dbar_w(theta, w):
        gt = g(theta)
        return family.dbar_w(theta, gt * w) * np.conj(gt)

    def ray_radius(theta, psi):
        gt = g(theta)
        return family.ray_radius(theta, psi + np.angle(gt)) / np.abs(gt)

    radial = None
    if family.radial_profile is not None:
        parent = family.radial_profile
        radial = lambda theta: parent(theta) / np.abs(g(theta))

    def bind(theta):
        return _divided_family(on_grid(family, theta), _evaluated_at(g, theta))

    return CurveFamily(rho, dbar_w, ray_radius, radial_profile=radial, bind=bind)


def monomial_transform(family: CurveFamily, sigma: int, scale: float = 1.0) -> CurveFamily:
    """Divide out the boundary trace scale * exp(i sigma theta) of scale * z^sigma.

    This is divisor_transform with that multiplier, whose modulus |scale| alone
    is tested; the identity multiplier returns the family itself.
    """
    if sigma == 0 and scale == 1.0:
        return family
    if abs(scale) <= 1e-14:
        raise MultiplierVanishes("divisor multiplier vanishes on the circle")
    return _divided_family(family, lambda theta: scale * np.exp(1j * sigma * np.asarray(theta)))


# --------------------------------------------------------------------------
# eta decomposition of the linearized operator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaDecomposition:
    """Multiplicative data of eta = w conj(dbar rho) along a trace.

    With eta = exp(a + i b), b the continuous (winding-zero) argument and
    b_tilde its circle conjugate, the explicit right inverse of
    k -> 2 Re(eta k) multiplies by its two factors phi_weight =
    exp(-a - b_tilde) and k_weight = exp(b_tilde - i b), formed once here.
    """

    grid: BoundaryGrid
    eta: BoundaryTrace
    phi_weight: np.ndarray
    k_weight: np.ndarray


def eta_decompose(family: CurveFamily, trace: BoundaryTrace) -> EtaDecomposition:
    """Decompose the linearization weight along a boundary trace.

    Raises ZeroOnTrace if eta vanishes (the trace crosses a curve's critical
    ray) and EtaWindingNonzero when the winding of eta is not zero, in which
    case the explicit inverse does not exist and a divisor transform is
    needed first.
    """
    w = trace.values
    eta = BoundaryTrace(trace.grid, w * np.conj(family.dbar_w(trace.grid.theta, w)))
    (phi_weight,), (k_weight,) = _eta_weights(trace.grid, eta.values[None])
    return EtaDecomposition(trace.grid, eta, phi_weight, k_weight)


def _eta_weights(grid: BoundaryGrid, eta: np.ndarray) -> tuple:
    """phi_weight = exp(-a - b~) and k_weight = exp(b~ - i b) for each row of a (rows, N) stack of eta samples.

    b is the phase core's continuous argument (_eta_phases), with its errors.
    """
    b = _eta_phases(eta)
    b_tilde = conjugate_samples(grid, b)
    return np.exp(-np.log(np.abs(eta)) - b_tilde), np.exp(b_tilde - 1j * b)


def _eta_phases(eta: np.ndarray) -> np.ndarray:
    """The continuous, winding-zero argument b of each row of a (rows, N) stack of eta samples.

    Rows that are not finite raise ValueError, as a trace's values do. A
    stack whose every row keeps Re eta above the zero floor between the
    nodes (min Re eta - L pi / N, with L = sum |k| |c_k| of Re eta as in the
    certified unwrap) lies in the right half-plane: the winding is zero and
    b is the principal argument, bitwise the unwrap's. Any other stack is
    unwrapped, and its first row whose unwrap fails raises what
    eta_decompose raises for it: ZeroOnTrace, UnresolvedPhase or
    EtaWindingNonzero.
    """
    if not np.all(np.isfinite(eta)):
        raise ValueError("trace values must be finite")
    scales, n = np.abs(eta).max(axis=1), eta.shape[-1]
    lipschitz = (np.abs(np.fft.fft(eta.real)) @ _abs_modes(n)) / n
    if np.all(eta.real.min(axis=1) - lipschitz * np.pi / n - _ROUNDOFF_MARGIN * scales > _ZERO_FLOOR * scales):
        return np.angle(eta)
    windings, failures, increments = _phase_rows(eta)
    for failure, wind in zip(failures, windings):
        if isinstance(failure, ZeroOnBoundary):
            raise ZeroOnTrace(str(failure)) from failure
        if failure is not None:
            raise failure
        if wind != 0:
            raise EtaWindingNonzero(f"eta has winding {wind}, expected 0")
    return _unwrapped_phases(eta, increments)


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------

_SPEC_KEYS = {"circle": {"R", "c"}, "ellipse": {"p", "q", "phi"}}
_SPEC_REQUIRED = {"circle": {"R"}, "ellipse": {"p", "q"}}


def family_from_spec(data: dict) -> CurveFamily:
    """Build a builtin family from its JSON form.

    {"type": "circle", "fourier": {"R": [c0, a1, b1, ...], "c": [...]}} or
    {"type": "ellipse", "fourier": {"p": [...], "q": [...], "phi": [...]}}.
    """
    if not isinstance(data, dict) or set(data) != {"type", "fourier"}:
        raise ValueError("family spec must have exactly the keys 'type' and 'fourier'")
    kind = data["type"]
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown family type {kind!r}")
    fourier = data["fourier"]
    if not isinstance(fourier, dict):
        raise ValueError("'fourier' must be a mapping of coefficient lists")
    extra = set(fourier) - _SPEC_KEYS[kind]
    missing = _SPEC_REQUIRED[kind] - set(fourier)
    if extra or missing:
        raise ValueError(f"bad fourier keys for {kind}: extra {sorted(extra)}, missing {sorted(missing)}")

    def poly(key, default):
        if key not in fourier:
            return as_trig_polynomial(default)
        coeffs = fourier[key]
        if not isinstance(coeffs, (list, tuple)) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x) for x in coeffs
        ):
            raise ValueError(f"fourier key {key!r} must be a flat list of finite numbers")
        return TrigPolynomial.from_list(coeffs)

    if kind == "circle":
        return builtin_circle_family(poly("R", 1.0), poly("c", 0.0))
    return builtin_ellipse_family(poly("p", 1.0), poly("q", 1.0), poly("phi", 0.0))
