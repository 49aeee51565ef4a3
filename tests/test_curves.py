"""Curve families: partials, ray radii, eta splitting, divisor transforms."""

import numpy as np
import numpy.testing as npt
import pytest

from rhsolve import boundary
from rhsolve.boundary import BoundaryGrid, BoundaryTrace
from rhsolve.curves import (
    builtin_circle_family,
    builtin_ellipse_family,
    divisor_transform,
    eta_decompose,
    family_from_spec,
)
from rhsolve.errors import (
    DegenerateAxis,
    EtaWindingNonzero,
    MultiplierVanishes,
    ZeroNotEnclosed,
    ZeroOnTrace,
)
from rhsolve.trig import TrigPolynomial


def finite_diff_wirtinger(family, theta, w, h=1e-7):
    dx = (family.rho(theta, w + h) - family.rho(theta, w - h)) / (2 * h)
    dy = (family.rho(theta, w + 1j * h) - family.rho(theta, w - 1j * h)) / (2 * h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


THETAS = np.array([0.0, 0.7, 2.1, 4.4])
POINTS = np.array([0.8 + 0.1j, -0.5 + 0.9j, 1.2 - 0.3j, -1.1 - 0.6j])


@pytest.mark.parametrize(
    "family",
    [
        builtin_circle_family([1.5, 0.2, -0.1]),
        builtin_circle_family([1.5, 0.0, 0.3], center=[0.2, 0.1, 0.0]),
        builtin_ellipse_family([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], phi=[0.3, 0.2, 0.0]),
    ],
    ids=["circle", "offset-circle", "ellipse"],
)
def test_partials_match_finite_differences(family):
    _, dbw = finite_diff_wirtinger(family, THETAS, POINTS)
    npt.assert_allclose(family.dbar_w(THETAS, POINTS), dbw, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize(
    "family",
    [
        builtin_circle_family([1.5, 0.2, -0.1], center=[0.3, 0.05, 0.0]),
        builtin_ellipse_family([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], phi=[0.3, 0.2, 0.0]),
    ],
    ids=["circle", "ellipse"],
)
def test_ray_radius_lands_on_curve(family):
    theta = np.linspace(0, 2 * np.pi, 17)
    psi = np.linspace(0, 2 * np.pi, 17) + 0.05
    r = family.ray_radius(theta, psi)
    assert np.all(r > 0)
    npt.assert_allclose(family.rho(theta, r * np.exp(1j * psi)), 0.0, atol=1e-12)


def test_ellipse_frozen_values():
    fam = builtin_ellipse_family(2.0, 1.0)
    # dbar rho at theta=0, w=2 (on the curve, major axis): x/p^2 = 2/4
    npt.assert_allclose(fam.dbar_w(0.0, 2.0 + 0.0j), 0.5, atol=1e-14)


def test_circle_guard_origin_enclosed():
    with pytest.raises(ZeroNotEnclosed):
        builtin_circle_family(1.0, center=1.2)
    with pytest.raises(ZeroNotEnclosed):
        builtin_circle_family([1.0, 0.0, 0.0], center=[0.0, 1.1, 0.0])


def test_ellipse_guard_positive_axes():
    with pytest.raises(DegenerateAxis):
        builtin_ellipse_family(2.0, [0.5, 0.6, 0.0])
    with pytest.raises(DegenerateAxis):
        builtin_ellipse_family(-1.0, 1.0)


def test_radial_profile_detection():
    assert builtin_circle_family([1.2, 0.3, 0.0]).radial_profile is not None
    assert builtin_circle_family(1.0, center=0.2).radial_profile is None
    assert builtin_ellipse_family(1.5, 1.5).radial_profile is not None
    assert builtin_ellipse_family(2.0, 1.0).radial_profile is None


# ------------------------------------------------------------------ eta


def unit_trace(n=128):
    grid = BoundaryGrid(n)
    return BoundaryTrace(grid, np.exp(1j * grid.theta))


def test_eta_on_unit_circle_is_one():
    fam = builtin_circle_family(1.0)
    dec = eta_decompose(fam, unit_trace())
    npt.assert_allclose(dec.eta.values, 1.0, atol=1e-14)
    npt.assert_allclose(dec.a, 0.0, atol=1e-14)
    npt.assert_allclose(dec.b, 0.0, atol=1e-14)
    npt.assert_allclose(dec.b_tilde, 0.0, atol=1e-14)
    assert dec.winding == 0


def test_eta_exponential_reproduction():
    fam = builtin_ellipse_family(2.0, 1.0, phi=[0.0, 0.3, 0.1])
    trace = unit_trace(256)
    dec = eta_decompose(fam, trace)
    assert dec.winding == 0
    npt.assert_allclose(np.exp(dec.a + 1j * dec.b), dec.eta.values, atol=1e-10)
    assert -np.pi < dec.b[0] <= np.pi
    # b_tilde is the circle conjugate: mean-free
    assert abs(np.mean(dec.b_tilde)) < 1e-12


def test_eta_zero_detected():
    fam = builtin_circle_family(1.0)
    grid = BoundaryGrid(64)
    # trace passing through the origin makes eta vanish
    vals = np.exp(1j * grid.theta) - 1.0
    with pytest.raises(ZeroOnTrace):
        eta_decompose(fam, BoundaryTrace(grid, vals))


def test_eta_winding_guard():
    # offset circles: eta = w conj(w - c); a small loop around c but not
    # around 0 gives eta winding -1
    fam = builtin_circle_family(1.0, center=0.3)
    grid = BoundaryGrid(64)
    vals = 0.35 + 0.1 * np.exp(1j * grid.theta)
    with pytest.raises(EtaWindingNonzero):
        eta_decompose(fam, BoundaryTrace(grid, vals))


# ------------------------------------------------------ divisor transform


def test_divisor_transform_rotation_invariance():
    base = builtin_circle_family(1.0)
    g = lambda th: np.exp(2j * th)
    gp = lambda th: 2j * np.exp(2j * th)
    fam = divisor_transform(base, g, gp)
    theta = np.array([0.1, 1.0, 3.0])
    w = np.array([0.5 + 0.2j, -0.8j, 1.1])
    # centered circles are rotation invariant
    npt.assert_allclose(fam.rho(theta, w), base.rho(theta, w), atol=1e-14)
    assert fam.radial_profile is not None
    npt.assert_allclose(fam.radial_profile(theta), 1.0)


def test_divisor_transform_partials_and_roundtrip():
    base = builtin_ellipse_family([2.0, 0.2, 0.0], 1.0, phi=[0.1, 0.0, 0.2])
    g = lambda th: np.exp(1j * th) * (1.0 + 0.3 * np.cos(th))
    gp = lambda th: 1j * np.exp(1j * th) * (1.0 + 0.3 * np.cos(th)) - 0.3 * np.exp(
        1j * th
    ) * np.sin(th)
    fam = divisor_transform(base, g, gp)
    _, dbw = finite_diff_wirtinger(fam, THETAS, 0.4 * POINTS)
    npt.assert_allclose(fam.dbar_w(THETAS, 0.4 * POINTS), dbw, rtol=1e-5, atol=1e-7)
    # ray radius lands on the transformed curve
    r = fam.ray_radius(THETAS, 0.3)
    npt.assert_allclose(fam.rho(THETAS, r * np.exp(0.3j)), 0.0, atol=1e-12)
    # dividing back by g restores the family
    inv = divisor_transform(fam, lambda th: 1.0 / g(th), lambda th: -gp(th) / g(th) ** 2)
    npt.assert_allclose(inv.rho(THETAS, POINTS), base.rho(THETAS, POINTS), atol=1e-12)


def test_multiplier_vanishes():
    base = builtin_circle_family(1.0)
    with pytest.raises(MultiplierVanishes):
        divisor_transform(base, lambda th: np.cos(th) + 0j, lambda th: -np.sin(th) + 0j)


# ----------------------------------------------------------- JSON interchange


def test_spec_roundtrip():
    fam = builtin_ellipse_family([2.0, 0.1, 0.0], 1.0, phi=0.25)
    spec = {"type": "ellipse", "fourier": {"p": [2.0, 0.1, 0.0], "q": [1.0], "phi": [0.25]}}
    fam2 = family_from_spec(spec)
    npt.assert_allclose(fam2.rho(THETAS, POINTS), fam.rho(THETAS, POINTS), atol=1e-14)
    circ = family_from_spec({"type": "circle", "fourier": {"R": [1.5, 0.2, 0.0]}})
    npt.assert_allclose(circ.ray_radius(0.0, 0.0), 1.7, atol=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        family_from_spec({"type": "square", "fourier": {}})
    with pytest.raises(ValueError):
        family_from_spec({"type": "circle", "fourier": {"p": [1.0]}})
    with pytest.raises(ValueError):
        family_from_spec({"type": "circle", "fourier": {"R": "big"}})
    with pytest.raises(ValueError):
        family_from_spec({"type": "circle"})


def test_eta_decompose_unwraps_eta_once(monkeypatch):
    calls = []
    original = boundary._interval_increments
    monkeypatch.setattr(boundary, "_interval_increments", lambda trace: calls.append(1) or original(trace))
    fam = builtin_ellipse_family([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], phi=[0.3, 0.2, 0.0])
    grid = BoundaryGrid(128)
    dec = eta_decompose(fam, BoundaryTrace(grid, 1.5 * np.exp(1j * grid.theta)))
    assert len(calls) == 1
    assert dec.winding == 0
    npt.assert_allclose(np.exp(dec.a + 1j * dec.b), dec.eta.values, rtol=1e-12)
