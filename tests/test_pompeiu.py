"""Tests for the area-charge transform.

The transform is checked two independent ways: mode-wise evaluation
against raw tensor quadrature, and the d-bar reproduction identity
verified by central finite differences. The telescoping checks use a
C-infinity cutoff defined in conftest.py.
"""

import numpy as np
import pytest

from rhsolve.boundary import BoundaryGrid
from rhsolve.pompeiu import AreaCharge, radial_quadrature


def _direct_area_transform(lo, hi, grid, fn, points):
    # raw tensor-product quadrature of -(1/pi) phi/(zeta - z) dA on the
    # charge's own nodes, independent of the mode decomposition
    s, w = radial_quadrature(lo, hi)
    zeta = s[:, None] * np.exp(1j * grid.theta)[None, :]
    weight = (w * s)[:, None] * (2.0 * np.pi / grid.n)
    samples = fn(zeta)
    return np.array([-np.sum(samples * weight / (zeta - z)) / np.pi for z in points])


def _fd_dbar(fn, z, h=1e-5):
    dx = (fn(z + h) - fn(z - h)) / (2.0 * h)
    dy = (fn(z + 1j * h) - fn(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


class TestRadialQuadrature:
    def test_polynomial_exactness(self):
        s, w = radial_quadrature(0.3, 0.9)
        for k in range(13):
            exact = (0.9 ** (k + 1) - 0.3 ** (k + 1)) / (k + 1)
            assert np.sum(w * s ** k) == pytest.approx(exact, rel=1e-14)


class TestAreaCharge:
    def test_area_exact(self):
        grid = BoundaryGrid(64)
        charge = AreaCharge.from_function(0.25, 0.65, grid, lambda z: np.ones_like(z))
        # the radial weights times 2 pi s integrate dA over the band exactly
        area = 2.0 * np.pi * np.sum(charge.w * charge.s)
        assert area == pytest.approx(np.pi * (0.65 ** 2 - 0.25 ** 2), rel=1e-13)

    def test_telescoping_negative_powers(self, cutoff_dbar):
        # T(dbar(chi z^p)) reproduces z^p beyond the band and vanishes inside
        # it, for p <= -1 (angular mode p+1 <= 0 rides the outside branch)
        grid = BoundaryGrid(256)
        dbar = cutoff_dbar(0.55, 0.8)
        rng = np.random.default_rng(1)
        z_out = 0.93 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        z_in = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        for p in (-4, -2, -1):
            charge = AreaCharge.from_function(
                0.55, 0.8, grid, lambda z, p=p: dbar(z) * z ** p)
            scale = float(np.abs(z_out ** p).max())
            np.testing.assert_allclose(charge.evaluate(z_out), z_out ** p,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(charge.evaluate(z_in), 0.0, atol=1e-12 * scale)

    def test_telescoping_nonnegative_powers(self, cutoff_dbar):
        # for p >= 0 (mode p+1 >= 1) the transform is -z^p inside the band's
        # hole and 0 outside
        grid = BoundaryGrid(256)
        dbar = cutoff_dbar(0.55, 0.8)
        rng = np.random.default_rng(2)
        z_out = 0.93 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        z_in = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        for p in (0, 1, 3):
            charge = AreaCharge.from_function(
                0.55, 0.8, grid, lambda z, p=p: dbar(z) * z ** p)
            np.testing.assert_allclose(charge.evaluate(z_in), -(z_in ** p),
                                       atol=1e-12)
            np.testing.assert_allclose(charge.evaluate(z_out), 0.0, atol=1e-12)

    def test_telescoping_falling_cutoff(self, cutoff_dbar):
        # falling cutoff keeps z^p on the hole side: T(dbar(chi z^p)) = +z^p
        # there, matching the sign used when gluing holomorphic pieces
        grid = BoundaryGrid(256)
        dbar = cutoff_dbar(0.55, 0.8, rising=False)
        charge = AreaCharge.from_function(
            0.55, 0.8, grid, lambda z: dbar(z) * z ** 2)
        z_in = 0.4 * np.exp(1j * np.array([0.3, 1.7, 4.4]))
        z_out = 0.93 * np.exp(1j * np.array([0.9, 2.8, 5.1]))
        np.testing.assert_allclose(charge.evaluate(z_in), z_in ** 2, atol=1e-12)
        np.testing.assert_allclose(charge.evaluate(z_out), 0.0, atol=1e-12)

    def test_mode_route_matches_direct_quadrature(self):
        grid = BoundaryGrid(128)
        fn = lambda z: np.exp(z) * np.conj(z)
        charge = AreaCharge.from_function(0.3, 0.6, grid, fn)
        pts = np.array([1.7 + 0.3j, -2.2j, 0.05 + 0.02j, 0.9 - 0.4j])
        a = charge.evaluate(pts)
        b = _direct_area_transform(0.3, 0.6, grid, fn, pts)
        scale = float(np.abs(b).max())
        np.testing.assert_allclose(a, b, atol=1e-13 * scale)

    def test_dbar_identity_in_band(self):
        # d-bar of the transform recovers the charge density (FD-limited)
        grid = BoundaryGrid(128)
        fn = lambda z: np.exp(z) * np.conj(z)
        charge = AreaCharge.from_function(0.3, 0.6, grid, fn)
        ev = lambda z: charge.evaluate(np.atleast_1d(z))[0]
        for z0 in (0.45 + 0.1j, 0.33 - 0.28j, -0.15 + 0.52j):
            assert abs(_fd_dbar(ev, z0) - fn(np.array(z0))) < 1e-7

    def test_holomorphic_off_support(self):
        grid = BoundaryGrid(128)
        charge = AreaCharge.from_function(0.3, 0.6, grid,
                                          lambda z: np.exp(z) * np.conj(z))
        ev = lambda z: charge.evaluate(np.atleast_1d(z))[0]
        for z0 in (0.1 + 0.05j, 0.7 - 0.6j, 1.4j):
            assert abs(_fd_dbar(ev, z0)) < 1e-7

    def test_continuous_across_band_edges(self):
        grid = BoundaryGrid(128)
        charge = AreaCharge.from_function(0.3, 0.6, grid,
                                          lambda z: np.exp(z) * np.conj(z))
        eps = 1e-9
        for edge in (0.3, 0.6):
            lo_side = charge.evaluate(np.array([(edge - eps) * np.exp(0.7j)]))[0]
            hi_side = charge.evaluate(np.array([(edge + eps) * np.exp(0.7j)]))[0]
            assert abs(hi_side - lo_side) < 1e-7

    def test_exact_node_radius(self):
        # interpolation path must survive a query radius landing on a node;
        # direct quadrature is no reference here (kernel is singular inside
        # the band) so check continuity against straddling radii instead
        grid = BoundaryGrid(128)
        charge = AreaCharge.from_function(0.3, 0.6, grid,
                                          lambda z: np.exp(z) * np.conj(z))
        r = float(charge.s[10])
        eps = 1e-9
        vals = charge.evaluate(np.array([r - eps, r, r + eps]) * np.exp(1.1j))
        assert np.all(np.isfinite(vals))
        assert abs(vals[1] - vals[0]) < 1e-7
        assert abs(vals[2] - vals[1]) < 1e-7
