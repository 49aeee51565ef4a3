"""Interior evaluation and zero location against closed-form extensions."""

import numpy as np
import numpy.testing as npt
import pytest

from rhsolve.boundary import BoundaryGrid, BoundaryTrace
from rhsolve.domains import (
    Annulus,
    Disc,
    LocatedZero,
    cauchy_extend,
    locate_zeros,
)
from rhsolve.errors import CountMismatch, PointTooCloseToBoundary


def disc_trace(n, fn):
    grid = BoundaryGrid(n)
    return BoundaryTrace(grid, fn(np.exp(1j * grid.theta)))


def annulus_traces(n, q, fn):
    grid = BoundaryGrid(n)
    z = np.exp(1j * grid.theta)
    return BoundaryTrace(grid, fn(z)), BoundaryTrace(grid, fn(q * z))


def test_annulus_validates_modulus():
    with pytest.raises(ValueError):
        Annulus(0.0)
    with pytest.raises(ValueError):
        Annulus(1.5)


def test_cauchy_extend_disc_polynomial():
    # quadrature error decays like r^N, so points stay inside 0.85 at N=256
    fn = lambda z: 2.0 + z - 0.5 * z**3
    trace = disc_trace(256, fn)
    pts = np.array([0.0, 0.3 + 0.4j, -0.7j, 0.85])
    npt.assert_allclose(cauchy_extend(trace, Disc(), pts), fn(pts), atol=1e-12)
    dfn = lambda z: 1.0 - 1.5 * z**2
    npt.assert_allclose(
        cauchy_extend(trace, Disc(), pts, derivative=True), dfn(pts), atol=1e-11
    )


def test_cauchy_extend_annulus_laurent():
    fn = lambda z: z**2 + 3.0 / z + 0.25
    q = 0.4
    traces = annulus_traces(256, q, fn)
    pts = np.array([0.5, -0.6 + 0.2j, 0.45j, 0.8])
    npt.assert_allclose(cauchy_extend(traces, Annulus(q), pts), fn(pts), atol=1e-10)
    dfn = lambda z: 2.0 * z - 3.0 / z**2
    npt.assert_allclose(
        cauchy_extend(traces, Annulus(q), pts, derivative=True), dfn(pts), atol=1e-9
    )


def test_margin_guard():
    trace = disc_trace(256, lambda z: z)
    with pytest.raises(PointTooCloseToBoundary):
        cauchy_extend(trace, Disc(), np.array([0.99]))
    # explicit margin overrides the default guard
    out = cauchy_extend(trace, Disc(), np.array([0.95]), margin=0.01)
    npt.assert_allclose(out, 0.95, rtol=1e-4)
    traces = annulus_traces(64, 0.5, lambda z: z)
    with pytest.raises(PointTooCloseToBoundary):
        cauchy_extend(traces, Annulus(0.5), np.array([0.51]))


def test_trace_count_checked_against_domain():
    trace = disc_trace(64, lambda z: z)
    with pytest.raises(ValueError):
        cauchy_extend((trace, trace), Disc(), np.array([0.0]))
    with pytest.raises(ValueError):
        cauchy_extend(trace, Annulus(0.5), np.array([0.7]))


# ------------------------------------------------------------- zero location


def test_locate_simple_disc_zeros():
    roots = np.array([0.3 + 0.2j, -0.5j, -0.62])
    fn = lambda z: (z - roots[0]) * (z - roots[1]) * (z - roots[2])
    found = locate_zeros(disc_trace(128, fn), Disc())
    assert [z.multiplicity for z in found] == [1, 1, 1]
    got = sorted((z.position for z in found), key=lambda w: (w.real, w.imag))
    want = sorted(roots.tolist(), key=lambda w: (w.real, w.imag))
    npt.assert_allclose(got, want, atol=1e-9)
    assert all(z.residual < 1e-10 for z in found)


def test_locate_multiple_zero_at_origin():
    fn = lambda z: z**3 * np.exp(z)
    found = locate_zeros(disc_trace(128, fn), Disc())
    assert len(found) == 1
    assert found[0].multiplicity == 3
    assert abs(found[0].position) < 1e-8


def test_locate_double_zero_off_center():
    a = 0.4 + 0.1j
    fn = lambda z: (z - a) ** 2 * (2.0 + z)
    found = locate_zeros(disc_trace(128, fn), Disc())
    assert [z.multiplicity for z in found] == [2]
    npt.assert_allclose(found[0].position, a, atol=1e-7)


def test_locate_no_zeros():
    assert locate_zeros(disc_trace(64, lambda z: 2.0 + z), Disc()) == []


def test_locate_annulus_zeros():
    # (q, zeros with multiplicities, position tolerance): two simple zeros;
    # one zero inside the 2 pi / N margin of the outer circle; a double zero,
    # whose position is conditioned like the square root of roundoff
    inputs = [
        (0.25, {0.5j: 1, -0.7: 1}, 1e-9),
        (0.5, {0.99 * np.exp(0.3j): 1, -0.6 + 0.2j: 1}, 1e-9),
        (0.25, {0.45 - 0.3j: 2, 0.8j: 1}, 1e-7),
    ]
    for q, roots, atol in inputs:
        fn = lambda z: np.prod([(z - a) ** m for a, m in roots.items()], axis=0) / z
        found = locate_zeros(annulus_traces(256, q, fn), Annulus(q))
        assert len(found) == len(roots)
        for a, m in roots.items():
            (hit,) = [z for z in found if abs(z.position - a) < atol]
            assert hit.multiplicity == m


def test_locate_annulus_no_zero_pure_power():
    q = 0.5
    found = locate_zeros(annulus_traces(128, q, lambda z: z**3), Annulus(q))
    assert found == []


def test_determinism_same_seed():
    fn = lambda z: (z - 0.3) * (z + 0.4j) * z
    t = disc_trace(128, fn)
    a = locate_zeros(t, Disc())
    b = locate_zeros(t, Disc())
    assert a == b


def test_count_mismatch_on_hidden_pole():
    # trace of 1/z on the unit circle: the "extension" is not holomorphic,
    # boundary winding is negative and the search must refuse
    t = disc_trace(64, lambda z: 1.0 / z)
    with pytest.raises(CountMismatch):
        locate_zeros(t, Disc())


def test_count_mismatch_when_grid_too_coarse_for_the_moments():
    # 40 zeros need moments s_0..s_79, which a 64-point grid aliases; a
    # 128-point grid resolves them
    fn = lambda z: z**20 + 0.01 * z**-20
    with pytest.raises(CountMismatch, match="64-point grid"):
        locate_zeros(annulus_traces(64, 0.5, fn), Annulus(0.5))
    found = locate_zeros(annulus_traces(128, 0.5, fn), Annulus(0.5))
    npt.assert_allclose([abs(z.position) for z in found], [0.01 ** (1 / 40)] * 40, atol=1e-10)
