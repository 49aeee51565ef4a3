"""Interior evaluation and zero location against closed-form extensions."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from rhsolve import domains
from rhsolve.annulus import AnnulusSolveOptions, solve_annulus, solve_annulus_radial
from rhsolve.boundary import BoundaryGrid, BoundaryTrace
from rhsolve.curves import builtin_circle_family, builtin_ellipse_family
from rhsolve.domains import (
    Annulus,
    LocatedZero,
    cauchy_extend,
    laurent_derivative,
    laurent_evaluate,
    laurent_from_traces,
    locate_zeros,
)
from rhsolve.errors import CountMismatch, PointTooCloseToBoundary


def annulus_traces(n, q, fn):
    grid = BoundaryGrid(n)
    z = np.exp(1j * grid.theta)
    return BoundaryTrace(grid, fn(z)), BoundaryTrace(grid, fn(q * z))


def horner(z, c):
    """sum_j c_j z^j by numpy's Horner loop, one Python step per coefficient."""
    if len(c) == 0:
        return np.zeros(np.shape(z), dtype=complex)
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), c)


def horner_laurent(c, z, derivative=False):
    """Reference Laurent series (or its derivative) with modes -K..K, by Horner."""
    c = np.asarray(c, dtype=complex)
    k = (len(c) - 1) // 2
    inv = 1.0 / np.asarray(z, dtype=complex)
    if derivative:
        weights = np.arange(1, k + 1)
        return horner(z, c[k + 1 :] * weights) - inv * inv * horner(inv, c[:k][::-1] * weights)
    return horner(z, c[k:]) + inv * horner(inv, c[:k][::-1])


def assert_matches_horner(c, z):
    """Values and derivatives agree with Horner to 1e-12 of sum |c_j| |z|^j.

    The blocked sums must stay finite and warning-free wherever Horner's
    rule does, which excludes any table of powers beyond the block.
    """
    modes = np.arange(len(c)) - (len(c) - 1) // 2
    size = horner_laurent(np.abs(c), np.abs(z)).real
    slope_size = horner_laurent(np.abs(modes * c), np.abs(z)).real / np.abs(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = laurent_evaluate(c, z)
        slope = laurent_derivative(c, z)
    assert value.shape == slope.shape == np.shape(z)
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(slope))
    assert np.all(np.abs(value - horner_laurent(c, z)) <= 1e-12 * size)
    assert np.all(np.abs(slope - horner_laurent(c, z, derivative=True)) <= 1e-12 * slope_size)


def test_annulus_validates_modulus():
    with pytest.raises(ValueError):
        Annulus(0.0)
    with pytest.raises(ValueError):
        Annulus(1.5)


def test_cauchy_extend_disc_polynomial():
    # a polynomial extends to the whole disc, so its inner-circle integral
    # must vanish; quadrature error decays like (q/|z|)^N and |z|^N, so the
    # points stay between 0.5 and 0.85 at N=256
    fn = lambda z: 2.0 + z - 0.5 * z**3
    traces = annulus_traces(256, 0.4, fn)
    pts = np.array([0.5, 0.3 + 0.4j, -0.7j, 0.85])
    npt.assert_allclose(cauchy_extend(traces, Annulus(0.4), pts), fn(pts), atol=1e-12)
    dfn = lambda z: 1.0 - 1.5 * z**2
    npt.assert_allclose(
        cauchy_extend(traces, Annulus(0.4), pts, derivative=True), dfn(pts), atol=1e-11
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
    traces = annulus_traces(256, 0.5, lambda z: z)
    for point in (0.99, 0.51):
        with pytest.raises(PointTooCloseToBoundary):
            cauchy_extend(traces, Annulus(0.5), np.array([point]))
    # explicit margin overrides the default guard
    out = cauchy_extend(traces, Annulus(0.5), np.array([0.95]), margin=0.01)
    npt.assert_allclose(out, 0.95, rtol=1e-4)


def test_trace_count_checked_against_domain():
    outer, inner = annulus_traces(64, 0.5, lambda z: z)
    for traces in (outer, (outer,), (outer, inner, inner)):
        with pytest.raises(ValueError):
            cauchy_extend(traces, Annulus(0.5), np.array([0.7]))


# ----------------------------------------------------------- Laurent series


@pytest.mark.parametrize(
    "k", [0, 1, domains._BLOCK - 1, domains._BLOCK, domains._BLOCK + 1, 255, 2047]
)
def test_laurent_evaluation_matches_horner(k):
    # negative modes decay like q^|j|, as read off an inner circle of radius
    # q; at q = 0.75 none of them is subnormal
    q = 0.75
    rng = np.random.default_rng(k)
    modes = np.arange(-k, k + 1)
    c = rng.standard_normal(2 * k + 1) + 1j * rng.standard_normal(2 * k + 1)
    c *= np.where(modes < 0, q ** np.abs(modes).astype(float), 1.0)
    circle = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40))
    interior = rng.uniform(q, 1.0, (5, 64)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (5, 64)))
    for z in (circle, q * circle, np.sqrt(q) * circle, interior):
        assert_matches_horner(c, z)


@pytest.mark.parametrize("n, q", [(1024, 0.04), (4096, 0.01)])
def test_laurent_evaluation_finite_where_q_to_the_minus_k_overflows(n, q):
    # smooth traces, modes decaying like 0.7^|j|: a mode whose q^|j| share is
    # subnormal is then below roundoff, as for a solver's traces
    grid = BoundaryGrid(n)
    rng = np.random.default_rng(n)
    modes = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    modes *= 0.7 ** np.abs(np.fft.fftfreq(n, 1.0 / n))
    outer, inner = n * np.fft.ifft(modes, axis=1)
    c = laurent_from_traces(grid, q, outer, inner)
    circle = np.exp(1j * grid.theta)
    assert_matches_horner(c, circle)
    assert_matches_horner(c, q * circle)
    assert_matches_horner(c, (q + (1.0 - q) * rng.uniform(size=(3, 64))) * circle[:64])


# ------------------------------------------------------------- zero location


def test_locate_simple_zeros():
    roots = np.array([0.3 + 0.2j, -0.5j, -0.62])
    fn = lambda z: (z - roots[0]) * (z - roots[1]) * (z - roots[2])
    found = locate_zeros(annulus_traces(128, 0.25, fn), Annulus(0.25))
    assert [z.multiplicity for z in found] == [1, 1, 1]
    got = sorted((z.position for z in found), key=lambda w: (w.real, w.imag))
    want = sorted(roots.tolist(), key=lambda w: (w.real, w.imag))
    npt.assert_allclose(got, want, atol=1e-9)
    assert all(z.residual < 1e-10 for z in found)


def test_locate_triple_zero():
    fn = lambda z: (z - 0.5j) ** 3 * np.exp(z)
    found = locate_zeros(annulus_traces(128, 0.25, fn), Annulus(0.25))
    assert len(found) == 1
    assert found[0].multiplicity == 3
    assert abs(found[0].position - 0.5j) < 1e-8


def test_locate_double_zero_off_center():
    a = 0.4 + 0.1j
    fn = lambda z: (z - a) ** 2 * (2.0 + z)
    found = locate_zeros(annulus_traces(128, 0.25, fn), Annulus(0.25))
    assert [z.multiplicity for z in found] == [2]
    npt.assert_allclose(found[0].position, a, atol=1e-7)


def test_locate_no_zeros():
    assert locate_zeros(annulus_traces(64, 0.5, lambda z: 2.0 + z), Annulus(0.5)) == []


def test_locate_annulus_zeros():
    # (q, zeros with multiplicities, position tolerance): two simple zeros;
    # one zero inside the 2 pi / N margin of the outer circle; a double zero,
    # whose position is conditioned like the square root of roundoff
    inputs = [
        (0.25, {0.5j: 1, -0.7: 1}, 1e-9),
        (0.5, {0.99 * np.exp(0.3j): 1, -0.6 + 0.2j: 1}, 1e-9),
        (0.25, {0.45 - 0.3j: 2, 0.8j: 1}, 1e-7),
        # a double zero 0.01 from a simple one: |f| on its small certification
        # circle stays below 1e-6, so its roundoff residual is a large share of it
        (0.3, {0.5: 2, 0.5 + 0.01j: 1, -0.6j: 1}, 1e-7),
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
    t = annulus_traces(128, 0.2, fn)
    a = locate_zeros(t, Annulus(0.2))
    b = locate_zeros(t, Annulus(0.2))
    assert len(a) == 2
    assert a == b


def test_count_mismatch_on_hidden_pole():
    # traces of 1/(z - 0.6): the "extension" has a pole in the annulus, the
    # boundary windings predict a negative count and the search must refuse
    t = annulus_traces(64, 0.3, lambda z: 1.0 / (z - 0.6))
    with pytest.raises(CountMismatch):
        locate_zeros(t, Annulus(0.3))


def test_count_mismatch_when_grid_too_coarse_for_the_moments():
    # 40 zeros need moments s_0..s_79, which a 64-point grid aliases; a
    # 128-point grid resolves them
    fn = lambda z: z**20 + 0.01 * z**-20
    with pytest.raises(CountMismatch, match="64-point grid"):
        locate_zeros(annulus_traces(64, 0.5, fn), Annulus(0.5))
    found = locate_zeros(annulus_traces(128, 0.5, fn), Annulus(0.5))
    npt.assert_allclose([abs(z.position) for z in found], [0.01 ** (1 / 40)] * 40, atol=1e-10)


def test_cluster_of_zeros_is_not_a_multiple_zero():
    # at d = 1e-6 the Hankel rank merges the pair at a into one double zero
    # and the winding count alone confirms it; |f| there is d^2, far above
    # the roundoff floor that a true double zero (d = 0) polishes down to
    a, q = 0.6 + 0.1j, 0.3
    pair = lambda d: annulus_traces(256, q, lambda z: (z - a - d) * (z - a + d) * (z + 0.55j))
    found = locate_zeros(pair(0.0), Annulus(q))
    assert sorted(z.multiplicity for z in found) == [1, 2]
    with pytest.raises(CountMismatch, match="cluster of 2 zeros"):
        locate_zeros(pair(1e-6), Annulus(q))


def test_locate_zeros_matches_horner_evaluation(monkeypatch):
    # the README annulus (12 simple zeros) and a radial zero locate the same
    # with the series summed by Horner's loop
    ell = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    opts = AnnulusSolveOptions(grid_n=512, tol=1e-9, certify=False)
    readme = solve_annulus(ell, builtin_circle_family(0.3), (6, 6), 0.4, opts)
    radial = solve_annulus_radial(builtin_circle_family(1.0), builtin_circle_family(0.6), 0.5)
    cases = [
        ((readme.outer_trace, readme.inner_trace), Annulus(0.4)),
        ((radial.outer_trace, radial.inner_trace), Annulus(0.5)),
    ]
    blocked = [locate_zeros(traces, domain) for traces, domain in cases]
    assert [len(found) for found in blocked] == [12, 1]
    monkeypatch.setattr(domains, "_power_series", horner)
    for (traces, domain), want in zip(cases, blocked):
        got = locate_zeros(traces, domain)
        assert [z.multiplicity for z in got] == [z.multiplicity for z in want]
        npt.assert_allclose(
            [z.position for z in got], [z.position for z in want], rtol=0, atol=1e-14
        )
