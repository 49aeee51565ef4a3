"""Interior evaluation and zero location against closed-form extensions."""

import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from rhsolve import domains
from rhsolve.analysis import check_identity
from rhsolve.annulus import AnnulusSolveOptions, solve_annulus, solve_annulus_radial
from rhsolve.boundary import BoundaryGrid, BoundaryTrace, winding_number
from rhsolve.curves import builtin_circle_family, builtin_ellipse_family
from rhsolve.domains import (
    Annulus,
    LocatedZero,
    annulus_flux,
    cauchy_extend,
    harmonic_extend_annulus,
    laurent_evaluate,
    laurent_from_traces,
    laurent_modes,
    laurent_traces,
    locate_zeros,
)
from rhsolve.errors import ConfigError, CountMismatch, ModeConditioning, PointTooCloseToBoundary, ZeroOnBoundary


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
        paired, slope = domains._LaurentSums(c)(z, slope=True)
    assert value.shape == paired.shape == slope.shape == np.shape(z)
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(paired)) and np.all(np.isfinite(slope))
    for v in (value, paired):
        assert np.all(np.abs(v - horner_laurent(c, z)) <= 1e-12 * size)
    assert np.all(np.abs(slope - horner_laurent(c, z, derivative=True)) <= 1e-12 * slope_size)


def test_annulus_validates_modulus():
    with pytest.raises(ValueError):
        Annulus(0.0)
    with pytest.raises(ValueError):
        Annulus(1.5)


def test_annulus_modulus_has_one_check_and_one_error_type():
    # the domain and the solvers reject a modulus with the same ConfigError,
    # which is also the ValueError a domain raised before
    assert issubclass(ConfigError, ValueError)
    for q in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ConfigError, match=r"annulus modulus must lie in \(0, 1\)"):
            Annulus(q)


def test_cauchy_extend_disc_polynomial():
    # a polynomial extends to the whole disc, so its inner-circle integral
    # must vanish; quadrature error decays like (q/|z|)^N and |z|^N, so the
    # points stay between 0.5 and 0.85 at N=256
    fn = lambda z: 2.0 + z - 0.5 * z**3
    traces = annulus_traces(256, 0.4, fn)
    pts = np.array([0.5, 0.3 + 0.4j, -0.7j, 0.85])
    npt.assert_allclose(cauchy_extend(traces, Annulus(0.4), pts), fn(pts), atol=1e-12)


def test_cauchy_extend_annulus_laurent():
    fn = lambda z: z**2 + 3.0 / z + 0.25
    q = 0.4
    traces = annulus_traces(256, q, fn)
    pts = np.array([0.5, -0.6 + 0.2j, 0.45j, 0.8])
    npt.assert_allclose(cauchy_extend(traces, Annulus(q), pts), fn(pts), atol=1e-10)


def test_margin_guard():
    traces = annulus_traces(256, 0.5, lambda z: z)
    for point in (0.99, 0.51):
        with pytest.raises(PointTooCloseToBoundary):
            cauchy_extend(traces, Annulus(0.5), np.array([point]))


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


def test_laurent_traces_prolong_to_a_finer_grid():
    # zero-padding is exact: the series carried by a 64-point grid, sampled
    # at 128 points, takes its own values on the finer nodes, and reading
    # those traces back gives it zero-padded to the modes -63..63
    n, q = 64, 0.5
    rng = np.random.default_rng(3)
    modes = laurent_modes(n)
    c = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    c *= 0.8 ** np.abs(modes) * np.where(modes < 0, q ** np.abs(modes), 1.0)
    fine = BoundaryGrid(2 * n)
    outer, inner = laurent_traces(c, q, fine.n)
    z = np.exp(1j * fine.theta)
    npt.assert_allclose(outer, laurent_evaluate(c, z), atol=1e-12)
    npt.assert_allclose(inner, laurent_evaluate(c, q * z), atol=1e-12)
    padded = np.concatenate([np.zeros(n // 2), c, np.zeros(n // 2)])
    assert len(padded) == len(laurent_modes(fine.n))
    npt.assert_allclose(laurent_from_traces(fine, q, outer, inner), padded, rtol=1e-10, atol=1e-15)
    # a grid too coarse for the modes would alias them
    with pytest.raises(ValueError, match="need at least 64 points"):
        laurent_traces(c, q, n // 2)


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


def test_certification_circles_fail_as_their_own_traces_would(monkeypatch):
    # the windings of all certification circles are one stacked unwrap: the
    # first circle that cannot be counted names its zero, with the error
    # its own trace raises
    roots = np.array([0.3 + 0.2j, -0.5j, -0.62])
    traces = annulus_traces(128, 0.25, lambda z: (z - roots[0]) * (z - roots[1]) * (z - roots[2]))
    polished, circles = [], []
    polish, evaluate = domains._polish, domains._LaurentSums.__call__
    monkeypatch.setattr(domains, "_polish", lambda *args: polished.append(polish(*args)) or polished[-1])
    th = BoundaryGrid(64).theta

    def broken(self, z, slope=False):
        values = evaluate(self, z, slope)
        if np.shape(z) == (3, 64):
            values[1, 5] = 0.0  # a zero at a node
            values[2] = 0.9 + np.exp(-24j * th)  # too coarse to unwrap
            circles.append(values)
        return values

    monkeypatch.setattr(domains._LaurentSums, "__call__", broken)
    with pytest.raises(CountMismatch) as stacked:
        locate_zeros(traces, Annulus(0.25))
    ((z, _),), (values,) = polished, circles
    with pytest.raises(ZeroOnBoundary) as single:
        winding_number(BoundaryTrace(BoundaryGrid(64), values[1]))
    assert str(stacked.value) == f"cannot count the zeros near {z[1]:.6g}: {single.value}"
    assert isinstance(stacked.value.__cause__, ZeroOnBoundary)


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
    calls = []

    def horner_blocks(z, blocks):
        # the blocked sums of domains._power_series, by Horner on each series
        h, width, m, nblocks = blocks.shape
        calls.append(z.shape)
        coeffs = blocks.transpose(0, 2, 3, 1).reshape(h, m, nblocks * width)
        return np.array([[horner(row, c) for c in series] for row, series in zip(z, coeffs)]).transpose(0, 2, 1)

    monkeypatch.setattr(domains, "_power_series", horner_blocks)
    for (traces, domain), want in zip(cases, blocked):
        del calls[:]
        got = locate_zeros(traces, domain)
        assert [z.multiplicity for z in got] == [z.multiplicity for z in want]
        npt.assert_allclose(
            [z.position for z in got], [z.position for z in want], rtol=0, atol=1e-14
        )
        # the patched sums ran: first at the nodes (rows z and 1/z), last on
        # the circles, _CHUNK points at a time
        circles = 64 * len(want)
        chunks = [(2, min(domains._CHUNK, circles - start)) for start in range(0, circles, domains._CHUNK)]
        assert len(calls) > len(chunks) and calls[0] == (2, len(want))
        assert calls[-len(chunks) :] == chunks


def radial_zero_case():
    """A radial solve with one zero: the solution, its traces, their prepared series and roundoff floor."""
    sol = solve_annulus_radial(builtin_circle_family(1.0), builtin_circle_family(0.6), 0.5)
    traces = (sol.outer_trace, sol.inner_trace)
    coeffs = laurent_from_traces(traces[0].grid, 0.5, *(t.values for t in traces))
    noise = np.sqrt(len(coeffs)) * np.finfo(float).eps * max(t.sup() for t in traces)
    return sol, traces, domains._LaurentSums(coeffs), noise


@pytest.fixture
def series_calls(monkeypatch):
    """(number of points, slope) of every sum of a prepared Laurent series."""
    calls = []
    original = domains._LaurentSums.__call__

    def spy(self, z, slope=False):
        calls.append((np.size(z), slope))
        return original(self, z, slope)

    monkeypatch.setattr(domains._LaurentSums, "__call__", spy)
    return calls


def test_polish_leaves_a_node_at_the_roundoff_floor(series_calls):
    # the radial zero's Hankel node already meets the floor: one value sum at
    # the node, no slope, then the certification circle
    sol, traces, _, noise = radial_zero_case()
    del series_calls[:]  # the solve's own zero search
    (found,) = locate_zeros(traces, Annulus(0.5))
    assert series_calls == [(1, False), (64, False)]
    assert found.multiplicity == 1 and found.residual <= noise
    assert abs(found.position - sol.zero) < 1e-14


def test_polish_moves_a_zero_off_its_node_down_to_the_floor(series_calls):
    # from 1e-9 off, one Newton step reaches the floor and the polish stops
    # there: the value and slope at the start, then value and slope at the step
    sol, _, series, noise = radial_zero_case()
    start = np.array([sol.zero + 1e-9 * np.exp(0.7j)])
    assert abs(series(start)[0]) > 1e3 * noise
    del series_calls[:]
    z, residual = domains._polish(series, start, np.array([1]), noise)
    assert series_calls == [(1, False), (1, True), (1, True)]
    assert residual[0] <= noise
    assert abs(z[0] - sol.zero) < 1e-14
    assert start[0] == sol.zero + 1e-9 * np.exp(0.7j)  # the input is not moved in place


def qr_pencil(s, p):
    """Reference: the Hankel pencil of the moments solved by QR, eig and two solves at any p."""
    idx = np.add.outer(np.arange(p), np.arange(p))
    basis, tri = np.linalg.qr(s[idx])
    diag = np.abs(np.diag(tri))
    small = diag <= domains._RANK_TOL * diag[0]
    r = int(np.argmax(small)) if small.any() else p
    reduced = basis[:, :r].conj().T @ s[idx[:, :r] + 1]
    nodes = np.linalg.eigvals(np.linalg.solve(tri[:r, :r], reduced))
    vandermonde = nodes[None, :] ** np.arange(r)[:, None]
    return nodes, np.rint(np.linalg.solve(vandermonde, s[:r]).real).astype(int)


def test_one_zero_pencil_in_closed_form_is_the_qr_pencil():
    rng = np.random.default_rng(31)
    q = 0.4
    moments = []
    for _ in range(20):
        z0 = rng.uniform(q + 0.05, 0.95) * np.exp(2j * np.pi * rng.uniform())
        a, b = 0.2 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        traces = annulus_traces(128, q, lambda z: (z - z0) * np.exp(a * z + b / z))
        moments.append(domains._moments(traces, np.array([t._spectrum for t in traces]), Annulus(q), 2))
        # and moments off the exact ones, as a coarse grid leaves them
        noise = 1e-3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        moments.append(np.array([1.0, z0]) + noise)
    for s in moments:
        nodes, mult = domains._hankel_zeros(s, 1)
        want_nodes, want_mult = qr_pencil(s, 1)
        npt.assert_allclose(nodes, want_nodes, rtol=1e-14, atol=0)
        assert mult.tolist() == want_mult.tolist() == [1]
    # s_0 = 0 leaves a pencil of rank 0: no node
    s = np.array([0.0, 0.3 + 0.1j])
    for got, want in zip(domains._hankel_zeros(s, 1), qr_pencil(s, 1)):
        assert got.shape == want.shape == (0,)


def test_one_zero_moments_with_s0_zero_end_in_count_mismatch(monkeypatch):
    traces = annulus_traces(64, 0.5, lambda z: z - 0.7)
    monkeypatch.setattr(domains, "_moments", lambda *args: np.array([0.0, 0.7 + 0.0j]))
    with pytest.raises(CountMismatch, match=r"moment multiplicities \[\] do not sum to the boundary count 1"):
        locate_zeros(traces, Annulus(0.5))


def test_flux_is_the_log_coefficient_of_the_mode_solve():
    # the means of the data against the zero modes of their DFT, the log
    # coefficient the mode solve read
    rng = np.random.default_rng(17)
    for n in (16, 128, 1024):
        grid = BoundaryGrid(n)
        for q in (0.05, 0.5, 0.99):
            d0, d1 = rng.standard_normal((2, n)) + rng.uniform(-3.0, 3.0, (2, 1))
            flux = annulus_flux(grid, q, d0, d1)
            f0, f1 = np.fft.fft([d0, d1])[:, 0].real / n
            scale = max(np.abs(d0).max(), np.abs(d1).max()) / abs(np.log(q))
            assert flux == pytest.approx((f1 - f0) / np.log(q), rel=1e-14, abs=1e-14 * scale)
            assert harmonic_extend_annulus(grid, q, d0, d1)[0] == flux


def test_flux_refuses_what_the_mode_solve_refuses():
    grid = BoundaryGrid(64)
    data = np.zeros(grid.n)
    thin = 0.9999996  # q^2 > 1 - 1e-6
    for flux in (annulus_flux, harmonic_extend_annulus):
        for q in (0.0, -0.3, 1.0, 1.5):
            with pytest.raises(ConfigError, match="annulus modulus must lie in"):
                flux(grid, q, data, data)
        with pytest.raises(ModeConditioning, match="degenerates as the annulus thins"):
            flux(grid, thin, data, data)
        with pytest.raises(ConfigError, match="sampled on the grid"):
            flux(grid, 0.5, data, data[:32])
    # and so do the radial solve and the identity check, which read the flux
    outer, inner = builtin_circle_family(1.0), builtin_circle_family(0.9)
    sol = solve_annulus_radial(outer, inner, 0.5, grid_n=64)
    for q, error in ((thin, ModeConditioning), (1.5, ConfigError), (0.0, ConfigError)):
        with pytest.raises(error) as radial:
            solve_annulus_radial(outer, inner, q, grid_n=64)
        with pytest.raises(error) as identity:
            check_identity(dataclasses.replace(sol, q=q))
        assert type(radial.value) is type(identity.value) is error
