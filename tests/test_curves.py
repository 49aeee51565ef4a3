"""Curve families: partials, ray radii, eta splitting, divisor transforms, grid binding."""

import dataclasses
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from rhsolve import boundary, curves, disc
from rhsolve.annulus import AnnulusSolveOptions, solve_annulus, solve_annulus_radial
from rhsolve.boundary import BoundaryGrid, BoundaryTrace
from rhsolve.curves import (
    CurveFamily,
    builtin_circle_family,
    builtin_ellipse_family,
    divisor_transform,
    eta_decompose,
    family_from_spec,
    monomial_transform,
    on_grid,
)
from rhsolve.disc import DiscSolveOptions, _blend_families, solve_disc
from rhsolve.errors import (
    DegenerateAxis,
    EtaWindingNonzero,
    MultiplierVanishes,
    UnresolvedPhase,
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
    npt.assert_allclose(dec.phi_weight, 1.0, atol=1e-14)
    npt.assert_allclose(dec.k_weight, 1.0, atol=1e-14)


def test_eta_exponential_reproduction():
    fam = builtin_ellipse_family(2.0, 1.0, phi=[0.0, 0.3, 0.1])
    trace = unit_trace(256)
    dec = eta_decompose(fam, trace)
    # eta = exp(a + i b), phi_weight = exp(-a - b~) and k_weight = exp(b~ - i b)
    npt.assert_allclose(dec.eta.values * dec.k_weight * dec.phi_weight, 1.0, atol=1e-10)


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
    fam = divisor_transform(base, lambda th: np.exp(2j * th))
    theta = np.array([0.1, 1.0, 3.0])
    w = np.array([0.5 + 0.2j, -0.8j, 1.1])
    # centered circles are rotation invariant
    npt.assert_allclose(fam.rho(theta, w), base.rho(theta, w), atol=1e-14)
    assert fam.radial_profile is not None
    npt.assert_allclose(fam.radial_profile(theta), 1.0)


def test_divisor_transform_partials_and_roundtrip():
    base = builtin_ellipse_family([2.0, 0.2, 0.0], 1.0, phi=[0.1, 0.0, 0.2])
    g = lambda th: np.exp(1j * th) * (1.0 + 0.3 * np.cos(th))
    fam = divisor_transform(base, g)
    _, dbw = finite_diff_wirtinger(fam, THETAS, 0.4 * POINTS)
    npt.assert_allclose(fam.dbar_w(THETAS, 0.4 * POINTS), dbw, rtol=1e-5, atol=1e-7)
    # ray radius lands on the transformed curve
    r = fam.ray_radius(THETAS, 0.3)
    npt.assert_allclose(fam.rho(THETAS, r * np.exp(0.3j)), 0.0, atol=1e-12)
    # dividing back by g restores the family
    inv = divisor_transform(fam, lambda th: 1.0 / g(th))
    npt.assert_allclose(inv.rho(THETAS, POINTS), base.rho(THETAS, POINTS), atol=1e-12)


def test_multiplier_vanishes():
    base = builtin_circle_family(1.0)
    with pytest.raises(MultiplierVanishes):
        divisor_transform(base, lambda th: np.cos(th) + 0j)
    # |scale exp(i sigma theta)| = |scale|: the monomial multiplier vanishes
    # with its scale, at the same 1e-14 as the sampled test
    for sigma, scale in ((2, 0.0), (0, 0.0), (-3, 1e-15), (1, -0.0)):
        with pytest.raises(MultiplierVanishes):
            monomial_transform(base, sigma, scale)
    assert monomial_transform(base, 2, 1e-13).rho(0.0, 1e13) == pytest.approx(0.0, abs=1e-12)


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


_SPEC_FOURIER = {
    "circle": {"R": [2.0, 0.1, 0.0], "c": [0.1]},
    "ellipse": {"p": [2.0, 0.1, 0.0], "q": [1.0], "phi": [0.2]},
}
_BUILDER_ARGUMENT = {"R": "radius", "c": "center", "p": "p", "q": "q", "phi": "phi"}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "kind,key", [("circle", "R"), ("circle", "c"), ("ellipse", "p"), ("ellipse", "q"), ("ellipse", "phi")]
)
def test_non_finite_coefficients_rejected_at_construction(kind, key, value):
    # json reads NaN and Infinity, and comparisons with NaN are false, so the
    # positivity checks alone let such profiles through to the solve
    builder = builtin_circle_family if kind == "circle" else builtin_ellipse_family
    for coeffs in ([value], [2.0, value, 0.0]):
        fourier = dict(_SPEC_FOURIER[kind], **{key: coeffs})
        with pytest.raises(ValueError, match="finite"):
            family_from_spec({"type": kind, "fourier": fourier})
        arguments = {_BUILDER_ARGUMENT[k]: v for k, v in fourier.items()}
        with pytest.raises(ValueError, match="finite"):
            builder(**arguments)
    with pytest.raises(ValueError, match="finite"):
        TrigPolynomial((1.0, value, 0.0))


def test_eta_decompose_unwraps_eta_once(monkeypatch):
    calls = []
    original = boundary._interval_increments
    monkeypatch.setattr(
        boundary, "_interval_increments", lambda values, spectrum: calls.append(1) or original(values, spectrum)
    )
    fam = builtin_ellipse_family([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], phi=[0.3, 0.2, 0.0])
    grid = BoundaryGrid(128)
    dec = eta_decompose(fam, BoundaryTrace(grid, 1.5 * np.exp(1j * grid.theta)))
    assert len(calls) == 1
    npt.assert_allclose(dec.eta.values * dec.k_weight * dec.phi_weight, 1.0, rtol=1e-12)


def _eta_family(eta):
    # a family whose eta along the constant trace w = 1 is the given row
    return CurveFamily(rho=None, dbar_w=lambda theta, w: np.conj(eta), ray_radius=None)


def test_eta_weights_of_a_stack_are_those_of_its_rows():
    # the collar decomposes both boundaries as one stack: each row's weights
    # are bitwise those eta_decompose forms for it alone, and the first row
    # that fails raises the error, with the message, that its own
    # decomposition raises
    grid = BoundaryGrid(128)
    th = grid.theta
    fam = builtin_ellipse_family([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], phi=[0.3, 0.2, 0.0])
    traces = [1.5 * np.exp(1j * th), (1.2 + 0.1 * np.cos(2 * th)) * np.exp(1j * (th + 0.3 * np.sin(th)))]
    eta = np.array([t * np.conj(fam.dbar_w(th, t)) for t in traces])
    phi_weight, k_weight = curves._eta_weights(grid, eta)
    for trace, phi, k in zip(traces, phi_weight, k_weight):
        dec = eta_decompose(fam, BoundaryTrace(grid, trace))
        assert np.array_equal(phi, dec.phi_weight) and np.array_equal(k, dec.k_weight)

    good = (1.0 + 0.3 * np.cos(th)) * np.exp(0.2j * np.sin(th))
    bad = {
        "winds": np.exp(1j * th) * (2.0 + np.cos(th)),
        "vanishes": np.exp(1j * th) - np.exp(1j * th[3]),
        "too coarse": 0.9 + np.exp(-48j * th),
    }
    expected = {"winds": EtaWindingNonzero, "vanishes": ZeroOnTrace, "too coarse": UnresolvedPhase}
    ones = BoundaryTrace(grid, np.ones(grid.n))
    for kind, row in bad.items():
        with pytest.raises(expected[kind]) as single:
            eta_decompose(_eta_family(row), ones)
        # behind a good row and ahead of another failing one
        other = bad["vanishes" if kind != "vanishes" else "winds"]
        with pytest.raises(expected[kind]) as stacked:
            curves._eta_weights(grid, np.array([good, row, other]))
        assert str(stacked.value) == str(single.value), kind
    with pytest.raises(EtaWindingNonzero, match="eta has winding 1, expected 0"):
        curves._eta_weights(grid, np.array([good, bad["winds"]]))
    with pytest.raises(ValueError, match="trace values must be finite"):
        curves._eta_weights(grid, np.array([good, np.where(th < 1.0, good, np.nan)]))


def test_row_norms_and_rho_rows_of_a_stack_are_those_of_its_rows():
    # the disc is the one-row case of the bounds core the collar runs on two
    # rows: each row of a two-row stack gets bitwise the rho values, A-norms,
    # weight defect and fine residual it gets alone
    grid = BoundaryGrid(128)
    th = grid.theta
    fams = (builtin_ellipse_family([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], phi=[0.3, 0.2, 0.0]),
            builtin_circle_family([1.4, 0.05, -0.02]))
    traces = (1.5 * np.exp(1j * th), (1.2 + 0.1 * np.cos(2 * th)) * np.exp(1j * (th + 0.3 * np.sin(th))))
    eta = np.array([t * np.conj(fam.dbar_w(th, t)) for fam, t in zip(fams, traces)])
    phi_weight, k_weight = curves._eta_weights(grid, eta)
    extra = (np.array([fam.dbar_w(th, t) for fam, t in zip(fams, traces)]), np.array(traces) ** 2)
    stacked = disc._row_norms(eta, phi_weight, k_weight, *extra)
    assert len(stacked) == 4 and all(norms.shape == (2,) for norms in stacked)
    for i in range(2):
        alone = disc._row_norms(eta[i], phi_weight[i], k_weight[i], *(rows[i] for rows in extra))
        assert [norms[i] for norms in stacked] == list(alone)
    rho = disc._rho_rows(fams, th, traces)
    units = np.array([2.0, 0.5])
    for fam, trace, row, unit in zip(fams, traces, rho, units):
        assert np.array_equal(row, fam.rho(th, trace))
        assert np.array_equal(disc._rho_rows((fam,), th, (trace,)), row[None])
    each = [disc._fine_residual((fam,), (trace,), unit) for fam, trace, unit in zip(fams, traces, units)]
    assert disc._fine_residual(fams, traces, units) == max(each)


# ----------------------------------------------------------- grid binding


def scaled_circle(base, coeffs, calls=None):
    # |w| = base * exp(a(theta)) as a divisor transform; calls counts the
    # multiplier's evaluations
    a = TrigPolynomial.from_list(coeffs)

    def g(th):
        if calls is not None:
            calls.append(len(np.atleast_1d(th)))
        return np.exp(-a(th)) + 0j

    return divisor_transform(builtin_circle_family(float(base)), g)


TILTED = ([2.0, 0.1, 0.0], [1.0, 0.0, -0.05], [0.3, 0.2, 0.0])
BINDABLE = {
    "circle": lambda: builtin_circle_family([1.5, 0.2, -0.1]),
    "offset-circle": lambda: builtin_circle_family([1.5, 0.0, 0.3], center=[0.2, 0.1, 0.0]),
    "ellipse": lambda: builtin_ellipse_family(*TILTED),
    "round-ellipse": lambda: builtin_ellipse_family([1.5, 0.1], [1.5, 0.1], phi=0.2),
    "divisor": lambda: divisor_transform(
        builtin_ellipse_family(*TILTED), lambda th: np.exp(1j * th) * (1.0 + 0.3 * np.cos(th))
    ),
    "scaled": lambda: scaled_circle(0.7, [0.0, 0.12, -0.05, 0.08, 0.02]),
    "monomial": lambda: monomial_transform(builtin_ellipse_family(*TILTED), 3, 0.5),
    "blend": lambda: _blend_families(builtin_circle_family(1.4), builtin_ellipse_family(*TILTED), 0.3),
}


@pytest.mark.parametrize("name", BINDABLE)
def test_bound_family_equals_the_family_bitwise(name):
    family = BINDABLE[name]()
    grid = BoundaryGrid(64)
    bound = on_grid(family, grid.theta)
    assert bound is not family
    assert (bound.radial_profile is None) == (family.radial_profile is None)
    rng = np.random.default_rng(5)
    # the bound nodes, other angles of the same length, another grid
    for theta in (grid.theta, rng.uniform(0.0, 2.0 * np.pi, 64), BoundaryGrid(128).theta):
        # one point per node, and a stack of them as the certificate passes
        w = (1.0 + 0.3 * rng.standard_normal((3, len(theta)))) * np.exp(2j * np.pi * rng.uniform(size=(3, len(theta))))
        psi = rng.uniform(0.0, 2.0 * np.pi, len(theta))
        for points in (w[0], w):
            assert np.array_equal(bound.rho(theta, points), family.rho(theta, points))
            assert np.array_equal(bound.dbar_w(theta, points), family.dbar_w(theta, points))
        assert np.array_equal(bound.ray_radius(theta, psi), family.ray_radius(theta, psi))
        if family.radial_profile is not None:
            assert np.array_equal(bound.radial_profile(theta), family.radial_profile(theta))


def test_binding_needs_read_only_nodes_and_a_builtin_family():
    grid = BoundaryGrid(64)
    family = builtin_circle_family([1.5, 0.2, -0.1])
    assert on_grid(family, np.array(grid.theta)) is family
    plain = CurveFamily(family.rho, family.dbar_w, family.ray_radius)
    assert on_grid(plain, grid.theta) is plain


def test_radial_solve_evaluates_each_multiplier_once():
    outer_calls, inner_calls = [], []
    outer = scaled_circle(1.0, [0.0, 0.1, -0.05, 0.04, 0.02], outer_calls)
    inner = scaled_circle(0.5**1.4, [0.0, -0.06, 0.03], inner_calls)
    del outer_calls[:], inner_calls[:]  # the vanishing check at construction
    sol = solve_annulus_radial(outer, inner, 0.5, grid_n=256)
    assert sol.zero is not None
    assert outer_calls == [256] and inner_calls == [256]


def test_disc_solve_evaluates_ellipse_profiles_once_per_solve(monkeypatch):
    P, Q, Phi = (TrigPolynomial(tuple(c)) for c in TILTED)
    family = builtin_ellipse_family(P, Q, Phi)
    calls = []
    original = TrigPolynomial.__call__
    monkeypatch.setattr(TrigPolynomial, "__call__", lambda self, th: calls.append(self) or original(self, th))

    def profile_calls(tol):
        del calls[:]
        sol = solve_disc(family, 1, DiscSolveOptions(tol=tol))
        return sol.run.iterations, sum(any(c is p for p in (P, Q, Phi)) for c in calls)

    few, loose = profile_calls(1e-3)
    many, tight = profile_calls(1e-12)
    assert few < many
    # one evaluation per profile on the solve grid, and one on the doubled
    # grid on which the certificate measures the residual
    assert loose == tight == 6


def _recording(family, bound):
    # the family, with every family its bind returns kept as a weak reference
    def bind(theta):
        result = family.bind(theta)
        bound.append(weakref.ref(result))
        return result

    return dataclasses.replace(family, bind=bind)


def test_bound_families_do_not_outlive_their_solve():
    bound = []
    ellipse = _recording(builtin_ellipse_family(*TILTED), bound)
    solve_disc(ellipse, 1)
    outer = _recording(builtin_circle_family([1.0, 0.02, -0.01]), bound)
    inner = _recording(builtin_circle_family([0.5, 0.01]), bound)
    solve_annulus(outer, inner, (6, 6), 0.5, AnnulusSolveOptions(certify=False))
    solve_annulus_radial(
        _recording(scaled_circle(1.0, [0.0, 0.1]), bound), _recording(scaled_circle(0.5**0.5, [0.0, 0.05]), bound), 0.5
    )
    assert len(bound) >= 5
    assert all(ref() is None for ref in bound)


def test_plain_callable_family_solves_as_before():
    # the README family: four plain callables, called as given
    R = lambda theta: np.exp(np.cos(theta))
    family = CurveFamily(
        rho=lambda theta, w: (w * np.conj(w)).real - R(theta) ** 2,
        dbar_w=lambda theta, w: np.asarray(w, dtype=complex),
        ray_radius=lambda theta, psi: R(theta) * np.ones_like(np.asarray(psi, dtype=float)),
        radial_profile=R,
    )
    sol = solve_disc(family, winding=1)
    z = np.exp(1j * sol.grid.theta)
    npt.assert_allclose(sol.f_trace.values, z * np.exp(z), atol=1e-12)
    assert sol.run.certificate is not None
