"""Grid calculus: conjugation, differentiation, unwrapping, Holder norms."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import boundary
from rhsolve.boundary import (
    _CERTIFY_ALPHA,
    BoundaryGrid,
    BoundaryTrace,
    analytic_completion,
    coefficient_modes,
    evaluate_trace,
    hilbert_transform,
    holder_iterate_norm,
    holder_norms,
    holder_residual_norm,
    spectral_derivative,
    trig_coefficients,
    unwrapped_phase,
    values_from_coefficients,
    winding_number,
)
from rhsolve.curves import builtin_ellipse_family
from rhsolve.disc import DiscSolveOptions, solve_disc
from rhsolve.errors import UnresolvedPhase, ZeroOnBoundary
from rhsolve.trig import TrigPolynomial, as_trig_polynomial


def trace_of(n, fn):
    return BoundaryTrace.from_function(BoundaryGrid(n), fn)


# ---------------------------------------------------------------- grid basics


def test_grid_rejects_bad_sizes():
    for n in (0, 1, 8, 12, 17, 24, 100, 8192):
        with pytest.raises(ValueError):
            BoundaryGrid(n)
    BoundaryGrid(16)
    BoundaryGrid(1024)
    BoundaryGrid(4096)


def test_trace_shape_and_finiteness_checks():
    grid = BoundaryGrid(16)
    with pytest.raises(ValueError):
        BoundaryTrace(grid, np.zeros(17))
    with pytest.raises(ValueError):
        BoundaryTrace(grid, np.full(16, np.nan))
    with pytest.raises(ValueError):
        BoundaryTrace(grid, np.full(16, np.inf + 0j))


def test_real_values_guard():
    t = trace_of(32, lambda th: np.exp(1j * th))
    with pytest.raises(ValueError):
        t.real_values()
    u = trace_of(32, np.cos)
    npt.assert_allclose(u.real_values(), np.cos(u.grid.theta))


# ------------------------------------------------------------- coefficients


def test_coefficient_roundtrip_and_layout():
    grid = BoundaryGrid(64)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    t = BoundaryTrace(grid, vals)
    c = trig_coefficients(t)
    k = coefficient_modes(grid)
    assert k[0] == -31 and k[-1] == 32 and k[31] == 0
    back = values_from_coefficients(grid, c)
    npt.assert_allclose(back.values, vals, atol=1e-12)
    # e^{5 i theta} concentrates in the single k=5 slot
    mono = trace_of(64, lambda th: np.exp(5j * th))
    c5 = trig_coefficients(mono)
    assert abs(c5[np.where(k == 5)[0][0]] - 1.0) < 1e-12
    assert np.sum(np.abs(c5) > 1e-12) == 1


def test_evaluate_trace_matches_interpolant():
    t = trace_of(32, lambda th: np.cos(3 * th) - 2 * np.sin(th) + 0.25)
    pts = np.array([0.1, 1.7, 4.0, 6.1])
    expected = np.cos(3 * pts) - 2 * np.sin(pts) + 0.25
    npt.assert_allclose(evaluate_trace(t, pts), expected, atol=1e-12)


def test_spectral_derivative_exact_on_band_limited():
    t = trace_of(64, lambda th: np.sin(4 * th) + 0.5 * np.cos(th))
    d = spectral_derivative(t)
    th = t.grid.theta
    npt.assert_allclose(d.values.real, 4 * np.cos(4 * th) - 0.5 * np.sin(th), atol=1e-11)
    npt.assert_allclose(d.values.imag, 0, atol=1e-12)


# --------------------------------------------------------------- conjugation


def test_hilbert_maps_cos_to_sin_exactly():
    for n in (16, 64, 256):
        grid = BoundaryGrid(n)
        th = grid.theta
        for k in (1, 2, n // 4):
            t = hilbert_transform(BoundaryTrace(grid, np.cos(k * th)))
            npt.assert_allclose(t.values.real, np.sin(k * th), atol=1e-12)
            s = hilbert_transform(BoundaryTrace(grid, np.sin(k * th)))
            npt.assert_allclose(s.values.real, -np.cos(k * th), atol=1e-12)


def test_hilbert_kills_mean_and_nyquist():
    grid = BoundaryGrid(32)
    th = grid.theta
    t = hilbert_transform(BoundaryTrace(grid, 3.0 + np.cos(16 * th)))
    npt.assert_allclose(t.values, 0, atol=1e-12)


def test_hilbert_requires_real_input():
    t = trace_of(32, lambda th: np.exp(1j * th))
    with pytest.raises(ValueError):
        hilbert_transform(t)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6), st.integers(0, 3))
def test_hilbert_involution_on_zero_mean(coeffs, shift):
    # T(T(u)) = -u for zero-mean band-limited u below the Nyquist mode
    grid = BoundaryGrid(32)
    th = grid.theta
    u = np.zeros(32)
    for i, a in enumerate(coeffs):
        k = i // 2 + 1 + shift
        u += a * (np.cos(k * th) if i % 2 == 0 else np.sin(k * th))
    t = BoundaryTrace(grid, u)
    tt = hilbert_transform(hilbert_transform(t))
    npt.assert_allclose(tt.values.real, -u, atol=1e-9)


def test_analytic_completion_has_no_negative_modes():
    t = trace_of(64, lambda th: np.cos(2 * th) + 0.3 * np.sin(5 * th) + 1.0)
    f = analytic_completion(t)
    c = trig_coefficients(f)
    k = coefficient_modes(f.grid)
    assert np.max(np.abs(c[k < 0])) < 1e-13
    npt.assert_allclose(f.values.real, t.values.real, atol=1e-12)
    assert abs(np.mean(f.values.imag)) < 1e-13


# ---------------------------------------------------------------- unwrapping


def test_winding_of_monomials():
    for k in (-5, -1, 0, 1, 3, 7):
        t = trace_of(64, lambda th, k=k: np.exp(1j * k * th))
        assert winding_number(t) == k


def test_winding_of_offset_loop():
    # 2 + e^{i theta} stays in the right half plane: winding 0
    t = trace_of(32, lambda th: 2.0 + np.exp(1j * th))
    assert winding_number(t) == 0
    # e^{i theta} + 0.3 winds once
    t1 = trace_of(32, lambda th: np.exp(1j * th) + 0.3)
    assert winding_number(t1) == 1


def test_zero_on_boundary_detected():
    t = trace_of(32, lambda th: np.exp(1j * th) - 1.0)
    with pytest.raises(ZeroOnBoundary):
        winding_number(t)
    # zero between nodes, visible only after refinement
    t2 = trace_of(16, lambda th: np.exp(1j * 8 * th) + 1.0)
    with pytest.raises((ZeroOnBoundary, UnresolvedPhase)):
        winding_number(t2)


def test_unresolved_phase_on_coarse_grid_then_resolved():
    fn = lambda th: 0.9 + np.exp(-6j * th)
    with pytest.raises(UnresolvedPhase):
        winding_number(trace_of(16, fn))
    assert winding_number(trace_of(256, fn)) == -6


def test_unwrapped_phase_consistency():
    t = trace_of(64, lambda th: np.exp(1j * 3 * th) * (2.0 + np.cos(th)))
    b = unwrapped_phase(t)
    assert -np.pi < b[0] <= np.pi
    npt.assert_allclose(np.exp(1j * b), t.values / np.abs(t.values), atol=1e-12)
    # total increase along the loop matches the winding
    inc = b[-1] - b[0] + np.angle(t.values[0] / t.values[-1])
    assert abs(inc / (2 * np.pi) - 3) < 0.2


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4), st.floats(0.0, 0.45))
def test_winding_with_modulus_wobble(k, eps):
    t = trace_of(128, lambda th: np.exp(1j * k * th) * (1.0 + eps * np.cos(2 * th)))
    assert winding_number(t) == k


# -------------------------------------------------------------- Holder norms


def dense_pair_seminorm(values, alpha):
    # reference: every node pair at once, with N x N difference and chord matrices.
    # The node angles are taken in (-pi, pi]: near 2 pi their rounding alone
    # moves an N = 1024 neighbour chord by up to 1.3e-13 relative
    n = len(values)
    j = np.arange(n)
    theta = 2.0 * np.pi * np.where(j > n // 2, j - n, j) / n
    diffs = np.abs(values[:, None] - values[None, :])
    chord = np.abs(np.exp(1j * theta)[:, None] - np.exp(1j * theta)[None, :])
    mask = chord > 0
    ratios = np.zeros_like(diffs)
    ratios[mask] = diffs[mask] / chord[mask] ** alpha
    return float(np.max(ratios))


def test_holder_of_cosine_is_sqrt_two():
    # |cos a - cos b| / |e^{ia} - e^{ib}|^{1/2} peaks at sqrt(2) (antipodes)
    t = trace_of(256, np.cos)
    rep = holder_norms(t, alpha=0.5)
    npt.assert_allclose(rep.c_alpha, np.sqrt(2.0), atol=1e-12)
    npt.assert_allclose(rep.sup_norm, 1.0, atol=1e-12)
    assert holder_iterate_norm(t.grid, (t.values,)) > rep.sup_norm


def test_holder_of_constant_is_zero():
    t = trace_of(32, lambda th: np.full_like(th, 2.5))
    rep = holder_norms(t, alpha=0.5)
    assert rep.c_alpha == 0.0
    assert holder_iterate_norm(t.grid, (t.values,)) == pytest.approx(rep.sup_norm, abs=1e-12)


def holder_test_trace(kind, n, seed):
    rng = np.random.default_rng(seed)
    th = BoundaryGrid(n).theta
    smooth = np.exp(np.cos(th - rng.uniform(0, 2 * np.pi))) + rng.normal() * np.sin(3 * th)
    if kind == "smooth":
        return smooth
    if kind == "rough":
        return smooth + 0.1 * rng.normal(size=n)
    if kind == "complex":
        return smooth * np.exp(1j * (th + 0.3 * np.sin(5 * th))) + 0.01 * rng.normal(size=n)
    if kind == "constant":
        return np.full(n, rng.normal() + 1j * rng.normal())
    if kind == "spike":
        u = np.zeros(n)
        u[rng.integers(n)] = rng.normal()
        return u
    # cos peaks at antipodal pairs, the last separation the scan reaches
    return np.cos(th - rng.uniform(0, 2 * np.pi))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["smooth", "rough", "complex", "constant", "spike", "cos"]),
    st.sampled_from([16, 32, 64, 128, 256, 512, 1024]),
    st.floats(0.1, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_holder_seminorm_matches_dense_pairs(kind, n, alpha, seed):
    values = holder_test_trace(kind, n, seed)
    rep = holder_norms(BoundaryTrace(BoundaryGrid(n), values), alpha)
    npt.assert_allclose(rep.c_alpha, dense_pair_seminorm(values.astype(complex), alpha), rtol=1e-13)


def test_holder_seminorm_memory_is_linear_in_grid():
    # the dense pair matrices would take several 134 MB arrays at N = 4096
    rng = np.random.default_rng(11)
    trace = BoundaryTrace(BoundaryGrid(4096), rng.normal(size=4096) + 1j * rng.normal(size=4096))
    tracemalloc.start()
    try:
        holder_norms(trace, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def certificate_parts(n):
    th = BoundaryGrid(n).theta
    rng = np.random.default_rng(5)
    return (np.cos(2 * th) + 0.05 * rng.normal(size=n), np.exp(np.sin(th)) + 1j * np.cos(3 * th))


def test_certificate_norms_are_their_definitions():
    grid = BoundaryGrid(128)
    parts = certificate_parts(128)
    sup = lambda v: float(np.max(np.abs(v)))
    c_alpha = lambda v: dense_pair_seminorm(np.asarray(v, dtype=complex), _CERTIFY_ALPHA)
    derivative = lambda p: spectral_derivative(BoundaryTrace(grid, p)).values
    npt.assert_allclose(holder_residual_norm(grid, parts), max(sup(p) + c_alpha(p) for p in parts), rtol=1e-13)
    npt.assert_allclose(
        holder_iterate_norm(grid, parts), max(sup(p) + c_alpha(derivative(p)) for p in parts), rtol=1e-13
    )


def test_certificate_norms_compute_one_seminorm_per_part(monkeypatch):
    calls = []
    scan = boundary._pair_seminorm
    monkeypatch.setattr(boundary, "_pair_seminorm", lambda values, alpha: calls.append(1) or scan(values, alpha))
    grid = BoundaryGrid(64)
    parts = certificate_parts(64)
    holder_residual_norm(grid, parts)
    assert len(calls) == 2
    holder_iterate_norm(grid, parts)
    assert len(calls) == 4
    holder_iterate_norm(grid, parts[:1])
    assert len(calls) == 5


def test_disc_certificate_matches_dense_pairs(monkeypatch):
    fam = builtin_ellipse_family([1.5, 0.2, 0.0], 1.0)
    options = DiscSolveOptions(grid_n=512)
    scanned = solve_disc(fam, 2, options).run.certificate
    monkeypatch.setattr(boundary, "_pair_seminorm", dense_pair_seminorm)
    dense = solve_disc(fam, 2, options).run.certificate
    for name in ("omega1", "omega2", "omega3", "product"):
        npt.assert_allclose(getattr(scanned, name), getattr(dense, name), rtol=1e-12)
    assert scanned.certified == dense.certified


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=4, max_size=4),
    st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=4, max_size=4),
    st.floats(0.1, 0.9),
)
def test_holder_seminorm_subadditive_and_homogeneous(a, b, alpha):
    # subnormal coefficients are excluded: gradual underflow quantizes the
    # seminorm in 5e-324 steps, which no relative tolerance survives
    grid = BoundaryGrid(32)
    th = grid.theta
    u = sum(c * np.cos((i + 1) * th) for i, c in enumerate(a))
    v = sum(c * np.sin((i + 1) * th) for i, c in enumerate(b))
    ru = holder_norms(BoundaryTrace(grid, u), alpha)
    rv = holder_norms(BoundaryTrace(grid, v), alpha)
    rsum = holder_norms(BoundaryTrace(grid, u + v), alpha)
    assert rsum.c_alpha <= ru.c_alpha + rv.c_alpha + 1e-9
    r2 = holder_norms(BoundaryTrace(grid, 2.0 * u), alpha)
    npt.assert_allclose(r2.c_alpha, 2.0 * ru.c_alpha, rtol=1e-12)


# ----------------------------------------------------------- trig polynomials


def test_trig_polynomial_evaluation_and_degree():
    p = TrigPolynomial((1.0, 2.0, -1.0, 0.0, 3.0))  # 1 + 2cos - sin + 3 sin 2t
    th = np.linspace(0, 2 * np.pi, 7)
    npt.assert_allclose(p(th), 1 + 2 * np.cos(th) - np.sin(th) + 3 * np.sin(2 * th))
    assert p.degree == 2
    assert TrigPolynomial.constant(4.0).degree == 0


def test_trig_polynomial_derivative():
    p = TrigPolynomial((0.0, 1.0, 0.0))  # cos t
    d = p.derivative()
    th = np.linspace(0, 2 * np.pi, 11)
    npt.assert_allclose(d(th), -np.sin(th), atol=1e-14)


def test_trig_polynomial_min_and_coercion():
    p = as_trig_polynomial([2.0, 1.0, 0.0])  # 2 + cos t
    assert p.min_value() == pytest.approx(1.0, abs=1e-5)
    q = as_trig_polynomial(3.5)
    assert q(0.0) == pytest.approx(3.5)
    assert as_trig_polynomial(p) is p
