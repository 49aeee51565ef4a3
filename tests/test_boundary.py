"""Grid calculus: conjugation, differentiation, unwrapping, Holder norms."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import boundary, curves, disc
from rhsolve.boundary import (
    _CERTIFY_ALPHA,
    BoundaryGrid,
    BoundaryTrace,
    coefficient_modes,
    conjugate_samples,
    hilbert_transform,
    holder_norms,
    spectral_derivative,
    trig_coefficients,
    winding_number,
)
from rhsolve.curves import builtin_ellipse_family, monomial_transform, on_grid
from rhsolve.errors import UnresolvedPhase, ZeroOnBoundary
from rhsolve.newton import certify
from rhsolve.trig import TrigPolynomial, as_trig_polynomial


def trace_of(n, fn):
    grid = BoundaryGrid(n)
    return BoundaryTrace(grid, fn(grid.theta))


def unwrapped_phase(trace):
    # the continuous argument eta_decompose unwraps, for one trace and from
    # its memoized increments
    return boundary._unwrapped_phases(trace.values[None], trace._increments[None])[0]


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
    back = np.fft.ifft(np.roll(c, -31)) * 64
    npt.assert_allclose(back, vals, atol=1e-12)
    # e^{5 i theta} concentrates in the single k=5 slot
    mono = trace_of(64, lambda th: np.exp(5j * th))
    c5 = trig_coefficients(mono)
    assert abs(c5[np.where(k == 5)[0][0]] - 1.0) < 1e-12
    assert np.sum(np.abs(c5) > 1e-12) == 1


def test_evaluate_trace_matches_interpolant():
    t = trace_of(32, lambda th: np.cos(3 * th) - 2 * np.sin(th) + 0.25)
    pts = np.array([0.1, 1.7, 4.0, 6.1])
    expected = np.cos(3 * pts) - 2 * np.sin(pts) + 0.25
    interpolant = np.exp(1j * np.outer(pts, coefficient_modes(t.grid))) @ trig_coefficients(t)
    npt.assert_allclose(interpolant, expected, atol=1e-12)


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
    grid = BoundaryGrid(64)
    u = np.cos(2 * grid.theta) + 0.3 * np.sin(5 * grid.theta) + 1.0
    f = BoundaryTrace(grid, u + 1j * conjugate_samples(grid, u))
    c = trig_coefficients(f)
    k = coefficient_modes(grid)
    assert np.max(np.abs(c[k < 0])) < 1e-13
    npt.assert_allclose(f.values.real, u, atol=1e-12)
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


def test_trace_values_are_read_only_and_never_alias_the_caller():
    grid = BoundaryGrid(32)
    data = np.exp(1j * grid.theta)
    trace = BoundaryTrace(grid, data)
    assert not trace.values.flags.writeable
    assert not np.shares_memory(trace.values, data)
    with pytest.raises(ValueError):
        trace.values[0] = 2.0
    # the caller's array stays writable and the trace does not follow it
    data[0] = 5.0
    assert trace.values[0] == 1.0


def _count_unwraps(monkeypatch):
    calls = []
    original = boundary._interval_increments

    def counted(values, spectrum):
        calls.append(values)
        return original(values, spectrum)

    monkeypatch.setattr(boundary, "_interval_increments", counted)
    return calls


def test_winding_and_phase_share_one_unwrap(monkeypatch):
    fn = lambda th: np.exp(3j * th) * (2.0 + np.cos(th))
    fresh_winding = winding_number(trace_of(64, fn))
    fresh_phase = unwrapped_phase(trace_of(64, fn))
    calls = _count_unwraps(monkeypatch)
    t = trace_of(64, fn)
    assert winding_number(t) == fresh_winding
    assert np.array_equal(unwrapped_phase(t), fresh_phase)
    assert winding_number(t) == fresh_winding
    assert len(calls) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(-4, 4), st.floats(0.0, 0.45))
def test_winding_with_modulus_wobble(k, eps):
    t = trace_of(128, lambda th: np.exp(1j * k * th) * (1.0 + eps * np.cos(2 * th)))
    assert winding_number(t) == k


def refined_increments(trace):
    # reference: the phase increments from the 8x refined interpolant alone,
    # with every check of the refinement
    values = trace.values
    scale = float(np.max(np.abs(values)))
    if scale == 0.0 or np.min(np.abs(values)) <= boundary._ZERO_FLOOR * scale:
        raise ZeroOnBoundary("trace modulus at or below the zero floor")
    fine = boundary._refined_samples(values, boundary._REFINE)
    if np.min(np.abs(fine)) <= boundary._ZERO_FLOOR * scale:
        raise ZeroOnBoundary("interpolated trace modulus at or below the zero floor")
    steps = np.angle(np.roll(fine, -1) / fine)
    if np.max(np.abs(steps)) >= 0.9 * np.pi:
        raise UnresolvedPhase("near-antipodal phase step after refinement")
    increments = steps.reshape(trace.grid.n, boundary._REFINE).sum(axis=1)
    if np.max(np.abs(increments)) >= np.pi:
        raise UnresolvedPhase("adjacent-node phase jump reaches pi; grid too coarse")
    return increments


def _unwrap(values):
    """(increments, winding, phase) of fresh traces, or the error each raises."""
    grid = BoundaryGrid(len(values))
    outcomes = []
    for fn in (lambda t: t._increments, winding_number, unwrapped_phase):
        try:
            outcomes.append(fn(BoundaryTrace(grid, values)))
        except (ZeroOnBoundary, UnresolvedPhase) as exc:
            outcomes.append(type(exc))
    return tuple(outcomes)


def _band_limited(rng, n, winding):
    # e^{i k theta} exp(p), p a random complex trig polynomial with modes -12..12
    th = BoundaryGrid(n).theta
    degree = int(rng.integers(1, 13))
    k = np.arange(1, degree + 1)
    size = rng.uniform(0.05, 0.6) / k**1.5
    p = sum(
        (size * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))) @ np.exp(sign * 1j * np.outer(k, th))
        for sign in (1, -1)
    )
    return np.exp(1j * winding * th + p)


def _dipped(rng, n, winding):
    # e^{i k theta} (1 - r e^{i (theta - theta*)}): modulus dips to 1 - r at a
    # point theta* between nodes
    th = BoundaryGrid(n).theta
    centre = (rng.integers(n) + rng.uniform(0.2, 0.8)) * 2.0 * np.pi / n
    r = 1.0 - 10.0 ** rng.uniform(-6, -1)
    return np.exp(1j * winding * th) * (1.0 - r * np.exp(1j * (th - centre)))


@pytest.mark.parametrize("kind", ["band-limited", "dipped"])
@pytest.mark.parametrize("seed", range(4))
def test_certified_unwrap_matches_refinement(kind, seed, monkeypatch):
    rng = np.random.default_rng([seed, kind == "dipped"])
    make = _band_limited if kind == "band-limited" else _dipped
    certified = 0
    for winding in range(-10, 11):
        n = int(rng.choice([64, 128, 256, 512]))
        values = make(rng, n, winding)
        refinements = []
        original = boundary._refined_samples
        with monkeypatch.context() as m:
            m.setattr(boundary, "_refined_samples", lambda v, f: refinements.append(f) or original(v, f))
            got = _unwrap(values)
        with monkeypatch.context() as m:
            m.setattr(BoundaryTrace, "_increments", property(refined_increments))
            want = _unwrap(values)
        certified += not refinements
        if isinstance(want[0], type):
            # every error comes from the refinement, unchanged
            assert refinements and got == want
            continue
        npt.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        assert got[1] == want[1]
        assert np.array_equal(got[2], want[2])
    # both paths run: the spectral bound settles part of the smooth traces,
    # and the dips go to the refinement
    if kind == "band-limited":
        assert certified >= 5
    else:
        assert certified <= 5


def test_certified_unwrap_keeps_the_refinement_errors():
    n = 64
    th = BoundaryGrid(n).theta
    # an exact zero midway between two nodes, where the refinement samples
    centre = 10.5 * 2.0 * np.pi / n
    zero = BoundaryTrace(BoundaryGrid(n), np.exp(1j * th) - np.exp(1j * centre))
    with pytest.raises(ZeroOnBoundary):
        winding_number(zero)
    # a zero 1e-6 off the circle between two refined samples: the modulus
    # stays above the floor but the refined phase turns by nearly pi
    centre = (10.5 + 0.5 / boundary._REFINE) * 2.0 * np.pi / n
    near = BoundaryTrace(BoundaryGrid(n), np.exp(1j * th) - (1.0 - 1e-6) * np.exp(1j * centre))
    with pytest.raises(UnresolvedPhase, match="near-antipodal"):
        winding_number(near)
    with pytest.raises(UnresolvedPhase, match="near-antipodal"):
        refined_increments(near)


@pytest.mark.parametrize("n", [2**k for k in range(4, 13)])
def test_fft_of_a_stack_is_the_fft_of_each_row(n):
    # canary: every stacked transform of the solver (the phase core, the eta
    # weights, the Laurent traces, the annulus inverse and the certificate norms)
    # gives each row what it gives that row alone, bitwise, because numpy's
    # FFT of a (rows, N) stack equals the FFTs of its rows; a numpy that
    # breaks this changes the solver's answers, and this test says so first
    rng = np.random.default_rng(n)
    real = rng.standard_normal((5, n))
    stacks = (real, real + 1j * rng.standard_normal((5, n)))
    for stack in stacks:
        for transform in (np.fft.fft, np.fft.ifft):
            rows = transform(stack)
            for row, want in zip(stack, rows):
                assert np.array_equal(transform(row), want), (transform.__name__, stack.dtype)
            # a deeper stack, as stacked coefficients' (2, rows, N) traces are
            deep = transform(np.array([stack, stack[::-1]]))
            assert np.array_equal(deep[0], rows) and np.array_equal(deep[1], rows[::-1])
    # a real row transforms as the same row stored complex
    assert np.array_equal(np.fft.fft(real), np.fft.fft(real.astype(complex)))


def _rows_of_every_kind(n=64):
    """Rows for the spectral fast path, for the refinement, and for each error of the phase core."""
    th = BoundaryGrid(n).theta
    step = 2.0 * np.pi / n
    return {
        "fast": np.exp(2j * th) * (2.0 + np.cos(th)),
        "refined": np.exp(1j * th) * (1.0 - 0.9 * np.exp(1j * (th - 10.5 * step))),
        "zero at a node": np.exp(1j * th) - np.exp(1j * th[5]),
        "zero between nodes": np.exp(1j * th) - np.exp(1j * 10.5 * step),
        "near-antipodal": np.exp(1j * th) - (1.0 - 1e-6) * np.exp(1j * (10.5 + 0.5 / boundary._REFINE) * step),
        "too coarse": 0.9 + np.exp(-24j * th),
    }


def test_phase_core_gives_each_row_of_a_stack_its_one_row_answer(monkeypatch):
    # the increments, or the typed error with its message, of each row of a
    # stack are those of the row's own trace; only the rows the spectral
    # bound cannot settle are refined
    kinds = _rows_of_every_kind()
    stack = np.array(list(kinds.values()))
    refined = []
    original = boundary._refined_samples
    monkeypatch.setattr(boundary, "_refined_samples", lambda v, f: refined.append(len(v)) or original(v, f))
    increments, failures = boundary._interval_increments(stack, np.fft.fft(stack))
    assert refined == [len(kinds) - 2]
    monkeypatch.undo()
    messages = {
        "zero at a node": (ZeroOnBoundary, "trace modulus at or below the zero floor"),
        "zero between nodes": (ZeroOnBoundary, "interpolated trace modulus at or below the zero floor"),
        "near-antipodal": (UnresolvedPhase, "near-antipodal phase step after refinement"),
        "too coarse": (UnresolvedPhase, "adjacent-node phase jump reaches pi; grid too coarse"),
    }
    for kind, row, got, failure in zip(kinds, stack, increments, failures):
        trace = BoundaryTrace(BoundaryGrid(len(row)), row)
        if kind not in messages:
            assert failure is None and np.array_equal(got, trace._increments), kind
            continue
        error, message = messages[kind]
        assert type(failure) is error and str(failure) == message, kind
        with pytest.raises(error) as single:
            trace._increments
        assert str(single.value) == message, kind
        assert not got.any(), kind


def _winding_or_error(fn, arg):
    try:
        return fn(arg)
    except (ZeroOnBoundary, UnresolvedPhase) as exc:
        return type(exc), str(exc)


def test_pair_windings_are_each_traces_winding_number(monkeypatch):
    # for every pair of rows of every kind: the windings, or the error of
    # the first trace that fails, from one unwrap of the pair (and one more
    # of the failing trace, alone); each trace unwrapped keeps its
    # increments, and a second call reads them
    kinds = list(_rows_of_every_kind().values())
    grid = BoundaryGrid(len(kinds[0]))
    for outer in kinds:
        for inner in kinds:
            singles = [_winding_or_error(winding_number, BoundaryTrace(grid, row)) for row in (outer, inner)]
            errors = [single for single in singles if isinstance(single, tuple)]
            pair = (BoundaryTrace(grid, outer), BoundaryTrace(grid, inner))
            with monkeypatch.context() as m:
                calls = _count_unwraps(m)
                assert _winding_or_error(boundary.winding_numbers, pair) == (errors[0] if errors else tuple(singles))
                assert [len(rows) for rows in calls] == ([2, 1] if errors else [2])
                for trace, single in zip(pair, singles):
                    if not isinstance(single, tuple):
                        assert np.array_equal(trace._increments, BoundaryTrace(grid, trace.values)._increments)
                if not errors:
                    del calls[:]
                    assert boundary.winding_numbers(pair) == tuple(singles) and not calls


def test_stacked_windings_round_each_row_as_winding_number_does():
    n = 64
    rows = np.full((3, n), 2.0 * np.pi / n)
    rows[1] *= -3.0
    rows[2] *= 0.5  # half a turn: no integer winding
    failures = [None, None, None]
    assert boundary._windings(rows, failures) == [1, -3, None]
    assert failures[:2] == [None, None]
    assert type(failures[2]) is UnresolvedPhase and str(failures[2]) == "winding rounding residue 0.500 >= 0.1"
    for row, want in zip(rows, ([1], [-3], [None])):
        assert boundary._windings(row[None], [None]) == want
    # a row that already failed keeps its error and gets no winding
    earlier = ZeroOnBoundary("trace modulus at or below the zero floor")
    failures = [earlier, None, None]
    assert boundary._windings(rows, failures)[0] is None and failures[0] is earlier


# -------------------------------------------------------------- Holder norms


def dense_pair_seminorm(values, alpha):
    # reference: every node pair at once, with N x N difference and chord matrices,
    # one row of a stack at a time. The node angles are taken in (-pi, pi]: near
    # 2 pi their rounding alone moves an N = 1024 neighbour chord by up to 1.3e-13
    # relative
    values = np.asarray(values)
    if values.ndim > 1:
        return np.array([dense_pair_seminorm(row, alpha) for row in values])
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
    # sup |cos| = 1 and sup |sin| = 1, so sup + C^{1/2} is 1 + sqrt(2) for both
    grid = BoundaryGrid(256)
    parts = (np.cos(grid.theta),)
    norm = holder_norms(grid, parts)
    assert isinstance(norm, float)
    npt.assert_allclose(norm, 1.0 + np.sqrt(2.0), atol=1e-12)
    npt.assert_allclose(holder_norms(grid, parts, derivative=True), 1.0 + np.sqrt(2.0), atol=1e-12)


def test_holder_of_constant_is_zero():
    grid = BoundaryGrid(32)
    constant = np.full(32, 2.5)
    assert holder_norms(grid, (constant,)) == 2.5
    assert holder_norms(grid, (constant,), derivative=True) == pytest.approx(2.5, abs=1e-12)


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


HOLDER_KINDS = ("smooth", "rough", "complex", "constant", "spike", "cos")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(HOLDER_KINDS),
    st.sampled_from([16, 32, 64, 128, 256, 512, 1024]),
    st.floats(0.1, 0.9),
    st.integers(0, 2**32 - 1),
)
def test_holder_seminorm_matches_dense_pairs(kind, n, alpha, seed):
    values = holder_test_trace(kind, n, seed)
    c_alpha = boundary._pair_seminorm(values.astype(complex)[None, :], alpha)[0]
    npt.assert_allclose(c_alpha, dense_pair_seminorm(values.astype(complex), alpha), rtol=1e-13)


def holder_test_stack(kinds, n, seed, real=False):
    # one row per kind; a real stack takes the real part of the complex kinds
    rows = [holder_test_trace(kind, n, seed + i) for i, kind in enumerate(kinds)]
    return np.array([np.real(row) for row in rows]) if real else np.array(rows, dtype=complex)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(HOLDER_KINDS), min_size=1, max_size=6),
    st.sampled_from([16, 64, 256, 512]),
    st.floats(0.1, 0.9),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_holder_stack_matches_dense_pairs_row_by_row(kinds, n, alpha, seed, real):
    stack = holder_test_stack(kinds, n, seed, real)
    c_alpha = boundary._pair_seminorm(stack, alpha)
    assert c_alpha.shape == (len(kinds),)
    npt.assert_allclose(c_alpha, dense_pair_seminorm(stack, alpha), rtol=1e-13)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("real", [False, True])
def test_holder_stack_of_every_kind_matches_dense_pairs_at_extreme_scales(scale, real):
    # at N = 256 the constant and spike rows are done within the first two
    # separations, the rough rows later and the cos rows only at N/2: one
    # stack scans until its slowest row is done
    stack = scale * holder_test_stack(HOLDER_KINDS * 3, 256, 7, real)
    c_alpha = boundary._pair_seminorm(stack, 0.5)
    npt.assert_allclose(c_alpha, dense_pair_seminorm(stack, 0.5), rtol=1e-13)
    assert np.all(c_alpha[HOLDER_KINDS.index("constant") :: len(HOLDER_KINDS)] == 0.0)
    # a row's norm does not depend on the rows stacked with it
    for row, value in zip(stack, c_alpha):
        assert boundary._pair_seminorm(row[None, :], 0.5)[0] == value


def test_holder_stack_rejects_non_finite_and_wrong_length_rows():
    grid = BoundaryGrid(64)
    stack = holder_test_stack(HOLDER_KINDS, 64, 3)
    for derivative in (False, True):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            broken = stack.copy()
            broken[2, 5] = bad
            for parts in ((broken,), (stack, broken)):
                with pytest.raises(ValueError):
                    holder_norms(grid, parts, derivative=derivative)
        with pytest.raises(ValueError):
            holder_norms(BoundaryGrid(32), (stack,), derivative=derivative)


def test_holder_seminorm_memory_is_linear_in_grid():
    # the dense pair matrices would take several 134 MB arrays at N = 4096,
    # per row of a stack
    rng = np.random.default_rng(11)
    grid = BoundaryGrid(4096)
    trace = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    stack = rng.normal(size=(16, 4096)) + 1j * rng.normal(size=(16, 4096))
    for samples in (trace, stack, stack.real.copy()):
        tracemalloc.start()
        try:
            holder_norms(grid, (samples,))
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
    npt.assert_allclose(holder_norms(grid, parts), max(sup(p) + c_alpha(p) for p in parts), rtol=1e-13)
    npt.assert_allclose(
        holder_norms(grid, parts, derivative=True),
        max(sup(p) + c_alpha(derivative(p)) for p in parts),
        rtol=1e-13,
    )


def test_certificate_norms_compute_one_seminorm_per_part(monkeypatch):
    calls = []
    scan = boundary._pair_seminorm
    monkeypatch.setattr(boundary, "_pair_seminorm", lambda values, alpha: calls.append(1) or scan(values, alpha))
    grid = BoundaryGrid(64)
    parts = certificate_parts(64)
    holder_norms(grid, parts)
    assert len(calls) == 2
    holder_norms(grid, parts, derivative=True)
    assert len(calls) == 4
    holder_norms(grid, parts[:1], derivative=True)
    assert len(calls) == 5
    # a stack of 16 rows per part still takes one scan per part
    stacks = tuple(np.stack([(1.0 + 0.1 * i) * part for i in range(16)]) for part in parts)
    assert holder_norms(grid, stacks).shape == (16,)
    assert len(calls) == 7
    assert holder_norms(grid, stacks, derivative=True).shape == (16,)
    assert len(calls) == 9


def test_disc_certificate_matches_dense_pairs(monkeypatch, sampled_disc_problem):
    # the sampled certificate at the initializer of an N = 512 ellipse solve
    grid = BoundaryGrid(512)
    fam_t = on_grid(monomial_transform(builtin_ellipse_family([1.5, 0.2, 0.0], 1.0), 2), grid.theta)
    problem = sampled_disc_problem(fam_t, grid)
    g0 = disc._initial_log_trace(fam_t, grid)
    scanned = certify(problem, g0)
    monkeypatch.setattr(boundary, "_pair_seminorm", dense_pair_seminorm)
    dense = certify(problem, g0)
    for name in ("omega1", "omega2", "omega3", "product", "identity_defect"):
        npt.assert_allclose(getattr(scanned, name), getattr(dense, name), rtol=1e-12)
    assert scanned.certified == dense.certified


def test_holder_scan_stops_early_on_a_disc_omega1_stack(monkeypatch, sampled_disc_problem, disc_probe_samplers):
    # the derivatives of the steps B r of the 16 residual probes of a sampled
    # disc N = 512 certificate (seed 0): the scan stops once no row's
    # diameter bound can beat its best ratio, long before the N/2
    # separations of a full scan, and the seminorms stay those of every pair
    grid = BoundaryGrid(512)
    fam_t = monomial_transform(builtin_ellipse_family([1.5, 0.2, 0.0], 1.0), 2)
    problem = sampled_disc_problem(fam_t, grid)
    probe, _ = disc_probe_samplers(grid)
    rng = np.random.default_rng(0)
    residuals = np.stack([probe(rng) for _ in range(16)])
    steps = problem.right_inverse(disc._initial_log_trace(on_grid(fam_t, grid.theta), grid))(residuals)
    derivatives = np.array([spectral_derivative(BoundaryTrace(grid, row)).values for row in steps])
    # the scan takes one np.abs per separation it visits
    calls = []
    absolute = np.abs
    with monkeypatch.context() as patch:
        patch.setattr(np, "abs", lambda values: calls.append(1) or absolute(values))
        seminorms = boundary._pair_seminorm(derivatives, _CERTIFY_ALPHA)
    npt.assert_allclose(seminorms, dense_pair_seminorm(derivatives, _CERTIFY_ALPHA), rtol=1e-13)
    # 28 of the 256 separations on this stack
    assert 0 < len(calls) < 0.2 * (grid.n // 2)


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
    seminorm = lambda w: boundary._pair_seminorm(w[None, :], alpha)[0]
    assert seminorm(u + v) <= seminorm(u) + seminorm(v) + 1e-9
    npt.assert_allclose(seminorm(2.0 * u), 2.0 * seminorm(u), rtol=1e-12)


# ----------------------------------------------------------- trig polynomials


def test_trig_polynomial_evaluation_and_degree():
    p = TrigPolynomial((1.0, 2.0, -1.0, 0.0, 3.0))  # 1 + 2cos - sin + 3 sin 2t
    th = np.linspace(0, 2 * np.pi, 7)
    npt.assert_allclose(p(th), 1 + 2 * np.cos(th) - np.sin(th) + 3 * np.sin(2 * th))
    assert p.degree == 2
    assert TrigPolynomial.constant(4.0).degree == 0


def test_trig_polynomial_on_grid_nodes_is_bitwise_the_direct_evaluation():
    # on a grid's own nodes the rows cos k theta, sin k theta come from a
    # cache; a writeable copy of the nodes is evaluated directly
    p = TrigPolynomial((0.3, 1.0, -0.5, 0.0, 0.25, 0.1, 0.0))
    for n in (16, 256, 8192):
        nodes = boundary._nodes(n)
        for _ in range(2):
            assert p(nodes).tobytes() == p(np.array(nodes)).tobytes()
    # the construction checks' nodes are those of the 4096-point grid, the
    # same floats as the linspace they replace
    assert curves._FINE is BoundaryGrid(4096).theta
    assert curves._FINE.tobytes() == np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False).tobytes()


def test_trig_polynomial_derivative():
    p = TrigPolynomial((0.0, 1.0, 0.0))  # cos t
    d = p.derivative()
    th = np.linspace(0, 2 * np.pi, 11)
    npt.assert_allclose(d(th), -np.sin(th), atol=1e-14)


def test_trig_polynomial_min_and_coercion():
    p = as_trig_polynomial([2.0, 1.0, 0.0])  # 2 + cos t
    assert p(np.pi) == pytest.approx(1.0, abs=1e-15)  # its minimum
    q = as_trig_polynomial(3.5)
    assert q(0.0) == pytest.approx(3.5)
    assert as_trig_polynomial(p) is p
