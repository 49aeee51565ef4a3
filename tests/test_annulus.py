"""Annulus pipeline: Laurent calculus, collar glue, Newton solve, radial closed form."""

import dataclasses
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import annulus, boundary, cli, domains, newton
from rhsolve.analysis import check_identity, surjectivity_demo
from rhsolve.annulus import (
    AnnulusSolveOptions,
    glue_construct,
    pullback_family,
    solve_annulus,
    solve_annulus_radial,
)
from rhsolve.boundary import BoundaryGrid, BoundaryTrace, conjugate_samples, wiener_norm, winding_number
from rhsolve.curves import (
    CurveFamily,
    builtin_circle_family,
    builtin_ellipse_family,
    divisor_transform,
    eta_decompose,
    on_grid,
)
from rhsolve.disc import gauge_align, right_inverse_apply
from rhsolve.domains import (
    Annulus,
    cauchy_extend,
    harmonic_extend_annulus,
    laurent_evaluate,
    laurent_from_traces,
    laurent_modes,
    laurent_traces,
    locate_zeros,
)
from rhsolve.errors import (
    ConfigError,
    CountMismatch,
    GlueTooCoarse,
    ModeConditioning,
    NoConvergence,
    NotRadialFamily,
)
from rhsolve.pompeiu import AreaCharge
from rhsolve.newton import certify
from rhsolve.serialize import annulus_result_dict, certificate_dict, dump_json
from rhsolve.trig import TrigPolynomial

Q = 0.5


def scaled_circle(base, coeffs):
    # circle family with radius base * exp(trig(theta))
    a = TrigPolynomial(np.asarray(coeffs, dtype=float))
    return divisor_transform(builtin_circle_family(float(base)), lambda th: np.exp(-a(th)) + 0j)


@pytest.fixture(scope="module")
def unit_solution():
    fam = builtin_circle_family(1.0)
    return solve_annulus(fam, fam, (6, 6), Q, AnnulusSolveOptions())


@pytest.fixture(scope="module")
def power_solution():
    outer = builtin_circle_family(1.0)
    inner = builtin_circle_family(Q ** 8)
    return solve_annulus(outer, inner, (8, -8), Q, AnnulusSolveOptions())


# --------------------------------------------------------------------------
# Laurent calculus
# --------------------------------------------------------------------------


def test_laurent_modes_range():
    npt.assert_array_equal(laurent_modes(16), np.arange(-7, 8))


def test_laurent_roundtrip_traces():
    grid = BoundaryGrid(64)
    rng = np.random.default_rng(0)
    modes = laurent_modes(grid.n)
    c = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    # decay like a function bounded on the closed annulus
    c *= 0.8 ** np.abs(modes) * np.where(modes < 0, Q ** np.abs(modes), 1.0)
    outer, inner = laurent_traces(c, Q, grid.n)
    back = laurent_from_traces(grid, Q, outer, inner)
    npt.assert_allclose(back, c, rtol=1e-10, atol=1e-15)
    z = np.exp(1j * grid.theta)
    npt.assert_allclose(laurent_evaluate(c, z), outer, atol=1e-12)
    npt.assert_allclose(laurent_evaluate(c, Q * z), inner, atol=1e-12)


def test_laurent_reads_negative_modes_from_inner_circle():
    grid = BoundaryGrid(32)
    q = 0.1
    theta = grid.theta
    # f = z^-5: huge on the inner circle, O(1) coefficient recovered exactly
    outer = np.exp(-5j * theta)
    inner = q ** -5.0 * np.exp(-5j * theta)
    c = laurent_from_traces(grid, q, outer, inner)
    modes = laurent_modes(grid.n)
    expect = np.where(modes == -5, 1.0, 0.0)
    npt.assert_allclose(c, expect, atol=1e-10)


def test_laurent_evaluate_and_derivative_closed_form():
    # f = 3 z^2 + 2/z + 1
    c = np.array([0.0, 2.0, 1.0, 0.0, 3.0], dtype=complex)
    z = np.array([0.5 + 0.2j, -0.7j, 1.1, 0.9 * np.exp(0.4j)])
    npt.assert_allclose(laurent_evaluate(c, z), 3 * z ** 2 + 2 / z + 1, rtol=1e-14)
    value, slope = domains._LaurentSums(c)(z, slope=True)
    npt.assert_allclose(value, 3 * z ** 2 + 2 / z + 1, rtol=1e-14)
    npt.assert_allclose(slope, 6 * z - 2 / z ** 2, rtol=1e-13)


@given(
    data=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=30, max_size=30
    ),
    q=st.floats(min_value=0.25, max_value=0.75),
)
@settings(max_examples=20, deadline=None)
def test_laurent_eval_matches_mode_sum(data, q):
    vals = np.asarray(data)
    c = (vals[:15] + 1j * vals[15:]).astype(complex)
    modes = np.arange(-7, 8)
    c *= 0.7 ** np.abs(modes)
    z = np.sqrt(q) * np.exp(1j * np.linspace(0.1, 6.0, 9))
    direct = sum(c[k + 7] * z ** k for k in range(-7, 8))
    npt.assert_allclose(laurent_evaluate(c, z), direct, atol=1e-12)
    grid = BoundaryGrid(16)
    outer, inner = laurent_traces(c, q, grid.n)
    back = laurent_from_traces(grid, q, outer, inner)
    npt.assert_allclose(back, c, rtol=1e-9, atol=1e-12)


# --------------------------------------------------------------------------
# collar glue
# --------------------------------------------------------------------------


def test_glue_unit_circles_traces_are_symmetric_pair():
    fam = builtin_circle_family(1.0)
    (t0, t1), report = glue_construct(fam, fam, 6, Q)
    theta = t0.grid.theta
    npt.assert_allclose(
        t0.values, np.exp(6j * theta) + Q ** 6 * np.exp(-6j * theta), atol=5e-15
    )
    npt.assert_allclose(
        t1.values, np.exp(-6j * theta) + Q ** 6 * np.exp(6j * theta), atol=5e-15
    )
    assert report.sigma == 0


def test_glue_residual_oracle_and_decay():
    # cross terms leave |f|^2 - 1 = 2 q^n cos(2 n theta) + q^2n exactly
    fam = builtin_circle_family(1.0)
    ns = np.arange(4, 13)
    pre = []
    for n in ns:
        _, report = glue_construct(fam, fam, int(n), Q)
        pre.append(report.pre_newton_residual)
        npt.assert_allclose(report.pre_newton_residual, 2 * Q ** n + Q ** (2 * n), rtol=1e-10)
    slope, _ = np.polyfit(ns, np.log(pre), 1)
    fit = np.polyval(np.polyfit(ns, np.log(pre), 1), ns)
    ss_res = np.sum((np.log(pre) - fit) ** 2)
    ss_tot = np.sum((np.log(pre) - np.mean(np.log(pre))) ** 2)
    r_squared = 1.0 - ss_res / ss_tot
    assert slope <= np.log(Q ** (1 / 3)) + 0.1
    assert abs(slope - np.log(Q)) < 0.02
    assert r_squared >= 0.98


def test_glue_area_correction_small_on_boundary_circles(cutoff_dbar):
    # the area transform of a cutoff blend's dbar defect has only negative
    # modes on |z| = 1 and only nonnegative ones on |z| = q, so the Laurent
    # projection of the annulus right inverse cancels it to roundoff; for
    # large windings it is also O(q^n) on the circles. The band
    # q^{2/3} < |z| < q^{1/3} balances the two collar divisors
    lo, hi = Q ** (2 / 3), Q ** (1 / 3)
    rising = cutoff_dbar(lo, hi)
    grid = BoundaryGrid(256)
    circle = np.exp(1j * grid.theta)
    for n in (2, 20):
        charge = AreaCharge.from_function(
            lo, hi, grid, lambda z, n=n: rising(z) * (z ** n - (Q / z) ** n)
        )
        u0 = charge.evaluate(circle)
        u1 = charge.evaluate(Q * circle)
        sup = max(np.max(np.abs(u0)), np.max(np.abs(u1)))
        assert sup > 0.0
        assert np.max(np.abs(laurent_from_traces(grid, Q, u0, u1))) <= 1e-14 * sup
        if n == 20:
            assert sup < 1e-5


@pytest.mark.parametrize("windings, r1", [((8, -8), 1.2 * Q ** 8), ((6, 4), 1.0)], ids=["zero-free", "ten-zeros"])
def test_glue_iterate_is_the_hand_assembled_collar_pieces(monkeypatch, windings, r1):
    # the glued iterate read off the collar traces by laurent_from_traces
    # equals the pieces assembled mode by mode: modes 0..K of the outer
    # piece, and modes 1..K of the inner disc piece damped by q^k as modes
    # -1..-K; zero-free (m = 0) pieces first align the inner phase with the
    # outer one and share the averaged constant term. The disc solver fixes
    # each piece's phase, so the spy turns the inner one to make the
    # alignment show, and the inner radius sets the two constants apart
    pieces = []
    original = annulus.solve_disc

    def spy(*args, **kwargs):
        sol = original(*args, **kwargs)
        turn = np.exp(0.4j * len(pieces))
        pieces.append(dataclasses.replace(sol, f_trace=BoundaryTrace(sol.grid, turn * sol.f_trace.values)))
        return pieces[-1]

    monkeypatch.setattr(annulus, "solve_disc", spy)
    outer = scaled_circle(1.0, [0.0, 0.03, -0.02])
    inner = scaled_circle(r1, [0.0, 0.02, 0.01])
    coeffs, _, _ = annulus._glue_coefficients(outer, inner, windings, Q, AnnulusSolveOptions(grid_n=128))
    n = 128
    kmax = n // 2 - 1
    a = np.fft.fft(pieces[0].f_trace.values)[: kmax + 1] / n
    b = np.fft.fft(pieces[1].f_trace.values)[: kmax + 1] / n
    if sum(windings) == 0:
        b = b * np.exp(1j * (np.angle(a[0]) - np.angle(b[0])))
        a[0] = 0.5 * (a[0] + b[0])
    expect = np.concatenate([(b[1:] * Q ** np.arange(1.0, kmax + 1))[::-1], a])
    assert np.max(np.abs(coeffs - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_glue_rejects_coarse_windings():
    fam = builtin_circle_family(1.0)
    with pytest.raises(GlueTooCoarse):
        glue_construct(fam, fam, 1, Q)
    with pytest.raises(GlueTooCoarse):
        solve_annulus(fam, builtin_circle_family(0.4), (5, -3), 0.4)


def test_negative_zero_count_rejected():
    fam = builtin_circle_family(1.0)
    with pytest.raises(ConfigError):
        solve_annulus(fam, fam, (2, -5), Q)
    with pytest.raises(ConfigError):
        glue_construct(fam, fam, -2, Q)
    for q in (0.0, -0.5):
        with pytest.raises(ConfigError, match=r"must lie in \(0, 1\)"):
            solve_annulus(fam, fam, (6, 6), q)


def test_errors_name_the_coherent_windings():
    # the solver works in the disc convention internally; its messages must
    # echo the pair the caller passed
    fam = builtin_circle_family(1.0)
    with pytest.raises(ConfigError, match=r"got \(3, -5\)"):
        solve_annulus(fam, fam, (3, -5), Q)
    with pytest.raises(GlueTooCoarse, match=r"windings \(7, -7\)"):
        solve_annulus(fam, fam, (7, -7), Q)


# --------------------------------------------------------------------------
# full solves
# --------------------------------------------------------------------------


def test_unit_circles_solution_modulus_and_windings(unit_solution):
    sol = unit_solution
    assert sol.run.converged
    assert not sol.fallback_used
    assert sol.residual_sup < 1e-10
    npt.assert_allclose(np.abs(sol.outer_trace.values), 1.0, atol=1e-10)
    npt.assert_allclose(np.abs(sol.inner_trace.values), 1.0, atol=1e-10)
    assert winding_number(sol.outer_trace) == 6
    assert winding_number(sol.inner_trace) == -6


def test_unit_circles_zeros_on_middle_ring(unit_solution):
    zeros = unit_solution.zeros
    assert sum(z.multiplicity for z in zeros) == 12
    assert all(z.multiplicity == 1 for z in zeros)
    radii = np.array([abs(z.position) for z in zeros])
    npt.assert_allclose(radii, np.sqrt(Q), atol=1e-8)
    angles = np.sort(np.angle([z.position for z in zeros]))
    gaps = np.diff(angles)
    npt.assert_allclose(gaps, np.pi / 6, atol=1e-7)


def test_unit_circles_certificate_populated(unit_solution):
    cert = unit_solution.run.certificate
    assert cert is not None
    for value in (cert.omega1, cert.omega2, cert.omega3, cert.product):
        assert np.isfinite(value)
    assert unit_solution.glue.pre_newton_residual == pytest.approx(
        2 * Q ** 6 + Q ** 12, rel=1e-10
    )


def test_cauchy_extension_consistent_with_coefficients(unit_solution):
    sol = unit_solution
    probes = 0.8 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 17)[:-1])
    via_cauchy = cauchy_extend(
        (sol.outer_trace, sol.inner_trace), Annulus(Q), probes
    )
    via_coeffs = laurent_evaluate(sol.coefficients, probes)
    npt.assert_allclose(via_cauchy, via_coeffs, atol=1e-7)


def test_argument_principle_count(unit_solution, power_solution):
    for sol in (unit_solution, power_solution):
        counted = sum(z.multiplicity for z in sol.zeros)
        w0 = winding_number(sol.outer_trace)
        w1_coherent = -winding_number(sol.inner_trace)
        assert counted == w0 + w1_coherent


def test_pure_power_matches_radial_closed_form(power_solution):
    sol = power_solution
    assert sol.glue.sigma == 8
    assert sol.run.converged
    radial = solve_annulus_radial(
        builtin_circle_family(1.0), builtin_circle_family(Q ** 8), Q
    )
    for got, want in (
        (sol.outer_trace, radial.outer_trace),
        (sol.inner_trace, radial.inner_trace),
    ):
        aligned = gauge_align(got.values, want.values)
        assert np.max(np.abs(aligned - want.values)) < 1e-7


def test_transformed_circles_match_radial_closed_form():
    q = 0.4
    outer = scaled_circle(1.0, [0.0, 0.12, -0.05, 0.08, 0.02])
    inner = scaled_circle(q ** 3, [0.0, -0.08, 0.03, 0.0, 0.06])
    sol = solve_annulus(outer, inner, (3, -3), q)
    radial = solve_annulus_radial(outer, inner, q)
    assert radial.k1 == 3 and radial.zero is None
    aligned = gauge_align(sol.outer_trace.values, radial.outer_trace.values)
    assert np.max(np.abs(aligned - radial.outer_trace.values)) < 1e-7
    assert sol.residual_sup < 1e-10


def test_three_callable_family_runs_annulus_pipeline():
    # a family is rho, dbar_w and ray_radius; a hand-written circle family
    # must reproduce the builtin one through glue, Newton and zero location
    R0 = TrigPolynomial((1.0, 0.02, -0.01, 0.0, 0.015))
    R1 = TrigPolynomial((1.0, -0.01, 0.02))

    def bare(R):
        return CurveFamily(
            rho=lambda th, w: (w * np.conj(w)).real - R(th) ** 2,
            dbar_w=lambda th, w: np.asarray(w, dtype=complex),
            ray_radius=lambda th, psi: R(th) * np.ones_like(np.asarray(psi, dtype=float)),
        )

    opts = AnnulusSolveOptions(certify=False)
    got = solve_annulus(bare(R0), bare(R1), (4, 4), 0.5, opts)
    want = solve_annulus(builtin_circle_family(R0), builtin_circle_family(R1), (4, 4), 0.5, opts)
    npt.assert_allclose(got.outer_trace.values, want.outer_trace.values, rtol=0, atol=1e-13)
    npt.assert_allclose(got.inner_trace.values, want.inner_trace.values, rtol=0, atol=1e-13)
    assert sum(z.multiplicity for z in got.zeros) == 8


def _mixed_ellipse_circle(grid_n):
    # the README data at tol 5e-6, above the default
    ell = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    return solve_annulus(ell, builtin_circle_family(0.3), (6, 6), 0.4, AnnulusSolveOptions(grid_n=grid_n, tol=5e-6))


def test_mixed_ellipse_circle_on_256_points_stops_at_the_grid_floor():
    # after step 3 each step lowers the residual (5.35e-6, above tol 5e-6) by
    # less than 1e-6 of itself: Newton gives up there, not after 40 steps
    with pytest.raises(NoConvergence, match="residual stagnated at 5.351e-06") as info:
        _mixed_ellipse_circle(256)
    assert len(info.value.history) <= 5


@pytest.mark.xfail(raises=NoConvergence, strict=True)
def test_mixed_ellipse_circle_on_256_points_converges_to_grid_floor():
    # Newton stops at the floor of the nearest solution, 5.35e-6 against tol
    # 5e-6 on N = 256, where every border direction tried stops; refining the
    # grid once Newton stalls at its floor (ROADMAP item 4) is to flip it
    assert _mixed_ellipse_circle(256).run.converged


def test_mixed_ellipse_circle_converges_to_grid_floor():
    # the same data on N = 512, where the grid's truncation floor is below tol
    sol = _mixed_ellipse_circle(512)
    assert sol.run.converged
    assert sol.residual_sup < 5e-6
    assert sum(z.multiplicity for z in sol.zeros) == 12
    assert all(0.4 < abs(z.position) < 1.0 for z in sol.zeros)
    assert sol.run.certificate is not None


def test_right_inverse_runs_no_dense_linear_algebra(monkeypatch):
    # building and applying the annulus right inverse is FFTs and mode-wise
    # closed forms: no QR, no dense solve and no SVD, on data with zeros
    # (README, at the glued iterate) and zero-free data (criterion 8's circles)
    cases = (
        (builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15), builtin_circle_family(0.3), (6, 6), 0.4),
        (scaled_circle(1.0, [0.0, 0.06, -0.03]), scaled_circle(Q ** 8, [0.0, -0.04, 0.05]), (8, -8), Q),
    )
    for outer, inner, windings, q in cases:
        opts = AnnulusSolveOptions(grid_n=256)
        h0, _, families = annulus._glue_coefficients(outer, inner, windings, q, opts)
        problem = annulus._annulus_problem(families, q, BoundaryGrid(256))
        r = problem.residual(h0)
        with monkeypatch.context() as patch:
            for name in ("qr", "solve", "svd"):
                refuse = lambda *args, name=name, **kwargs: pytest.fail(f"np.linalg.{name} called")
                patch.setattr(np.linalg, name, refuse)
            step = problem.right_inverse(h0)(r)
        assert np.all(np.isfinite(step)) and step.shape == h0.shape


@pytest.mark.parametrize("phi", [0.0, 0.3])
def test_mode_solve_matches_dense_two_by_two_solves(phi):
    # each mode j >= 1 against numpy's solve of its 2x2 system for a_j and
    # b_j = conj(a_-j) q^-j, at q = 0.01 on 1024 points, where q^-511
    # overflows: the closed form keeps every power of q in a numerator and
    # warns of nothing (the suite turns warnings into errors)
    q, n = 0.01, 1024
    grid = BoundaryGrid(n)
    rng = np.random.default_rng(3)
    sigma = np.array([_band_limited_rows(grid, rng)[0][:n], np.cos(3 * grid.theta) + 0.2])
    sigma[1] += np.cos(phi) * np.mean(sigma[0]) - np.mean(sigma[1])  # the mode-0 condition
    m = annulus._mode_solve(q, phi, sigma)
    assert np.all(np.isfinite(m))
    spectra = np.fft.fft(m) / n
    s = np.fft.fft(sigma) / n
    turn = np.exp(1j * phi)
    for j in range(1, n // 2):
        qj = q ** float(j)
        a, b = np.linalg.solve(np.array([[1.0, qj], [turn * qj, 1.0 / turn]]), 2.0 * s[:, j])
        assert abs(spectra[0, j] - a) <= 1e-13 * (1.0 + abs(a)), j
        assert abs(spectra[1, -j] - np.conj(b)) <= 1e-13 * (1.0 + abs(b)), j
    # the traces meet both conditions, and mode 0 is real
    npt.assert_allclose(m[0].real, sigma[0], atol=1e-12)
    npt.assert_allclose((turn * m[1]).real, sigma[1], atol=1e-12)
    assert np.max(np.abs(spectra[:, 0].imag)) <= 1e-15 and spectra[0, 0] == pytest.approx(np.mean(sigma[0]))


def test_solves_run_without_svd(monkeypatch):
    # the annulus right inverse has no dense least-squares path: the README
    # case and criterion 8's zero-free circles converge with svd disabled,
    # certificates included
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    ell = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    readme = solve_annulus(
        ell, builtin_circle_family(0.3), (6, 6), 0.4, AnnulusSolveOptions(grid_n=512, tol=1e-9)
    )
    assert readme.run.converged and readme.residual_sup < 1e-9
    assert readme.run.iterations == 3 and not readme.run.damped
    assert readme.run.certificate is not None
    zero_free = solve_annulus(
        builtin_circle_family(1.0), builtin_circle_family(0.5 ** 8), (8, -8), 0.5
    )
    assert zero_free.run.converged and zero_free.residual_sup < 1e-14
    # a linearization that is not onto is recorded, not raised
    assert zero_free.run.certificate.identity_defect > 0.1
    assert readme.fallback_used is False and zero_free.fallback_used is False


def test_solve_certifies_the_converged_iterate_once_after_newton(monkeypatch):
    # one certificate, at run.x, with the solve's tolerance; a Newton
    # run that fails raises before anything is certified
    calls = []
    original_iterate, original_certify = annulus.iterate, annulus.certify
    monkeypatch.setattr(
        annulus, "iterate", lambda *args, **kwargs: calls.append(("iterate",)) or original_iterate(*args, **kwargs)
    )

    def spy(problem, x, options):
        cert = original_certify(problem, x, options)
        calls.append(("certify", x, options, cert))
        return cert

    monkeypatch.setattr(annulus, "certify", spy)
    wobbly = builtin_circle_family([1.0, 0.02, -0.01, 0.015, 0.01]), builtin_circle_family([1.0, -0.01, 0.02])
    options = AnnulusSolveOptions(tol=1e-11)
    sol = solve_annulus(*wobbly, (4, 4), 0.5, options)
    assert [call[0] for call in calls] == ["iterate", "certify"]
    _, x, certify_options, cert = calls[1]
    assert x is sol.run.x and sol.run.iterations > 0
    assert certify_options.tol == 1e-11
    assert sol.run.certificate is cert and cert.certified
    calls.clear()
    with pytest.raises(NoConvergence):
        solve_annulus(*wobbly, (4, 4), 0.5, AnnulusSolveOptions(max_iter=1))
    assert calls == [("iterate",)]


def _bench_annulus_cases():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = [case for seed in (1, 3, 7) for case in workloads.build("annulus-glued", seed)]
    return [
        (f"{case.name}-{i // 3}", case.inputs["outer"], case.inputs["inner"], tuple(case.spec["windings"]),
         case.spec["q"], AnnulusSolveOptions(grid_n=case.spec["grid"], tol=case.spec.get("tol", 1e-10)))
        for i, case in enumerate(cases)
    ]


@pytest.fixture(scope="module")
def certified_annulus_solves():
    """(name, solution, problem, families, q) for the seed-1/3/7 annulus-glued cases and unit circles (6, 6)."""
    unit = builtin_circle_family(1.0)
    solves = []
    for name, outer, inner, windings, q, opts in _bench_annulus_cases() + [
        ("unit-6-6", unit, unit, (6, 6), Q, AnnulusSolveOptions())
    ]:
        sol = solve_annulus(outer, inner, windings, q, opts)
        _, _, families = annulus._glue_coefficients(outer, inner, windings, q, opts)
        problem = annulus._annulus_problem(families, q, sol.grid)
        solves.append((name, sol, problem, families, q))
    return solves


def _row_norm(r):
    # the certificate's residual norm: the larger Wiener norm of the two rows
    n = r.shape[-1] // 2
    return np.maximum(wiener_norm(r[..., :n]), wiener_norm(r[..., n:]))


def _band_limited_rows(grid, rng):
    # residual probes with modes <= 32: random Gaussian rows, and single
    # cosine and sine modes 0, 1, 8 and 32 on either boundary
    modes = np.arange(33)
    cos, sin = np.cos(np.outer(modes, grid.theta)), np.sin(np.outer(modes, grid.theta))
    rows = [np.concatenate([rng.standard_normal(33) @ cos + rng.standard_normal(33) @ sin for _ in range(2)])
            for _ in range(6)]
    zero = np.zeros(grid.n)
    for k in (0, 1, 8, 32):
        for wave in (cos[k], sin[k]):
            if wave.any():
                rows += [np.concatenate([wave, zero]), np.concatenate([zero, wave])]
    return np.stack(rows)


def _steps_and_defects(name, sol, problem, families, q, rows):
    # per residual row at the converged iterate: the step B r, the defect
    # DA B r - r of the inverse's traces d (those of one holomorphic
    # function, before the Laurent projection) and the defect of the step
    # B r itself, both with the border's mu put back on the outer row of a
    # zero-free answer. Newton applies the same steps on data with zeros
    c, grid = sol.run.x, sol.grid
    fam0t, fam1t, units, _ = families
    traces = laurent_traces(c, q, grid.n)
    g = np.conj([fam0t.dbar_w(grid.theta, traces[0]), fam1t.dbar_w(grid.theta, traces[1])])
    inverse = annulus._inverse(families, q, grid, traces)
    steps, defects = [], []
    for row in rows:
        d, mu = annulus._apply(inverse, q, row)
        steps.append(laurent_from_traces(grid, q, *d))
        if "zerofree" not in name:
            assert np.array_equal(problem.right_inverse(c)(row), steps[-1]), name
        border = mu * np.concatenate([np.ones(grid.n), np.zeros(grid.n)]) if "zerofree" in name else 0.0
        defects.append([(2.0 * (g * d).real / units[:, None]).ravel() - row + border,
                        problem.derivative_action(c, steps[-1]) - row + border])
    return np.array(steps), np.array(defects)


def test_computed_collar_bounds_hold_on_band_limited_residuals(certified_annulus_solves):
    # at the converged iterate: the step B r stays within omega1 |r|, and
    # the inverse's defect within the identity defect times |r|, up to
    # rounding (1e-13 |r|), which the bounds do not see. The Laurent
    # projection adds the grid's truncation, which they do not see either:
    # on the README answer (N = 512) a mode-32 residual keeps 5e-8 of
    # itself, below the certificate's largest identity defect
    rng = np.random.default_rng(12)
    checked = 0
    for name, sol, problem, families, q in certified_annulus_solves:
        if "zerofree" in name:
            continue
        cert = sol.run.certificate
        assert cert.certified and cert.omega1 < 10.0, name
        rows = _band_limited_rows(sol.grid, rng)
        scale = _row_norm(rows)
        steps, defects = _steps_and_defects(name, sol, problem, families, q, rows)
        assert np.all(problem.iterate_norm(steps) <= cert.omega1 * scale), name
        inverse, projected = _row_norm(defects).T
        assert np.all(inverse <= (cert.identity_defect + 1e-13) * scale), name
        assert np.all(projected <= newton._CHECK_TOL * scale), name
        checked += 1
    assert checked == 7


def test_computed_omega2_bounds_the_derivative_on_random_pairs(certified_annulus_solves, annulus_iterate_sampler):
    # DA is affine in the traces, so its differences over any pair, taken
    # here on random pairs in the ball of radius 0.1 around the iterate
    rng = np.random.default_rng(13)
    for name, sol, problem, _, q in certified_annulus_solves:
        c, omega2 = sol.run.x, sol.run.certificate.omega2
        sample = annulus_iterate_sampler(sol.grid, q)
        for _ in range(6):
            du, dv, d = (sample(rng) for _ in range(3))
            du *= 0.1 * rng.uniform(0.1, 1.0) / problem.iterate_norm(du)
            dv *= 0.1 * rng.uniform(0.1, 1.0) / problem.iterate_norm(dv)
            diff = problem.derivative_action(c + du, d) - problem.derivative_action(c + dv, d)
            bound = omega2 * problem.iterate_norm(du - dv) * problem.iterate_norm(d)
            assert _row_norm(diff) <= bound * (1.0 + 1e-12), name


def test_zero_free_collar_has_no_contraction(certified_annulus_solves):
    # the zero-free linearization is not onto: the bordered inverse leaves
    # mu times a constant residual on the outer row, so omega1 and the
    # product are inf and the identity defect, which bounds DA B r - r on
    # band-limited residuals, is at least 1; result files say null rather
    # than Infinity
    rng = np.random.default_rng(14)
    zero_free = [entry for entry in certified_annulus_solves if "zerofree" in entry[0]]
    assert len(zero_free) == 3
    for name, sol, problem, families, q in zero_free:
        cert = sol.run.certificate
        assert cert.omega1 == cert.product == np.inf, name
        assert cert.identity_defect >= 1.0 and not cert.certified, name
        assert np.isfinite(cert.omega2), name
        # B r leaves the border's mu on the outer row (not put back here)
        rows = _band_limited_rows(sol.grid, rng)
        c, n = sol.run.x, sol.grid.n
        inverse = annulus._inverse(families, q, sol.grid, laurent_traces(c, q, n))
        for row, scale in zip(rows, _row_norm(rows)):
            step = laurent_from_traces(sol.grid, q, *annulus._apply(inverse, q, row)[0])
            assert _row_norm(problem.derivative_action(c, step) - row) <= cert.identity_defect * scale, name
        # the unit constant on the outer row is the border itself: B leaves all of it
        d, mu = annulus._apply(inverse, q, np.concatenate([np.ones(n), np.zeros(n)]))
        assert mu == pytest.approx(1.0, rel=1e-9) and np.max(np.abs(d)) < 1e-9, name
        block = certificate_dict(cert)
        assert block["omega1"] is None and block["product"] is None
        assert block["omega3"] == cert.omega3 and block["identity_defect"] == cert.identity_defect
        assert block["certified"] is False
        text = dump_json(block)
        assert '"product": null' in text and "Infinity" not in text
        assert dump_json(certificate_dict(certify(problem, sol.run.x))) == text


def test_border_is_the_half_count_monomial_or_a_vanishing_residual(certified_annulus_solves):
    # at the converged iterate: with m zeros the border direction is z^p,
    # p = +-m/2, scaled to unit size on the annulus; zero-free, the border
    # is a residual and its mu vanishes on the Newton residual there
    for name, sol, problem, families, q in certified_annulus_solves:
        c, n = sol.run.x, sol.grid.n
        inverse = annulus._inverse(families, q, sol.grid, laurent_traces(c, q, n))
        if "zerofree" in name:
            assert not inverse.delta.any()
            assert abs(annulus._apply(inverse, q, problem.residual(c))[1]) <= 1e-15, name
            continue
        modes = laurent_modes(n)
        p = modes[np.argmax(np.abs(np.fft.fft(inverse.delta[0]))[modes % n])]
        assert 2 * abs(p) == sum(z.multiplicity for z in sol.zeros), name
        npt.assert_allclose(np.abs(inverse.delta), [[min(1.0, q ** -p)], [min(1.0, q ** p)]] * np.ones(n), rtol=1e-12)


def test_right_inverse_is_linear_with_a_zero_step_for_a_zero_residual(band_limited_sampler):
    # no forcing target and no Krylov loop: the inverse is one linear map,
    # bitwise zero on a zero residual
    ell = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    wobbly = scaled_circle(1.0, [0.0, 0.02, -0.01]), scaled_circle(1.0, [0.0, -0.01, 0.02])
    for outer, inner, windings, q in ((ell, builtin_circle_family(0.3), (6, 6), 0.4), (*wobbly, (4, 4), Q)):
        opts = AnnulusSolveOptions(grid_n=128)
        h0, _, families = annulus._glue_coefficients(outer, inner, windings, q, opts)
        apply = annulus._annulus_problem(families, q, BoundaryGrid(128)).right_inverse(h0)
        zero = apply(np.zeros(256))
        assert zero.shape == h0.shape and not zero.any()
        r, s = _residual_probe(band_limited_sampler, 128, 1), _residual_probe(band_limited_sampler, 128, 2)
        npt.assert_allclose(apply(2.0 * r - 0.5 * s), 2.0 * apply(r) - 0.5 * apply(s), rtol=0, atol=1e-13)


def test_annulus_iterate_norm_is_the_larger_wiener_norm_of_the_two_traces(annulus_iterate_sampler):
    # for modes -K..K on N >= 2K + 2 points the Wiener norm of the outer trace
    # is sum |c_k| and of the inner one sum |c_k| q^k; at q = 0.01 and N = 1024
    # the inner trace is formed from logs, since q^-511 overflows
    rng = np.random.default_rng(8)
    for q, n in ((0.5, 256), (0.01, 1024)):
        iterate_sampler = annulus_iterate_sampler(BoundaryGrid(n), q)
        iterate_norm = annulus._iterate_norm(q, n)
        modes = laurent_modes(n)
        probes = np.stack([iterate_sampler(rng) for _ in range(3)])
        # the probes are windowed to |k| <= 8, where q^k is of ordinary size
        window = np.abs(modes) <= 8
        assert not probes[:, ~window].any()
        moduli = np.abs(probes[:, window])
        want = np.maximum(np.sum(moduli, axis=-1), np.sum(moduli * q ** modes[window].astype(float), axis=-1))
        got = iterate_norm(probes)
        assert got.shape == (3,) and np.all(np.isfinite(got))
        npt.assert_allclose(got, want, rtol=1e-13)
        npt.assert_allclose(iterate_norm(probes[0]), want[0], rtol=1e-13)


def _unwrapped_rows(monkeypatch):
    calls = []
    original = boundary._interval_increments

    def spy(values, spectrum):
        calls.append(values.copy())
        return original(values, spectrum)

    monkeypatch.setattr(boundary, "_interval_increments", spy)
    return calls


def assert_pair_unwrapped_once(calls, sol):
    # the phase core unwraps stacks of rows: each trace's values are one
    # row of exactly one call, and that call unwraps the pair
    for trace in (sol.outer_trace, sol.inner_trace):
        assert [len(rows) for rows in calls for row in rows if np.array_equal(row, trace.values)] == [2]


def test_solution_traces_are_unwrapped_once(monkeypatch):
    # the winding check, zero location, flux identity and result summary
    # share one phase unwrap of the pair of boundary traces
    calls = _unwrapped_rows(monkeypatch)
    fam = builtin_circle_family([1.0, 0.02, -0.01])
    sol = solve_annulus(fam, builtin_circle_family([0.5, 0.01]), (6, 6), Q, AnnulusSolveOptions(certify=False))
    check_identity(sol)
    annulus_result_dict(sol)
    assert_pair_unwrapped_once(calls, sol)


@pytest.mark.parametrize("exponent, zeros", [(0.4, 1), (1.0, 0)], ids=["one-zero", "zero-free"])
def test_radial_traces_are_unwrapped_once(exponent, zeros, monkeypatch):
    # with a zero, its certificate's count unwraps the pair and the identity
    # and the summary read its memos; without one, the identity unwraps it
    calls = _unwrapped_rows(monkeypatch)
    sol = solve_annulus_radial(
        scaled_circle(1.0, [0.0, 0.05, -0.02]), scaled_circle(Q ** exponent, [0.0, 0.0, 0.03]), Q, grid_n=128
    )
    assert len(sol.zeros) == zeros
    check_identity(sol)
    annulus_result_dict(sol)
    assert_pair_unwrapped_once(calls, sol)


def test_radial_answers_run_no_zero_search(tmp_path, monkeypatch):
    # the radial solve, the surjectivity demo and a CLI radial solve certify
    # the closed-form zero where it is: no moments, no pencil, no polish
    searches = ((annulus, "locate_zeros"), (domains, "locate_zeros"), (domains, "_moments"), (domains, "_polish"))
    for module, name in searches:
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    sol = solve_annulus_radial(builtin_circle_family(1.0), builtin_circle_family(Q ** 0.37), Q)
    assert [z.multiplicity for z in sol.zeros] == [1] and sol.zeros[0].position == sol.zero
    assert [case.zero_count for case in surjectivity_demo([0.0, 0.3, 0.9], Q)] == [0, 1, 1]
    circles = {name: {"type": "circle", "fourier": {"R": [r]}} for name, r in (("gamma0", 1.0), ("gamma1", Q ** 0.37))}
    config = tmp_path / "radial.json"
    config.write_text(json.dumps({"domain": {"type": "annulus", "q": Q}, "families": circles}))
    assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert [z["mult"] for z in json.loads((tmp_path / "out" / "result.json").read_text())["zeros"]] == [1]


@pytest.mark.parametrize("q, t", [(0.5, 0.05), (0.5, 0.95), (0.8, 0.15), (0.8, 0.85)])
def test_radial_zero_on_a_coarse_grid_certifies_with_an_honest_radius(q, t):
    # unit and q^t circles on 64 points: the zero sits 2 to 4 nodes' spacing
    # from a circle, |F(z1)| is 0.05 to 0.09 and the radius shows it
    sol = solve_annulus_radial(builtin_circle_family(1.0), builtin_circle_family(q ** t), q, grid_n=64)
    (zero,) = sol.zeros
    assert zero.position == sol.zero and 1e-3 < zero.radius < 0.5 * min(1.0 - abs(sol.zero), abs(sol.zero) - q)
    assert 0.04 < zero.residual < 0.1
    assert check_identity(sol).diff < 1e-2
    # Newton's method on the traces' series, from z1, ends at a zero inside the radius
    series = domains._LaurentSums(laurent_from_traces(sol.grid, q, sol.outer_trace.values, sol.inner_trace.values))
    w = sol.zero
    for _ in range(8):
        value, slope = series(w, slope=True)
        w = w - value / slope
    assert abs(series(w)) < 1e-14 and abs(w - sol.zero) <= zero.radius


def test_radial_zero_the_radii_polynomial_cannot_certify_raises():
    # t = 0.9 at q = 0.8 on 64 points: z1 = 0.818 lies 0.018 from the inner
    # circle, where |F(z1)| = 0.17 leaves no disc that Rouche's theorem covers
    message = r"no certified disc about 0.818052\+0j: \|F\(z\)\| = 0.168, \|F'\(z\)\| = 10.8, M = 294, rho_max = 0.00903"
    with pytest.raises(CountMismatch, match="radii polynomial leaves " + message):
        solve_annulus_radial(builtin_circle_family(1.0), builtin_circle_family(0.8 ** 0.9), 0.8, grid_n=64)


def _residual_probe(sampler, n, seed):
    # a band-limited residual probe on the annulus grid: one row per boundary
    probe = sampler(BoundaryGrid(n))
    rng = np.random.default_rng(seed)
    return np.concatenate([probe(rng), probe(rng)])


@given(
    case=st.sampled_from(
        [((8, -8), 0.5 ** 8), ((6, -6), 0.5 ** 6), ((6, 4), 1.0), ((4, 6), 1.0), ((5, 7), 0.7)]
    ),
    wobble=st.lists(st.floats(min_value=-0.05, max_value=0.05), min_size=4, max_size=4),
    probe_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 16)),
)
@settings(max_examples=25, deadline=None)
def test_right_inverse_meets_bound_or_raises(case, wobble, probe_seed, band_limited_sampler):
    # zero-free (m = 0) and mixed windings, on the Newton residual at the
    # glued iterate or on a random band-limited probe: every application
    # meets DA B r = r up to the grid's truncation or, zero-free, up to the
    # border's constant mu on the outer row, at most half the residual; or
    # it raises ModeConditioning
    windings, r1 = case
    opts = AnnulusSolveOptions(grid_n=64)
    h0, _, families = annulus._glue_coefficients(
        scaled_circle(1.0, [0.0, wobble[0], wobble[1]]),
        scaled_circle(r1, [0.0, wobble[2], wobble[3]]),
        windings,
        Q,
        opts,
    )
    problem = annulus._annulus_problem(families, Q, BoundaryGrid(64))
    if probe_seed is None:
        r = problem.residual(h0)
    else:
        r = _residual_probe(band_limited_sampler, 64, probe_seed)
    zero_free = sum(windings) == 0
    try:
        x = problem.right_inverse(h0)(r)
    except ModeConditioning as exc:
        # only a zero-free border can be left over
        assert zero_free and "off an integer" in str(exc)
        return
    defect = r - problem.derivative_action(h0, x)
    if zero_free:
        # the border leaves its mu on the outer row, at most half the residual
        mu = np.mean(defect[:64])
        assert abs(mu) <= 0.5 * np.max(np.abs(r))
        defect[:64] -= mu
        assert _row_norm(defect) <= 1e-12 * _row_norm(r) + 1e-15
    else:
        # the 64-point grid resolves the glued iterate's zeros to about 5e-3
        # of the residual
        assert _row_norm(defect) <= 2e-2 * _row_norm(r)


@pytest.mark.xfail(raises=NoConvergence, strict=True)
def test_unit_circles_at_q_0_7_converge_above_the_forcing_floor():
    # the last steps of unit circles (6, 6) at q = 0.7 stall at the grid's
    # floor, 1.316e-10 against tol 1e-10 on 256 points (on 512 points the
    # solve converges). Refining the grid once Newton stalls at its floor
    # (ROADMAP item 4) is to flip it
    unit = builtin_circle_family(1.0)
    sol = solve_annulus(unit, unit, (6, 6), 0.7, AnnulusSolveOptions())
    assert sol.run.converged


def _readme_solves_from_perturbed_glue(monkeypatch, grid_n):
    # the README case (N = grid_n, tol 1e-9, uncertified) from its glued
    # coefficients, each scaled by 1 + 1e-15 u with u uniform in [-1, 1],
    # for 8 seeded draws
    ell = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    glue = annulus._glue_coefficients
    for seed in range(8):
        rng = np.random.default_rng(seed)

        def perturbed(*args):
            h0, report, families = glue(*args)
            return h0 * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, h0.shape)), report, families

        monkeypatch.setattr(annulus, "_glue_coefficients", perturbed)
        options = AnnulusSolveOptions(grid_n=grid_n, tol=1e-9, certify=False)
        yield solve_annulus(ell, builtin_circle_family(0.3), (6, 6), 0.4, options)


def test_readme_case_converges_from_glue_perturbed_by_rounding(monkeypatch):
    # on N = 512 every 1e-15 perturbation of the glued coefficients
    # converges in 3 steps: the exact inverse's last step does not hinge on
    # the last bits of its iterate
    for sol in _readme_solves_from_perturbed_glue(monkeypatch, 512):
        assert sol.run.converged and sol.run.iterations == 3


def test_readme_case_on_twice_the_grid_converges_from_perturbed_glue(monkeypatch):
    # the same draws on N = 1024 all converge in 3 steps: the hazard is the
    # grid's resolution, not the glue
    for sol in _readme_solves_from_perturbed_glue(monkeypatch, 1024):
        assert sol.run.converged and sol.run.iterations == 3


def test_certificate_never_touches_the_newton_run():
    # certify reads run.x and changes nothing of the run it certifies
    ell = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    cases = (
        (ell, builtin_circle_family(0.3), (6, 6), 0.4, dict(grid_n=512, tol=1e-9)),
        (builtin_circle_family([1.0, 0.02, -0.01, 0.015]), builtin_circle_family([1.0, -0.01, 0.02]), (4, 4), Q, {}),
        (scaled_circle(1.0, [0.0, 0.06, -0.03]), scaled_circle(Q ** 8, [0.0, -0.04, 0.05]), (8, -8), Q, {}),
    )
    for outer, inner, windings, q, options in cases:
        runs = [
            solve_annulus(outer, inner, windings, q, AnnulusSolveOptions(certify=flag, **options)).run
            for flag in (True, False)
        ]
        assert runs[0].certificate is not None and runs[1].certificate is None
        assert runs[0].x.tobytes() == runs[1].x.tobytes()
        assert [value.hex() for value in runs[0].residual_norms] == [value.hex() for value in runs[1].residual_norms]
        assert (runs[0].iterations, runs[0].damped) == (runs[1].iterations, runs[1].damped)


# windings (w, w) on unit circles, the README pair and wobbly circles, q from
# 0.2 to 0.8, N = 256, tol 1e-9, no certificate: a subset of a 105-case sweep
# (q 0.2..0.8 by 0.1, w 2..10 by 2) holding every outcome it has
_SWEEP_FAMILIES = {
    "unit": lambda: (builtin_circle_family(1.0), builtin_circle_family(1.0)),
    "readme": lambda: (
        builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15),
        builtin_circle_family(0.3),
    ),
    "wobbly": lambda: (builtin_circle_family([1.0, 0.02, -0.01]), builtin_circle_family([1.0, -0.01, 0.02])),
}
_SWEEP = {
    "unit": {(0.2, 2): "ok", (0.2, 10): "ok", (0.5, 2): GlueTooCoarse, (0.5, 6): "ok", (0.7, 6): "ok",
             (0.8, 6): GlueTooCoarse, (0.8, 10): NoConvergence},
    "readme": {(0.2, 2): "ok", (0.2, 10): NoConvergence, (0.5, 2): GlueTooCoarse, (0.5, 6): NoConvergence,
               (0.8, 10): GlueTooCoarse},
    "wobbly": {(0.2, 6): "ok", (0.5, 2): GlueTooCoarse, (0.5, 10): "ok", (0.7, 6): "ok",
               (0.8, 8): NoConvergence},
}


@pytest.mark.parametrize(
    "data, q, w, outcome",
    [(data, q, w, outcome) for data, cases in _SWEEP.items() for (q, w), outcome in cases.items()],
)
def test_sweep_case_converges_or_names_its_cause(data, q, w, outcome):
    # a case converges below tol with its 2w zeros located, or raises the
    # typed error naming why it cannot: the glue is too coarse for the
    # modulus, or Newton stalls at the grid's truncation floor
    outer, inner = _SWEEP_FAMILIES[data]()
    opts = AnnulusSolveOptions(grid_n=256, tol=1e-9, certify=False)
    if outcome != "ok":
        with pytest.raises(outcome):
            solve_annulus(outer, inner, (w, w), q, opts)
        return
    sol = solve_annulus(outer, inner, (w, w), q, opts)
    assert sol.run.converged and sol.residual_sup < 1e-9
    assert sum(z.multiplicity for z in sol.zeros) == 2 * w


def test_zero_free_data_off_integer_flux_raises():
    # circles of radius 1 and q^flux: no zero-free solution with windings
    # (8, -8) exists unless the flux is 8, and the first Newton step's
    # border mu, the constant it leaves on the outer row, says so
    for flux, mu in ((7.5, 1.0), (7.99, 1.396e-2), (8.5, -0.5)):
        with pytest.raises(ModeConditioning, match="off an integer") as info:
            solve_annulus(builtin_circle_family(1.0), builtin_circle_family(0.5 ** flux), (8, -8), 0.5)
        assert float(str(info.value).split("mu = ")[1].split(" ")[0]) == pytest.approx(mu, rel=1e-3)


def test_readme_data_at_an_extreme_modulus_converges():
    # (N/2 - 1) |log q| = 615 at q = 0.3, N = 1024: the modulus guard this
    # once hit refused the case, which Newton solves in two steps
    outer, inner = _SWEEP_FAMILIES["readme"]()
    sol = solve_annulus(outer, inner, (8, 8), 0.3, AnnulusSolveOptions(grid_n=1024, tol=1e-9, certify=False))
    assert sol.run.converged and sol.residual_sup < 1e-9
    assert sum(z.multiplicity for z in sol.zeros) == 16
    assert check_identity(sol).diff < 1e-6


def test_moment_node_outside_the_annulus_raises_count_mismatch():
    # unit circles at q = 0.01 converge, but their moments give one 12-fold
    # node near z = 0, where summing the series' 1/z half would overflow
    fam = builtin_circle_family(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CountMismatch, match="outside the annulus"):
            solve_annulus(fam, fam, (6, 6), 0.01, AnnulusSolveOptions(grid_n=4096, certify=False))


# --------------------------------------------------------------------------
# harmonic extension and radial closed form
# --------------------------------------------------------------------------


def test_harmonic_extension_closed_form():
    grid = BoundaryGrid(128)
    q = 0.5

    def u(z):
        g = (1 + 2j) * z ** 3 + (0.3 - 0.1j) * z ** -2.0 + 0.7
        return 2.5 * np.log(np.abs(z)) + g.real

    circle = np.exp(1j * grid.theta)
    c_log, coeffs = harmonic_extend_annulus(grid, q, u(circle), u(q * circle))
    assert c_log == pytest.approx(2.5, abs=1e-12)
    probes = np.array([0.6, 0.8j, -0.55, 0.7 * np.exp(2.1j)])
    value = c_log * np.log(np.abs(probes)) + laurent_evaluate(coeffs, probes).real
    npt.assert_allclose(value, u(probes), atol=1e-11)


def test_harmonic_extension_mode_system_oracle():
    # data cos(theta) outer, 0 inner: g1 + g-1 = 1, g1 q + g-1/q = 0
    grid = BoundaryGrid(64)
    q = 0.5
    c_log, coeffs = harmonic_extend_annulus(
        grid, q, np.cos(grid.theta), np.zeros(grid.n)
    )
    k = grid.n // 2 - 1
    assert c_log == pytest.approx(0.0, abs=1e-14)
    assert coeffs[k + 1] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert coeffs[k - 1] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_harmonic_extension_inner_indicator_is_log_quotient():
    grid = BoundaryGrid(64)
    q = 0.5
    c_log, coeffs = harmonic_extend_annulus(grid, q, np.zeros(grid.n), np.ones(grid.n))
    assert c_log == pytest.approx(1.0 / np.log(q), rel=1e-13)
    probes = np.array([0.55, 0.7 * np.exp(1.2j), 0.95j])
    value = c_log * np.log(np.abs(probes)) + laurent_evaluate(coeffs, probes).real
    npt.assert_allclose(value, np.log(np.abs(probes)) / np.log(q), atol=1e-13)


def test_harmonic_extension_stable_at_extreme_modes():
    # naive mode solve would overflow q^-k at these depths
    grid = BoundaryGrid(1024)
    q = 0.04
    d0 = np.cos(grid.theta)
    d1 = np.sin(2 * grid.theta)
    c_log, coeffs = harmonic_extend_annulus(grid, q, d0, d1)
    assert np.all(np.isfinite(coeffs))
    circle = np.exp(1j * grid.theta)
    for z, d in ((circle, d0), (q * circle, d1)):
        value = c_log * np.log(np.abs(z)) + laurent_evaluate(coeffs, z).real
        npt.assert_allclose(value, d, atol=1e-10)


def test_laurent_traces_stable_at_extreme_modes():
    # q^-k overflows for the top negative modes of this grid, while the
    # inner-circle coefficients it multiplies stay of ordinary size
    grid = BoundaryGrid(1024)
    q = 0.04
    _, coeffs = harmonic_extend_annulus(grid, q, np.cos(grid.theta), np.sin(2 * grid.theta))
    outer, inner = laurent_traces(coeffs, q, grid.n)
    circle = np.exp(1j * grid.theta)
    npt.assert_allclose(outer, laurent_evaluate(coeffs, circle), atol=1e-12)
    npt.assert_allclose(inner, laurent_evaluate(coeffs, q * circle), atol=1e-12)
    # the radial solver evaluates its Laurent series the same way
    sol = solve_annulus_radial(
        scaled_circle(1.0, [0.0, 0.1, 0.0]), scaled_circle(q ** 2, [0.0, 0.0, 0.05]), q, grid_n=1024
    )
    assert sol.k1 == 2 and sol.zero is None
    assert sol.residual_sup < 1e-13


def fancy_index_laurent_traces(coeffs, q, n):
    # the mode placement by fancy indexing that laurent_traces replaced
    k = coeffs.shape[-1] // 2
    modes = np.arange(-k, k + 1)
    buf0 = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    buf1 = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    buf0[..., modes % n] = coeffs
    if -k * np.log(q) < 700.0:
        buf1[..., modes % n] = coeffs * q ** modes.astype(float)
    else:
        with np.errstate(divide="ignore"):
            log_c = np.log(coeffs.astype(complex))
        buf1[..., modes % n] = np.exp(log_c + modes * np.log(q))
    return np.fft.ifft(buf0) * n, np.fft.ifft(buf1) * n


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_collar_data_moves_are_bitwise_the_old_expressions():
    rng = np.random.default_rng(21)
    # stacked coefficients on their grid and prolonged to a finer one; q = 0.4
    # takes the direct powers, q = 0.01 at N = 1024 the log-space branch (its
    # negative modes underflow to subnormals and zeros)
    for q, n in ((0.4, 64), (0.01, 1024)):
        modes = laurent_modes(n)
        c = rng.standard_normal((2, 3, len(modes))) + 1j * rng.standard_normal((2, 3, len(modes)))
        c *= np.exp(np.abs(modes) * np.where(modes < 0, np.log(q), -0.05))
        for m in (n, 2 * n):
            for new, old in zip(laurent_traces(c, q, m), fancy_index_laurent_traces(c, q, m)):
                assert same_bits(new, old)
    # the pullback reindexing, on read-only traces and on stacks
    trace = BoundaryTrace(BoundaryGrid(64), rng.standard_normal(64) + 1j * rng.standard_normal(64)).values
    for values in (trace, rng.standard_normal((3, 64)), rng.standard_normal((2, 3, 64)) + 0j):
        assert same_bits(annulus._reindex(values), values[..., (-np.arange(64)) % 64])
    # the explicit right inverse with its two factors formed once per decomposition
    grid = BoundaryGrid(256)
    family = builtin_ellipse_family(2.0, 1.0, phi=[0.0, 0.3, 0.1])
    dec = eta_decompose(family, BoundaryTrace(grid, np.exp(1j * grid.theta)))
    a = np.log(np.abs(dec.eta.values))
    b = boundary._unwrapped_phases(dec.eta.values[None], dec.eta._increments[None])[0]
    b_tilde = conjugate_samples(grid, b)
    for rhs in (rng.standard_normal(256), rng.standard_normal((4, 256))):
        phi = np.exp(-a - b_tilde) * rhs
        old = 0.5 * np.exp(b_tilde - 1j * b) * (phi + 1j * conjugate_samples(grid, phi))
        assert same_bits(right_inverse_apply(dec, rhs), old)


def test_radial_integer_flux_is_pure_power():
    sol = solve_annulus_radial(
        builtin_circle_family(1.0), builtin_circle_family(0.5), 0.5
    )
    assert sol.k1 == 1
    assert sol.zero is None
    assert check_identity(sol).lhs == pytest.approx(1.0, abs=1e-13)
    assert sol.modulus_error < 1e-13
    theta = sol.grid.theta
    aligned = gauge_align(sol.outer_trace.values, np.exp(1j * theta))
    npt.assert_allclose(aligned, np.exp(1j * theta), atol=1e-12)


def test_radial_half_flux_places_zero_on_real_axis():
    q = 0.5
    sol = solve_annulus_radial(
        builtin_circle_family(1.0), builtin_circle_family(np.sqrt(q)), q
    )
    assert sol.k1 == 0
    assert sol.zero == pytest.approx(2.0 ** -0.5, abs=1e-14)
    assert sol.modulus_error < 1e-8
    assert len(sol.zeros) == 1
    assert sol.zeros[0].position == pytest.approx(2.0 ** -0.5, abs=1e-8)


def test_radial_zero_phase_is_prescribed():
    q = 0.5
    sol = solve_annulus_radial(
        builtin_circle_family(1.0),
        builtin_circle_family(q ** 0.37),
        q,
        zero_phase=1.3,
    )
    assert np.angle(sol.zero) == pytest.approx(1.3, abs=1e-14)
    assert abs(sol.zero) == pytest.approx(q ** 0.37, abs=1e-14)
    assert sol.modulus_error < 1e-9


def test_radial_transformed_profiles_reach_machine_accuracy():
    q = 0.5
    outer = scaled_circle(1.0, [0.0, 0.12, -0.05, 0.08, 0.02])
    inner = scaled_circle(q ** 2, [0.0, -0.08, 0.03, 0.0, 0.06])
    sol = solve_annulus_radial(outer, inner, q)
    assert sol.k1 == 2
    assert sol.zero is None
    assert check_identity(sol).lhs == pytest.approx(2.0, abs=1e-12)
    assert sol.modulus_error < 1e-10


def test_evaluate_matches_cauchy_extension_of_the_traces(unit_solution):
    # evaluate(points) sums the solution's series; the Cauchy integral of
    # its boundary traces is the independent reference at interior points
    radial = solve_annulus_radial(builtin_circle_family(1.0), builtin_circle_family(Q ** 0.37), Q)
    assert radial.zero is not None
    angles = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    points = np.array([0.6, 0.7, 0.8])[:, None] * np.exp(1j * angles)
    for sol in (unit_solution, radial):
        reference = cauchy_extend((sol.outer_trace, sol.inner_trace), Annulus(sol.q), points)
        npt.assert_allclose(sol.evaluate(points), reference, rtol=0, atol=1e-10)
    # the radial product form vanishes at its zero, and the search on its
    # traces finds that zero within the certified radius
    assert radial.evaluate(radial.zero) == 0.0
    (certified,), (found,) = radial.zeros, locate_zeros((radial.outer_trace, radial.inner_trace), Annulus(Q))
    assert abs(found.position - certified.position) <= certified.radius < 1e-12


def test_radial_requires_centered_circles():
    ell = builtin_ellipse_family(1.0, 0.8)
    with pytest.raises(NotRadialFamily):
        solve_annulus_radial(ell, builtin_circle_family(0.4), 0.4)


def test_pullback_family_reverses_parameter():
    fam = scaled_circle(1.0, [0.0, 0.3, 0.0, 0.0, 0.1])
    pulled = pullback_family(fam)
    theta = np.linspace(0.0, 2 * np.pi, 11)
    npt.assert_allclose(
        pulled.radial_profile(theta), fam.radial_profile(-theta), rtol=1e-14
    )
    w = 0.9 * np.exp(1j * theta)
    npt.assert_allclose(pulled.rho(theta, w), fam.rho(-theta, w), rtol=1e-14)
    npt.assert_allclose(pulled.dbar_w(theta, w), fam.dbar_w(-theta, w), rtol=1e-14)


@pytest.mark.parametrize(
    "family",
    [scaled_circle(1.0, [0.0, 0.3, 0.0, 0.0, 0.1]), builtin_ellipse_family([1.0, 0.1], [0.8, 0.0, 0.05], [0.2, 0.1])],
    ids=["scaled", "ellipse"],
)
def test_bound_pullback_equals_pullback_bitwise(family):
    # the pullback binds its parent at -theta
    grid = BoundaryGrid(64)
    pulled = pullback_family(family)
    bound = on_grid(pulled, grid.theta)
    assert bound is not pulled
    rng = np.random.default_rng(2)
    for theta in (grid.theta, rng.uniform(0.0, 2.0 * np.pi, 64)):
        w = 0.9 * np.exp(1j * (theta + rng.uniform(0.0, 0.3, 64)))
        assert np.array_equal(bound.rho(theta, w), pulled.rho(theta, w))
        assert np.array_equal(bound.dbar_w(theta, w), pulled.dbar_w(theta, w))
        assert np.array_equal(bound.ray_radius(theta, theta), pulled.ray_radius(theta, theta))
        if pulled.radial_profile is not None:
            assert np.array_equal(bound.radial_profile(theta), pulled.radial_profile(theta))


def test_solve_binds_the_inner_pullback_once(monkeypatch):
    # the README annulus: the glue binds the pulled-back inner circle once,
    # at -theta, and the Newton problem reuses it, so each of its two
    # profiles R and c is evaluated there once per solve
    theta = BoundaryGrid(512).theta
    reversed_calls = []
    original = TrigPolynomial.__call__

    def spy(self, th):
        if np.shape(th) == theta.shape and np.array_equal(th, -theta):
            reversed_calls.append(self)
        return original(self, th)

    monkeypatch.setattr(TrigPolynomial, "__call__", spy)
    outer = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    options = AnnulusSolveOptions(grid_n=512, tol=1e-9, certify=False)
    sol = solve_annulus(outer, builtin_circle_family(0.3), (6, 6), 0.4, options)
    assert sol.run.converged
    assert len(reversed_calls) == 2


def test_solve_scales_each_family_once(monkeypatch):
    # the README annulus: the glue scales the twisted pair and hands the
    # units to the Newton problem, and the final residuals scale the
    # prescribed pair, so each of the four families is scaled once
    scaled = []
    original = annulus._rho_scale

    def spy(family, theta):
        scaled.append(family)
        return original(family, theta)

    monkeypatch.setattr(annulus, "_rho_scale", spy)
    outer = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
    options = AnnulusSolveOptions(grid_n=512, tol=1e-9, certify=False)
    sol = solve_annulus(outer, builtin_circle_family(0.3), (6, 6), 0.4, options)
    assert sol.run.converged
    assert len(scaled) == 4
    assert len({id(family) for family in scaled}) == 4
