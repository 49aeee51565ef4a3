"""Disc solver: closed forms, right inverse, homotopy, computed certificate."""

import importlib.util
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import disc
from rhsolve.boundary import (
    BoundaryGrid,
    BoundaryTrace,
    _refined_samples,
    coefficient_modes,
    trig_coefficients,
    winding_number,
)
from rhsolve.curves import (
    CurveFamily,
    builtin_circle_family,
    builtin_ellipse_family,
    eta_decompose,
    monomial_transform,
    on_grid,
)
from rhsolve.newton import _BALL_RADIUS, CertifyOptions, certify
from rhsolve.disc import (
    DiscSolveOptions,
    gauge_align,
    right_inverse_apply,
    solve_disc,
    solve_disc_circle_closed_form,
)

FAST = DiscSolveOptions(certify=False)


def exp_radius_family():
    # radial family |w| = exp(cos theta), not a trig polynomial radius
    R = lambda th: np.exp(np.cos(th))
    return CurveFamily(
        rho=lambda th, w: (w * np.conj(w)).real - R(th) ** 2,
        dbar_w=lambda th, w: np.asarray(w, dtype=complex),
        ray_radius=lambda th, psi: R(th) * np.ones_like(np.asarray(psi, dtype=float)),
        radial_profile=R,
    )


def test_circle_closed_form_is_fixed_point():
    R = [1.2, 0.3, 0.0, 0.0, -0.1]
    sol = solve_disc(builtin_circle_family(R), 1, FAST)
    closed = solve_disc_circle_closed_form(R, 1)
    assert sol.run.iterations == 0
    assert sol.residual_sup < 1e-13
    npt.assert_allclose(sol.f_trace.values, closed.f_trace.values, atol=1e-13)


def test_unit_circle_gives_pure_power():
    sol = solve_disc(builtin_circle_family(1.0), 2, FAST)
    npt.assert_allclose(sol.f_trace.values, np.exp(2j * sol.grid.theta), atol=1e-13)


def test_exp_radius_gives_z_exp_z():
    # |f| = exp(cos theta) with winding 1 is solved by f(z) = z exp(z)
    sol = solve_disc(exp_radius_family(), 1, FAST)
    z = np.exp(1j * sol.grid.theta)
    npt.assert_allclose(sol.f_trace.values, z * np.exp(z), atol=1e-12)
    assert sol.residual_sup < 1e-12


def test_ellipse_solve_properties():
    # the aspect-2 solution's modes decay slowly (~1.05^-k), so it needs
    # N=1024 to push the tail below the tolerances asserted here
    fam = builtin_ellipse_family(2.0, 1.0)
    sol = solve_disc(fam, 1, DiscSolveOptions(grid_n=1024, certify=False))
    assert sol.residual_sup < 1e-9
    assert winding_number(sol.f_trace) == 1
    # boundary values sit on the curves
    npt.assert_allclose(fam.rho(sol.grid.theta, sol.f_trace.values), 0.0, atol=1e-9)
    # holomorphy: negative trig modes of the trace are truncation-level
    c = trig_coefficients(sol.f_trace)
    k = coefficient_modes(sol.grid)
    assert np.max(np.abs(c[k < 0])) < 1e-9


def test_solutions_are_deterministic():
    fam = builtin_ellipse_family([2.0, 0.2, 0.0], 1.0)
    a = solve_disc(fam, 2, FAST)
    b = solve_disc(fam, 2, FAST)
    assert np.array_equal(a.f_trace.values, b.f_trace.values)
    assert a.run.residual_norms == b.run.residual_norms


def test_negative_winding_rejected():
    with pytest.raises(ValueError):
        solve_disc(builtin_circle_family(1.0), -1)


def test_closed_form_rejects_negative_winding_as_solve_disc_does():
    # a circle trace of winding -2 meets |f| = 1 to rounding, but no
    # holomorphic f has it: the closed form refuses it with the solver's error
    message = "a holomorphic solution cannot have negative boundary winding"
    with pytest.raises(ValueError, match=message):
        solve_disc(builtin_circle_family(1.0), -2)
    with pytest.raises(ValueError, match=message):
        solve_disc_circle_closed_form(1.0, -2)


# ------------------------------------------------------------- linear algebra


def test_right_inverse_solves_linear_equation():
    fam = builtin_ellipse_family(2.0, 1.0, phi=[0.0, 0.2, 0.0])
    grid = BoundaryGrid(256)
    trace = BoundaryTrace(grid, np.exp(1j * grid.theta))
    dec = eta_decompose(fam, trace)
    rng = np.random.default_rng(3)
    theta = grid.theta
    for _ in range(5):
        rhs = rng.standard_normal()
        for m in range(1, 9):
            rhs = rhs + rng.standard_normal() * np.cos(m * theta) + rng.standard_normal() * np.sin(m * theta)
        k = right_inverse_apply(dec, rhs)
        npt.assert_allclose(2.0 * (dec.eta.values * k).real, rhs, atol=1e-10)
        # k stays in the holomorphic class
        c = trig_coefficients(BoundaryTrace(grid, k))
        modes = coefficient_modes(grid)
        assert np.max(np.abs(c[modes < 0])) < 1e-10


def test_homotopy_rescues_tight_budget(monkeypatch):
    # the direct run cannot converge in 7 iterations, so the homotopy
    # fallback runs, and it can
    fam = builtin_ellipse_family([3.0, 0.4, 0.0], [1.0, 0.0, 0.2], phi=[0.0, 0.5, 0.0])
    original = disc._homotopy_run
    runs = []

    def homotopy_run(*args):
        runs.append(original(*args))
        return runs[-1]

    monkeypatch.setattr(disc, "_homotopy_run", homotopy_run)
    rescued = solve_disc(fam, 3, DiscSolveOptions(max_iter=7, certify=False))
    assert len(runs) == 1 and rescued.run is runs[0]
    assert rescued.residual_sup < 1e-10
    assert winding_number(rescued.f_trace) == 3


def test_gauge_align():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    rotated = ref * np.exp(0.77j)
    npt.assert_allclose(gauge_align(rotated, ref), ref, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    st.floats(1.0, 2.0),
    st.floats(-0.2, 0.2),
    st.floats(-0.2, 0.2),
    st.integers(0, 3),
)
def test_circle_families_solved_exactly(c0, a1, b2, n):
    R = [c0, a1, 0.0, 0.0, b2]
    sol = solve_disc(builtin_circle_family(R), n, FAST)
    assert sol.run.iterations == 0
    assert sol.residual_sup < 1e-12
    # |f| on the boundary equals R
    profile = np.abs(sol.f_trace.values)
    theta = sol.grid.theta
    expected = c0 + a1 * np.cos(theta) + b2 * np.sin(2 * theta)
    npt.assert_allclose(profile, expected, atol=1e-12)


# --------------------------------------------------------------------------
# the certificate at the converged iterate, from computed Wiener-norm bounds
# --------------------------------------------------------------------------


def wiener(values):
    """||u||_A = sum_k |u_k| of the grid interpolant, one value per row."""
    values = np.asarray(values)
    return np.sum(np.abs(np.fft.fft(values, axis=-1)), axis=-1) / values.shape[-1]


def _bench_disc_cases():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [case for seed in (1, 3, 7) for case in workloads.build("disc-certified", seed)]


@pytest.fixture(scope="module")
def bench_disc_solves():
    """(case, certified solution, g-space problem) for the 18 seed-1/3/7 disc-certified cases."""
    solves = []
    for case in _bench_disc_cases():
        family, winding, grid = case.inputs["family"], case.spec["winding"], BoundaryGrid(case.spec["grid"])
        sol = solve_disc(family, winding, DiscSolveOptions(grid_n=grid.n))
        fam_t = on_grid(monomial_transform(family, winding), grid.theta)
        solves.append((case, sol, disc._g_space_problem(fam_t, grid)))
    return solves


def test_computed_omega1_bounds_the_right_inverse(bench_disc_solves, band_limited_sampler):
    rng = np.random.default_rng(5)
    for case, sol, problem in bench_disc_solves:
        probe = band_limited_sampler(sol.grid)
        residuals = np.stack([probe(rng) for _ in range(8)] + [rng.standard_normal(sol.grid.n)])
        steps = problem.right_inverse(sol.run.x)(residuals)
        ratios = wiener(steps) / wiener(residuals)
        assert np.all(ratios <= sol.run.certificate.omega1 * (1.0 + 1e-12)), case.name


def test_computed_omega2_bounds_the_derivative_on_the_ball(bench_disc_solves, band_limited_sampler):
    # random pairs inside the A-ball around the iterate, and the pair of real
    # constant shifts +-R, along which |h|^2 and h^2 grow fastest
    rng = np.random.default_rng(6)
    for case, sol, problem in bench_disc_solves:
        n, g = sol.grid.n, sol.run.x
        probe = band_limited_sampler(sol.grid)
        shifts = [(np.full(n, _BALL_RADIUS), np.full(n, -_BALL_RADIUS), np.ones(n))]
        for _ in range(6):
            du, dv = (probe(rng) + 1j * probe(rng) for _ in range(2))
            du *= _BALL_RADIUS * rng.uniform(0.1, 1.0) / wiener(du)
            dv *= _BALL_RADIUS * rng.uniform(0.1, 1.0) / wiener(dv)
            shifts.append((du, dv, probe(rng) + 1j * rng.standard_normal(n)))
        omega2 = sol.run.certificate.omega2
        for du, dv, d in shifts:
            diff = problem.derivative_action(g + du, d) - problem.derivative_action(g + dv, d)
            assert wiener(diff) <= omega2 * wiener(du - dv) * wiener(d) * (1.0 + 1e-12), case.name


def test_certified_bench_disc_answers_hold_between_the_nodes(bench_disc_solves):
    # omega3 measures the residual on twice the grid, so an answer that is
    # right only at the nodes is not certified; the identity defect is
    # rounding on every case
    certified = 0
    for case, sol, _ in bench_disc_solves:
        cert = sol.run.certificate
        assert cert.identity_defect < 1e-12, case.name
        n = 4 * sol.grid.n
        theta = 2.0 * np.pi * np.arange(n) / n
        f = np.exp(1j * case.spec["winding"] * theta) * np.exp(_refined_samples(sol.run.x, 4))
        between = np.max(np.abs(case.inputs["family"].rho(theta, f)))
        if cert.certified:
            certified += 1
            assert between < 1e-9, case.name
        else:
            # the others miss 1e-9 between the nodes, by about omega3
            assert between > max(1e-9, 1e-3 * cert.omega3), case.name
    assert certified == 9


def test_winding_three_ellipse_right_only_at_the_nodes_is_not_certified():
    # acceptance criterion 4's third case: below 1e-12 at the nodes, 2.5e-3 between them
    fam = builtin_ellipse_family([2.4, 0.2, 0.1], [1.0, 0.0, 0.1], phi=[0.0, 0.3, 0.0])
    sol = solve_disc(fam, 3, DiscSolveOptions(grid_n=1024, tol=1e-12, max_iter=15))
    cert = sol.run.certificate
    assert sol.residual_sup < 1e-12
    assert cert.omega3 > 1e-3 and cert.product > 1.0
    assert not cert.certified


def test_homotopy_rescued_solve_is_certified_at_its_answer(monkeypatch):
    fam = builtin_ellipse_family([3.0, 0.4, 0.0], [1.0, 0.0, 0.2], phi=[0.0, 0.5, 0.0])
    rescued = []
    original = disc._homotopy_run
    monkeypatch.setattr(disc, "_homotopy_run", lambda *args: rescued.append(1) or original(*args))
    sol = solve_disc(fam, 3, DiscSolveOptions(max_iter=7))
    assert rescued == [1]
    cert = sol.run.certificate
    grid = sol.grid
    problem = disc._g_space_problem(monomial_transform(fam, 3), grid)
    assert cert == certify(problem, sol.run.x, CertifyOptions(tol=DiscSolveOptions().tol))
    assert np.isfinite([cert.omega1, cert.omega2, cert.omega3]).all()


def test_family_with_non_affine_dbar_gets_no_contraction_bound():
    # |w|^4 = R^4: d rho / d w-bar = 2 w^2 conj(w) is not affine in (w, w-bar)
    R = 1.5
    family = CurveFamily(
        rho=lambda th, w: np.abs(w) ** 4 - R**4,
        dbar_w=lambda th, w: 2.0 * np.asarray(w, dtype=complex) ** 2 * np.conj(w),
        ray_radius=lambda th, psi: R * np.ones_like(np.asarray(psi, dtype=float)),
    )
    sol = solve_disc(family, 1, DiscSolveOptions(grid_n=64))
    cert = sol.run.certificate
    assert sol.residual_sup < 1e-12 and cert.omega3 < 1e-12
    assert cert.omega2 == cert.product == np.inf
    assert not cert.certified
