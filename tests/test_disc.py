"""Disc solver: closed forms, right inverse, homotopy."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import disc
from rhsolve.boundary import (
    BoundaryGrid,
    BoundaryTrace,
    coefficient_modes,
    trig_coefficients,
    winding_number,
)
from rhsolve.curves import CurveFamily, builtin_circle_family, builtin_ellipse_family, eta_decompose
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


def test_repeat_certified_solve_skips_the_residual_probe_scan(monkeypatch, fresh_probe_memo):
    # the residual probes' norms are memoized with the probes, so a repeat
    # certified solve on the grid scans only the steps, the identity check,
    # omega2 and omega3, and gives the same certificate and answer
    calls = []
    original = disc.holder_norms
    monkeypatch.setattr(disc, "holder_norms", lambda *a, **k: calls.append(1) or original(*a, **k))
    fam = builtin_ellipse_family([2.0, 0.15, -0.1], [1.0, 0.04, 0.03])
    first = solve_disc(fam, 1)
    assert len(calls) == 5
    again = solve_disc(fam, 1)
    assert len(calls) == 9
    assert again.run.certificate == first.run.certificate
    assert np.array_equal(again.g_values, first.g_values)


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
