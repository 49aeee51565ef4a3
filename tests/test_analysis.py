"""Flux identity, harmonic measures, surjectivity demo, zero selection."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from rhsolve.analysis import (
    check_identity,
    harmonic_measure,
    minimal_zero_selector,
    surjectivity_demo,
)
from rhsolve.annulus import AnnulusSolveOptions, solve_annulus, solve_annulus_radial
from rhsolve.curves import builtin_circle_family, divisor_transform
from rhsolve.domains import harmonic_extend_annulus
from rhsolve.errors import ConfigError
from rhsolve.trig import TrigPolynomial


def scaled_circle(base, coeffs):
    a = TrigPolynomial(np.asarray(coeffs, dtype=float))
    ap = a.derivative()
    return divisor_transform(
        builtin_circle_family(float(base)),
        lambda th: np.exp(-a(th)) + 0j,
        lambda th: -ap(th) * np.exp(-a(th)) + 0j,
    )


def random_zero_mean_trig(rng, degree=4, size=0.12):
    coeffs = np.zeros(2 * degree + 1)
    coeffs[1:] = size * rng.standard_normal(2 * degree) / np.arange(1, 2 * degree + 1)
    return coeffs


# --------------------------------------------------------------------------
# harmonic measure and zero selection
# --------------------------------------------------------------------------


def test_harmonic_measure_boundary_values():
    q = 0.5
    h1 = harmonic_measure(q)
    npt.assert_allclose(h1(np.array([q, 1.0])), [1.0, 0.0], atol=1e-14)
    assert h1(np.sqrt(q)) == pytest.approx(0.5, abs=1e-14)


def test_harmonic_measure_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        harmonic_measure(1.5)
    with pytest.raises(ConfigError):
        harmonic_measure(0.5)(0.0)


def test_minimal_zero_selector_cases():
    assert minimal_zero_selector(2.0) == (2, None)
    k1, t = minimal_zero_selector(0.5)
    assert k1 == 0 and t == pytest.approx(0.5)
    k1, t = minimal_zero_selector(-0.25)
    assert k1 == -1 and t == pytest.approx(0.75)


def test_minimal_zero_selector_snaps_near_integers():
    assert minimal_zero_selector(1.0 - 1e-13) == (1, None)
    assert minimal_zero_selector(3.0 + 1e-13) == (3, None)
    k1, t = minimal_zero_selector(0.999999)
    assert k1 == 0 and t == pytest.approx(0.999999)


# --------------------------------------------------------------------------
# identity check
# --------------------------------------------------------------------------


def test_identity_on_radial_solution_both_data_paths():
    # the flux check_identity reads off the traces matches the one the
    # radial solver took from the prescribed profiles
    q = 0.5
    outer = scaled_circle(1.0, [0.0, 0.12, -0.05, 0.08, 0.02])
    inner = scaled_circle(q ** 0.37, [0.0, -0.08, 0.03, 0.0, 0.06])
    sol = solve_annulus_radial(outer, inner, q)
    report = check_identity(sol)
    assert report.diff < 1e-10
    assert report.k1 == 0
    assert len(report.zeros_used) == 1
    assert report.h1_values[0] == pytest.approx(0.37, abs=1e-8)
    assert report.lhs == pytest.approx(0.37, abs=1e-10)
    theta = sol.grid.theta
    profiles = (np.log(family.radial_profile(theta)) for family in (outer, inner))
    prescribed, _ = harmonic_extend_annulus(sol.grid, q, *profiles)
    assert report.lhs == pytest.approx(prescribed, abs=1e-10)


def test_identity_on_glued_many_zero_solution():
    fam = builtin_circle_family(1.0)
    sol = solve_annulus(fam, fam, (6, 6), 0.5, AnnulusSolveOptions())
    report = check_identity(sol)
    # twelve zeros at the middle ring balance the winding debt exactly
    assert report.k1 == -6
    assert len(report.zeros_used) == 12
    npt.assert_allclose(report.h1_values, 0.5, atol=1e-7)
    assert report.lhs == pytest.approx(0.0, abs=1e-10)
    assert report.diff < 1e-6


def test_identity_requires_located_zeros():
    q = 0.5
    sol = solve_annulus_radial(
        builtin_circle_family(1.0),
        builtin_circle_family(q ** 0.5),
        q,
    )
    sol = dataclasses.replace(sol, zeros=())
    with pytest.raises(ConfigError):
        check_identity(sol)


def test_identity_random_radial_pairs():
    rng = np.random.default_rng(7)
    for q in (0.25, 0.5):
        for _ in range(10):
            # fractional parts stay off the circles so the fixed grid
            # resolves log|z - z1|; integer fluxes exercise the no-zero path
            base = int(rng.integers(-1, 2))
            exponent = base + (0.0 if rng.random() < 0.25 else rng.uniform(0.1, 0.9))
            outer = scaled_circle(1.0, random_zero_mean_trig(rng))
            inner = scaled_circle(q ** exponent, random_zero_mean_trig(rng))
            sol = solve_annulus_radial(outer, inner, q, grid_n=512)
            report = check_identity(sol)
            assert report.diff < 1e-6
            assert sol.modulus_error < 1e-8
            k1, t = minimal_zero_selector(exponent)
            assert report.k1 == k1
            if t is None:
                assert not report.zeros_used
            else:
                assert abs(sol.zeros[0].position) == pytest.approx(q ** t, abs=1e-8)


# --------------------------------------------------------------------------
# surjectivity demonstration
# --------------------------------------------------------------------------


def test_surjectivity_targets_realized():
    targets = [i / 10 for i in range(10)]
    cases = surjectivity_demo(targets, 0.5)
    assert len(cases) == 10
    for case in cases:
        assert case.deviation < 1e-6
        assert case.zero_count <= 1
        assert case.k1 == 0
        assert case.modulus_error < 1e-5
    assert cases[0].zero_count == 0
    assert cases[5].realized == pytest.approx(0.5, abs=1e-8)


def test_surjectivity_zero_near_a_boundary_circle():
    # targets near 0 and 1 put the zero near the outer and the inner circle,
    # inside the 2 pi / N margin a Cauchy quadrature would need
    cases = surjectivity_demo([0.02, 0.93, 0.97], 0.5, grid_n=256)
    assert [c.zero_count for c in cases] == [1, 1, 1]
    assert cases[1].deviation < 1e-6
    (fine,) = surjectivity_demo([0.97], 0.5, grid_n=1024)
    assert fine.zero_count == 1
    assert fine.deviation < 1e-6


def test_surjectivity_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        surjectivity_demo([0.2], 1.2)
    with pytest.raises(ConfigError):
        surjectivity_demo([1.2], 0.5)
