"""Certified Newton engine against exact scalar arithmetic."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve.errors import NeumannDiverges, NoConvergence, SamplingFailed
from rhsolve.newton import (
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    certify,
    iterate,
)


def quadratic_problem():
    # A(x) = x^2 - 1, B(x) r = r / (2x)
    return NewtonProblem(
        residual=lambda x: x * x - 1.0,
        right_inverse=lambda x: (lambda r: r / (2.0 * x)),
        iterate_norm=abs,
        residual_norm=abs,
    )


def test_certificate_exact_values_near_root():
    cert = certify(quadratic_problem(), 1.01)
    npt.assert_allclose(cert.omega1, 1.0 / 2.02, rtol=1e-12)
    npt.assert_allclose(cert.omega2, 2.0, rtol=1e-9)
    npt.assert_allclose(cert.omega3, 0.0201, rtol=1e-12)
    npt.assert_allclose(cert.product, 4 * (1 / 2.02) * (1 + 1 / 2.02) * 3.0 * 0.0201, rtol=1e-9)
    assert cert.product == pytest.approx(0.17852, abs=5e-5)
    assert cert.certified
    assert cert.identity_defect < 1e-9


def test_certificate_fails_farther_out():
    cert = certify(quadratic_problem(), 1.1)
    assert cert.product == pytest.approx(1.666, abs=2e-3)
    assert not cert.certified


def test_certified_run_converges_fast_undamped():
    prob = quadratic_problem()
    cert = certify(prob, 1.01)
    run = iterate(prob, 1.01, IterateOptions(allow_damping=False), certificate=cert)
    assert run.converged
    assert run.iterations <= 6
    assert not run.damped
    assert run.certificate_applicable
    npt.assert_allclose(run.x, 1.0, atol=1e-10)
    # residual history is strictly decreasing and ends below tol
    norms = run.residual_norms
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-12


def test_histories_are_bit_identical():
    prob = quadratic_problem()
    a = iterate(prob, 1.3)
    b = iterate(prob, 1.3)
    assert a.residual_norms == b.residual_norms
    assert a.x == b.x


def _count_residuals(prob):
    values = []

    def residual(x):
        values.append(prob.residual(x))
        return values[-1]

    return dataclasses.replace(prob, residual=residual), values


def test_accepted_trial_residual_is_reused():
    # one residual at x0, then one per trial step and one per halving
    prob, values = _count_residuals(quadratic_problem())
    run = iterate(prob, 1.3, IterateOptions(allow_damping=False))
    assert run.converged and run.iterations >= 3
    assert len(values) == run.iterations + 1

    prob, values = _count_residuals(
        NewtonProblem(
            residual=np.arctan,
            right_inverse=lambda x: (lambda r: r * (1.0 + x * x)),
            iterate_norm=abs,
            residual_norm=abs,
        )
    )
    run = iterate(prob, 2.0, IterateOptions(tol=1e-12, max_iter=60))
    assert run.converged and run.damped
    # a rejected trial leaves a residual that is not in the accepted history
    halvings = sum(abs(v) not in run.residual_norms for v in values)
    assert halvings > 0
    assert len(values) == run.iterations + 1 + halvings


def test_damping_rescues_overshoot_and_voids_certificate():
    # A(x) = arctan(x): full Newton overshoots badly from x0 = 2
    prob = NewtonProblem(
        residual=np.arctan,
        right_inverse=lambda x: (lambda r: r * (1.0 + x * x)),
        iterate_norm=abs,
        residual_norm=abs,
    )
    cert = certify(prob, 2.0)
    run = iterate(prob, 2.0, IterateOptions(tol=1e-12, max_iter=60), certificate=cert)
    assert run.converged
    assert run.damped
    assert not run.certificate_applicable
    npt.assert_allclose(run.x, 0.0, atol=1e-10)
    with pytest.raises(NoConvergence) as err:
        iterate(prob, 2.0, IterateOptions(allow_damping=False))
    assert err.value.history is not None


def test_no_convergence_reports_history():
    prob = NewtonProblem(
        residual=lambda x: 1.0 + x * x,  # no real root
        right_inverse=lambda x: (lambda r: r / (2.0 * x) if x != 0 else r),
        iterate_norm=abs,
        residual_norm=abs,
    )
    with pytest.raises(NoConvergence) as err:
        iterate(prob, 1.0, IterateOptions(max_iter=25))
    assert len(err.value.history) >= 1


def test_vector_problem_with_explicit_derivative():
    # A(x) = (x0^2 - x1, x1 - 2) on R^2, root (sqrt 2, 2)
    def residual(x):
        return np.array([x[0] ** 2 - x[1], x[1] - 2.0])

    def derivative(x, d):
        return np.array([2 * x[0] * d[0] - d[1], d[1]])

    def right_inverse(x):
        def apply(r):
            d1 = r[1]
            d0 = (r[0] + d1) / (2 * x[0])
            return np.array([d0, d1])

        return apply

    prob = NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=lambda v: float(np.max(np.abs(v))),
        residual_norm=lambda v: float(np.max(np.abs(v))),
        derivative_action=derivative,
    )
    x0 = np.array([1.5, 2.1])
    cert = certify(prob, x0)
    assert cert.identity_defect < 1e-12
    run = iterate(prob, x0, certificate=cert)
    assert run.converged
    npt.assert_allclose(run.x, [np.sqrt(2.0), 2.0], atol=1e-9)


def test_sampling_failure_on_degenerate_norm():
    prob = NewtonProblem(
        residual=lambda x: x * x - 1.0,
        right_inverse=lambda x: (lambda r: r / (2.0 * x)),
        iterate_norm=abs,
        residual_norm=abs,
        residual_sampler=lambda rng: 0.0,
    )
    with pytest.raises(SamplingFailed):
        certify(prob, 1.01)


def test_certify_records_probes_the_inverse_cannot_reach():
    # the right inverse reaches only positive residuals: the others count
    # against the identity check and do not enter omega1
    def right_inverse(x):
        def apply(r):
            if r < 0.0:
                raise NeumannDiverges("off the range", defect=0.75, iterations=3)
            return r / (2.0 * x)

        return apply

    prob = dataclasses.replace(quadratic_problem(), right_inverse=right_inverse)
    cert = certify(prob, 1.01)
    npt.assert_allclose(cert.omega1, certify(quadratic_problem(), 1.01).omega1, rtol=1e-12)
    assert cert.identity_defect == 0.75
    assert not cert.certified


def test_certify_norm_overrides():
    # doubling the certificate residual norm doubles omega3 and scales omega1 down
    prob = quadratic_problem()
    base = certify(prob, 1.01)
    scaled = certify(
        NewtonProblem(
            residual=prob.residual,
            right_inverse=prob.right_inverse,
            iterate_norm=prob.iterate_norm,
            residual_norm=prob.residual_norm,
            certify_residual_norm=lambda r: 2.0 * abs(r),
        ),
        1.01,
    )
    npt.assert_allclose(scaled.omega3, 2.0 * base.omega3, rtol=1e-12)
    npt.assert_allclose(scaled.omega1, 0.5 * base.omega1, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(1e-4, 0.3))
def test_certified_implies_undamped_convergence(root, offset):
    # scalar A(x) = x^2 - root^2 started at root + offset
    prob = NewtonProblem(
        residual=lambda x: x * x - root * root,
        right_inverse=lambda x: (lambda r: r / (2.0 * x)),
        iterate_norm=abs,
        residual_norm=abs,
    )
    x0 = root + offset
    cert = certify(prob, x0)
    if cert.certified:
        run = iterate(prob, x0, IterateOptions(allow_damping=False), certificate=cert)
        assert run.converged and run.iterations <= 40
        assert run.certificate_applicable
