"""Certified Newton engine against exact scalar arithmetic."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import disc, newton
from rhsolve.boundary import BoundaryGrid
from rhsolve.curves import builtin_circle_family, builtin_ellipse_family, monomial_transform
from rhsolve.errors import NoConvergence, SamplingFailed
from rhsolve.newton import (
    CertificateBounds,
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    certify,
    iterate,
)
from rhsolve.serialize import certificate_dict, dump_json


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
    run = iterate(prob, 1.01, certificate=cert)
    assert run.converged
    assert run.iterations <= 6
    assert not run.damped
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
    run = iterate(prob, 1.3)
    assert run.converged and run.iterations >= 3 and not run.damped
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
    npt.assert_allclose(run.x, 0.0, atol=1e-10)


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


def test_a_step_that_barely_lowers_the_residual_ends_the_run():
    # |A| = |x - 1| + 1e-3 and each step halves the distance to the root: the
    # residual nears its floor 1e-3, and step 30 lowers it by 9.3e-7 of itself
    prob = NewtonProblem(
        residual=lambda x: x - 1.0,
        right_inverse=lambda x: (lambda r: 0.5 * r),
        iterate_norm=abs,
        residual_norm=lambda r: abs(r) + 1e-3,
    )
    with pytest.raises(NoConvergence, match="residual stagnated at 1.000e-03") as err:
        iterate(prob, 2.0)
    history = err.value.history
    assert len(history) == 31
    assert 1.0 - history[-1] / history[-2] < 1e-6 <= 1.0 - history[-2] / history[-3]
    # the same step converges when it lands below tol
    run = iterate(prob, 2.0, IterateOptions(tol=1e-3 + 1.5e-9))
    assert run.converged and run.iterations == 30


def vector_problem():
    # A(x) = (x0^2 - x1, x1 - 2) on R^2, root (sqrt 2, 2)
    def residual(x):
        return np.array([x[0] ** 2 - x[1], x[1] - 2.0])

    def derivative(x, d):
        return np.array([2 * x[0] * d[0] - d[1], d[1]])

    def right_inverse(x):
        def apply(r):
            return np.array([(r[0] + r[1]) / (2 * x[0]), r[1]])

        return apply

    return NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=lambda v: np.max(np.abs(v)),
        residual_norm=lambda v: np.max(np.abs(v)),
        derivative_action=derivative,
    )


def test_iterate_calls_each_inverse_with_the_residual_alone():
    # one call per step, with the step's residual as its one argument; the
    # disc's explicit inverse runs bitwise the same through a wrapping lambda
    seen = []

    def recording(x):
        def apply(*args, **kwargs):
            seen.append((args, kwargs))
            return args[0] / (2.0 * x)

        return apply

    prob = quadratic_problem()
    run = iterate(dataclasses.replace(prob, right_inverse=recording), 1.3)
    plain = iterate(prob, 1.3)
    assert (run.x, run.residual_norms) == (plain.x, plain.residual_norms)
    assert len(seen) == run.iterations >= 3
    for (args, kwargs), rn in zip(seen, run.residual_norms):
        assert kwargs == {} and len(args) == 1 and abs(args[0]) == rn

    grid = BoundaryGrid(256)
    fam_t = monomial_transform(builtin_ellipse_family(*_DISC_FAMILIES["tilted"]), 2)
    problem = disc._g_space_problem(fam_t, grid)
    g0 = disc._initial_log_trace(fam_t, grid)
    wrapped = dataclasses.replace(problem, right_inverse=lambda g: (lambda r: problem.right_inverse(g)(r)))
    direct, through_lambda = iterate(problem, g0), iterate(wrapped, g0)
    assert direct.converged and direct.residual_norms == through_lambda.residual_norms
    assert np.array_equal(direct.x, through_lambda.x)


def test_scalar_certificate_bits():
    # criterion 9's scalar certificates keep every bit of omega1, omega2,
    # omega3, the product and the identity defect; the right inverse sees
    # one probe at a time
    seen = []

    def recording(x):
        def apply(r):
            seen.append(np.shape(r))
            return r / (2.0 * x)

        return apply

    prob = quadratic_problem()
    for x0, want in (
        (
            1.01,
            ("0x1.faee41e6a7499p-2", "0x1.000000017b0f5p+1", "0x1.495182a9930c0p-6", "0x1.6d9abc8163a23p-3",
             "0x1.7d26a5a26a468p-34"),
        ),
        (
            1.1,
            ("0x1.d1745d1745d17p-2", "0x1.0000006084b67p+1", "0x1.ae147ae147ae8p-3", "0x1.aa868f70b5434p+0",
             "0x1.3d6c9811cf162p-34"),
        ),
    ):
        seen.clear()
        cert = certify(dataclasses.replace(prob, right_inverse=recording), x0, CertifyOptions(seed=0))
        got = (cert.omega1, cert.omega2, cert.omega3, cert.product, cert.identity_defect)
        assert tuple(float(v).hex() for v in got) == want
        assert seen == [()] * 16


def test_vector_problem_with_explicit_derivative():
    prob = vector_problem()
    x0 = np.array([1.5, 2.1])
    cert = certify(prob, x0)
    assert cert.identity_defect < 1e-12
    run = iterate(prob, x0, certificate=cert)
    assert run.converged
    npt.assert_allclose(run.x, [np.sqrt(2.0), 2.0], atol=1e-9)


def test_sampling_failure_on_degenerate_norm():
    # a residual norm that vanishes on every probe leaves no scale for omega1
    prob = NewtonProblem(
        residual=lambda x: x * x - 1.0,
        right_inverse=lambda x: (lambda r: r / (2.0 * x)),
        iterate_norm=abs,
        residual_norm=lambda r: 0.0 * np.abs(r),
    )
    with pytest.raises(SamplingFailed):
        certify(prob, 1.01)


def test_certify_norm_overrides():
    # doubling the residual norm certify reads doubles omega3 and scales omega1 down
    prob = quadratic_problem()
    base = certify(prob, 1.01)
    scaled = certify(dataclasses.replace(prob, residual_norm=lambda r: 2.0 * abs(r)), 1.01)
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
        run = iterate(prob, x0, certificate=cert)
        assert run.converged and run.iterations <= 40 and not run.damped
    

# --------------------------------------------------------------------------
# the sampled certificate against a written-out reference loop
# --------------------------------------------------------------------------


def _per_probe_certify(problem, samplers, x0, seed=0):
    # reference: one probe at a time from the (residual, iterate) samplers,
    # each norm taken where its ratio is formed
    residual_sampler, iterate_sampler = samplers
    rng = np.random.default_rng(seed)
    res_norm = problem.residual_norm
    omega3 = res_norm(problem.residual(x0))
    inverse = problem.right_inverse(x0)
    omega1 = identity_defect = 0.0
    for _ in range(16):
        r = residual_sampler(rng)
        rn = res_norm(r)
        step = inverse(r)
        omega1 = max(omega1, problem.iterate_norm(step) / rn)
        identity_defect = max(identity_defect, res_norm(problem.derivative_action(x0, step) - r) / rn)
    omega2 = 0.0
    for _ in range(8):
        du, dv, d = (iterate_sampler(rng) for _ in range(3))
        u = x0 + (0.1 * rng.uniform(0.1, 1.0) / problem.iterate_norm(du)) * du
        v = x0 + (0.1 * rng.uniform(0.1, 1.0) / problem.iterate_norm(dv)) * dv
        gap = problem.iterate_norm(u - v)
        diff = problem.derivative_action(u, d) - problem.derivative_action(v, d)
        omega2 = max(omega2, res_norm(diff) / (gap * problem.iterate_norm(d)))
    product = 4.0 * omega1 * (omega1 + 1.0) * (omega2 + 1.0) * omega3
    certified = bool(product < 1.0 and identity_defect <= 1e-6)
    return omega1, omega2, omega3, identity_defect, certified


_DISC_FAMILIES = {
    "ellipse": ([2.0, 0.15, -0.1], [1.0, 0.04, 0.03], [0.0]),
    "tilted": ([2.4, 0.1, 0.05], [1.0, 0.0, 0.06], [0.2, 0.15, -0.1]),
}


@pytest.mark.parametrize("n", [256, 512, 1024])
@pytest.mark.parametrize("kind", ["ellipse", "tilted", "circle"])
def test_sampled_disc_certificate_is_bit_identical_to_a_reference_loop(kind, n, sampled_disc_problem, disc_probe_samplers):
    if kind == "circle":
        family = builtin_circle_family([2.0, 0.2, -0.1, 0.05, 0.03])
    else:
        family = builtin_ellipse_family(*_DISC_FAMILIES[kind])
    grid = BoundaryGrid(n)
    fam_t = monomial_transform(family, 2)
    problem = sampled_disc_problem(fam_t, grid)
    g0 = disc._initial_log_trace(fam_t, grid)
    cert = certify(problem, g0, CertifyOptions(seed=3))
    omega1, omega2, omega3, identity_defect, certified = _per_probe_certify(
        problem, disc_probe_samplers(grid), g0, seed=3
    )
    assert (cert.omega1, cert.omega2, cert.omega3) == (omega1, omega2, omega3)
    assert cert.identity_defect == identity_defect
    assert cert.certified == certified


def test_certificate_with_every_probe_missed_reports_no_contraction():
    # bounds that find nothing bounding the right inverse (omega1 = inf and
    # the identity defect >= 1, as on zero-free annulus data) away from a
    # root: the product is inf rather than a perfect-looking number, and
    # result files say null
    problem = dataclasses.replace(
        quadratic_problem(), bounds=lambda x: CertificateBounds(np.inf, 2.0, abs(x * x - 1.0), 2.8)
    )
    cert = certify(problem, 1.1)
    assert cert.omega1 == cert.product == np.inf
    assert cert.omega3 == pytest.approx(0.21)
    assert cert.identity_defect == 2.8 and not cert.certified
    block = certificate_dict(cert)
    assert block["omega1"] is None and block["product"] is None
    assert block["omega3"] == cert.omega3 and block["identity_defect"] == cert.identity_defect
    assert block["certified"] is False
    text = dump_json(block)
    assert '"product": null' in text and "Infinity" not in text
    assert dump_json(certificate_dict(certify(problem, 1.1))) == text


def test_certificate_with_every_probe_missed_keeps_inf_at_an_exact_start():
    # bounds that find nothing bounding the right inverse (omega1 = inf, as
    # on zero-free annulus data) at an exact start (omega3 = 0): inf * 0 must
    # not turn into a NaN product
    problem = dataclasses.replace(
        quadratic_problem(), bounds=lambda x: CertificateBounds(np.inf, 2.0, 0.0, 1.0)
    )
    cert = certify(problem, 1.0)
    assert cert.omega3 == 0.0
    assert cert.omega1 == cert.product == np.inf
    assert cert.identity_defect == 1.0 and not cert.certified
