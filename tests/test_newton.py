"""Certified Newton engine against exact scalar arithmetic."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import annulus, disc
from rhsolve.annulus import AnnulusSolveOptions
from rhsolve.boundary import BoundaryGrid
from rhsolve.curves import builtin_circle_family, builtin_ellipse_family, divisor_transform, monomial_transform
from rhsolve.errors import NeumannDiverges, NoConvergence, SamplingFailed
from rhsolve.newton import (
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    certify,
    iterate,
)
from rhsolve.serialize import certificate_dict, dump_json
from rhsolve.trig import TrigPolynomial


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
    assert not run.certificate_applicable
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


def vector_problem():
    # A(x) = (x0^2 - x1, x1 - 2) on R^2, root (sqrt 2, 2); the certificate
    # passes stacks of probes, so components are x[..., i] and norms act
    # along the last axis
    def residual(x):
        return np.stack([x[..., 0] ** 2 - x[..., 1], x[..., 1] - 2.0], axis=-1)

    def derivative(x, d):
        return np.stack([2 * x[..., 0] * d[..., 0] - d[..., 1], d[..., 1]], axis=-1)

    def right_inverse(x):
        def apply(r):
            d1 = r[..., 1]
            d0 = (r[..., 0] + d1) / (2 * x[..., 0])
            return np.stack([d0, d1], axis=-1)

        return apply

    return NewtonProblem(
        residual=residual,
        right_inverse=right_inverse,
        iterate_norm=lambda v: np.max(np.abs(v), axis=-1),
        residual_norm=lambda v: np.max(np.abs(v), axis=-1),
        derivative_action=derivative,
    )


def test_vector_problem_with_explicit_derivative():
    prob = vector_problem()
    x0 = np.array([1.5, 2.1])
    cert = certify(prob, x0)
    assert cert.identity_defect < 1e-12
    run = iterate(prob, x0, certificate=cert)
    assert run.converged
    npt.assert_allclose(run.x, [np.sqrt(2.0), 2.0], atol=1e-9)


@pytest.mark.parametrize(
    "field", ["iterate_norm", "residual_norm", "certify_iterate_norm", "certify_residual_norm"]
)
@pytest.mark.parametrize("explicit_derivative", [True, False])
def test_certify_rejects_a_norm_with_one_value_per_stack(field, explicit_derivative):
    # a norm written for single vectors returns one number for a whole stack;
    # max|s| / max|r| over the stack would understate omega1
    prob = dataclasses.replace(vector_problem(), **{field: lambda v: float(np.max(np.abs(v)))})
    if not explicit_derivative:
        prob = dataclasses.replace(prob, derivative_action=None)
    with pytest.raises(TypeError, match="one value per row"):
        certify(prob, np.array([1.5, 2.1]))


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
    # against the identity check and do not enter omega1. The probes come
    # as one stack, so the miss is reported per row
    def right_inverse(x):
        def apply(r):
            missed = np.asarray(r) < 0.0
            if missed.any():
                raise NeumannDiverges(
                    "off the range",
                    defect=np.where(missed, 0.75, np.nan),
                    iterations=np.full(missed.shape, 3),
                    steps=r / (2.0 * x),
                )
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
        run = iterate(prob, x0, certificate=cert)
        assert run.converged and run.iterations <= 40 and not run.damped
        assert run.certificate_applicable


# --------------------------------------------------------------------------
# the stacked certificate against the per-probe loop it replaced
# --------------------------------------------------------------------------


def _per_probe_certify(problem, x0, seed=0):
    # reference: one probe at a time, every callback on single vectors
    rng = np.random.default_rng(seed)
    res_norm = problem.certify_residual_norm or problem.residual_norm
    it_norm = problem.certify_iterate_norm or problem.iterate_norm
    omega3 = res_norm(problem.residual(x0))
    inverse = problem.right_inverse(x0)
    omega1 = identity_defect = 0.0
    for _ in range(16):
        r = problem.residual_sampler(rng)
        rn = res_norm(r)
        try:
            step = inverse(r)
        except NeumannDiverges as exc:
            identity_defect = max(identity_defect, exc.defect)
            continue
        omega1 = max(omega1, it_norm(step) / rn)
        identity_defect = max(identity_defect, res_norm(problem.derivative_action(x0, step) - r) / rn)
    omega2 = 0.0
    for _ in range(8):
        du, dv, d = (problem.iterate_sampler(rng) for _ in range(3))
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
def test_stacked_disc_certificate_is_bit_identical_to_per_probe(kind, n):
    if kind == "circle":
        family = builtin_circle_family([2.0, 0.2, -0.1, 0.05, 0.03])
    else:
        family = builtin_ellipse_family(*_DISC_FAMILIES[kind])
    grid = BoundaryGrid(n)
    fam_t = monomial_transform(family, 2)
    problem = disc._g_space_problem(fam_t, grid)
    g0 = disc._initial_log_trace(fam_t, grid)
    cert = certify(problem, g0, CertifyOptions(seed=3))
    omega1, omega2, omega3, identity_defect, certified = _per_probe_certify(problem, g0, seed=3)
    assert (cert.omega1, cert.omega2, cert.omega3) == (omega1, omega2, omega3)
    assert cert.identity_defect == identity_defect
    assert cert.certified == certified


def _scaled_circle(base, coeffs):
    a = TrigPolynomial(tuple(coeffs))
    return divisor_transform(builtin_circle_family(base), lambda th: np.exp(-a(th)) + 0j)


def _annulus_at_glue(name):
    if name == "readme":
        outer = builtin_ellipse_family([1.0, 0.04, 0.02], [0.85, -0.03, 0.02], 0.15)
        inner, windings, q, opts = builtin_circle_family(0.3), (6, 6), 0.4, AnnulusSolveOptions(grid_n=512, tol=1e-9)
    elif name == "wobbly":
        outer = builtin_circle_family([1.0, 0.02, -0.01, 0.015, 0.01])
        inner = builtin_circle_family([1.0, -0.01, 0.02, 0.0, -0.015])
        windings, q, opts = (4, 4), 0.5, AnnulusSolveOptions()
    else:
        # |f| = base * exp(zero-mean trig): the flux is the inner winding
        outer = _scaled_circle(1.0, [0.0, 0.06, -0.03, 0.02, 0.015])
        inner = _scaled_circle(0.5 ** 8, [0.0, -0.04, 0.05, 0.01, -0.02])
        windings, q, opts = (8, -8), 0.5, AnnulusSolveOptions()
    h0, _, families = annulus._glue_coefficients(outer, inner, windings, q, opts)
    return annulus._annulus_problem(*families, q, BoundaryGrid(opts.grid_n), opts.tol), h0


@pytest.mark.parametrize("name", ["readme", "wobbly", "zero-free"])
def test_stacked_annulus_certificate_matches_per_probe(name):
    problem, h0 = _annulus_at_glue(name)
    cert = certify(problem, h0, CertifyOptions(seed=0))
    omega1, omega2, omega3, identity_defect, certified = _per_probe_certify(problem, h0, seed=0)
    assert (cert.omega2, cert.omega3) == (omega2, omega3)
    npt.assert_allclose(cert.omega1, omega1, rtol=1e-12)
    npt.assert_allclose(cert.identity_defect, identity_defect, rtol=0.0, atol=1e-12)
    assert cert.certified == certified
    if name == "zero-free":
        # some probes are off the range and count only against the identity
        assert cert.identity_defect > 0.1 and cert.omega1 > 0.0


def test_certificate_with_every_probe_missed_reports_no_contraction():
    # on the zero-free circles every seed-3 residual probe is off the range of
    # the linearization: nothing bounds the right inverse, so omega1 and the
    # product are inf rather than a perfect-looking 0, and result files say null
    problem, h0 = _annulus_at_glue("zero-free")
    cert = certify(problem, h0, CertifyOptions(seed=3))
    assert cert.omega1 == cert.product == np.inf
    assert cert.identity_defect > 0.1 and not cert.certified
    block = certificate_dict(cert, fallback=False)
    assert block["omega1"] is None and block["product"] is None
    assert block["omega3"] == cert.omega3 and block["identity_defect"] == cert.identity_defect
    assert block["certified"] is False
    text = dump_json(block)
    assert '"product": null' in text and "Infinity" not in text
    assert dump_json(certificate_dict(certify(problem, h0, CertifyOptions(seed=3)), False)) == text


def test_certificate_with_every_probe_missed_keeps_inf_at_an_exact_start():
    # omega3 = 0 must not turn inf * 0 into a NaN product
    def unreachable(x):
        def apply(r):
            raise NeumannDiverges("no step", 1.0, 1)

        return apply

    problem = dataclasses.replace(quadratic_problem(), right_inverse=unreachable)
    cert = certify(problem, 1.0)
    assert cert.omega3 == 0.0
    assert cert.omega1 == cert.product == np.inf
    assert cert.identity_defect == 1.0 and not cert.certified
