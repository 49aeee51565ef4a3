"""Certified Newton engine against exact scalar arithmetic."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhsolve import annulus, disc, newton
from rhsolve.annulus import AnnulusSolveOptions
from rhsolve.boundary import BoundaryGrid
from rhsolve.curves import builtin_circle_family, builtin_ellipse_family, divisor_transform, monomial_transform
from rhsolve.errors import NeumannDiverges, NoConvergence, SamplingFailed
from rhsolve.newton import (
    CertifyOptions,
    IterateOptions,
    NewtonProblem,
    certify,
    draw_probe_set,
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


def test_iterate_passes_the_forcing_target_only_to_inverses_that_take_it():
    # an apply with a keyword target gets half the forcing bound
    # max(min(0.1, |r|) |r|, tol / 2) of each residual; a plain lambda, and
    # the disc's explicit inverse, get the residual alone and run as before
    seen = []

    def targeted(x):
        def apply(r, target=None):
            seen.append((abs(r), target))
            return r / (2.0 * x)

        return apply

    prob, opts = quadratic_problem(), IterateOptions(tol=1e-9)
    run = iterate(dataclasses.replace(prob, right_inverse=targeted), 1.3, opts)
    plain = iterate(prob, 1.3, opts)
    assert (run.x, run.residual_norms) == (plain.x, plain.residual_norms)
    assert len(seen) == run.iterations >= 3
    assert seen[0][1] == 0.5 * 0.1 * abs(1.3 ** 2 - 1.0)
    for rn, target in seen:
        assert target == 0.5 * max(min(0.1, rn) * rn, 0.5 * opts.tol)

    grid = BoundaryGrid(256)
    fam_t = monomial_transform(builtin_ellipse_family(*_DISC_FAMILIES["tilted"]), 2)
    problem = disc._g_space_problem(fam_t, grid)
    g0 = disc._initial_log_trace(fam_t, grid)
    wrapped = dataclasses.replace(problem, right_inverse=lambda g: (lambda r: problem.right_inverse(g)(r)))
    direct, through_lambda = iterate(problem, g0), iterate(wrapped, g0)
    assert direct.converged and direct.residual_norms == through_lambda.residual_norms
    assert np.array_equal(direct.x, through_lambda.x)


def test_certify_passes_each_probe_its_target_only_to_inverses_that_take_it():
    # an apply with a keyword target gets, per probe, 1e-2 of the identity
    # tolerance times that probe's certificate norm; a plain apply gets the
    # probes alone, so criterion 9's scalar certificates keep every bit
    seen = []

    def targeted(x):
        def apply(r, target=None):
            seen.append((r, target))
            return r / (2.0 * x)

        return apply

    prob = quadratic_problem()
    for x0, want in (
        (1.01, ("0x1.faee41e6a7499p-2", "0x1.000000017b0f5p+1", "0x1.495182a9930c0p-6", "0x1.6d9abc8163a23p-3")),
        (1.1, ("0x1.d1745d1745d17p-2", "0x1.0000006084b67p+1", "0x1.ae147ae147ae8p-3", "0x1.aa868f70b5434p+0")),
    ):
        plain = certify(prob, x0, CertifyOptions(seed=0))
        assert tuple(float(v).hex() for v in (plain.omega1, plain.omega2, plain.omega3, plain.product)) == want
        seen.clear()
        got = certify(dataclasses.replace(prob, right_inverse=targeted), x0, CertifyOptions(seed=0))
        assert dataclasses.astuple(got) == dataclasses.astuple(plain)
        (probes, target), = seen
        assert probes.shape == target.shape == (16,)
        assert np.array_equal(target, newton._PROBE_FORCING * newton._CHECK_TOL * np.abs(probes))
    assert newton._PROBE_FORCING * newton._CHECK_TOL == pytest.approx(1e-8, rel=1e-15)


def test_vector_problem_with_explicit_derivative():
    prob = vector_problem()
    x0 = np.array([1.5, 2.1])
    cert = certify(prob, x0)
    assert cert.identity_defect < 1e-12
    run = iterate(prob, x0, certificate=cert)
    assert run.converged
    npt.assert_allclose(run.x, [np.sqrt(2.0), 2.0], atol=1e-9)


@pytest.mark.parametrize("field", ["iterate_norm", "residual_norm", "certify_residual_norm"])
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
        probe_set=lambda seed: draw_probe_set(seed, lambda rng: 0.0, lambda rng: rng.standard_normal(), abs, abs),
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
    

# --------------------------------------------------------------------------
# the stacked certificate against the per-probe loop it replaced
# --------------------------------------------------------------------------


def _per_probe_certify(problem, samplers, x0, seed=0):
    # reference: one probe at a time from the (residual, iterate) samplers,
    # every callback on single vectors; an inverse that takes a target gets
    # each probe's own
    residual_sampler, iterate_sampler = samplers
    rng = np.random.default_rng(seed)
    res_norm = problem.certify_residual_norm or problem.residual_norm
    omega3 = res_norm(problem.residual(x0))
    inverse = problem.right_inverse(x0)
    targeted = newton._takes(inverse, "target")
    omega1 = identity_defect = 0.0
    for _ in range(16):
        r = residual_sampler(rng)
        rn = res_norm(r)
        try:
            step = inverse(r, target=1e-2 * 1e-6 * rn) if targeted else inverse(r)
        except NeumannDiverges as exc:
            identity_defect = max(identity_defect, exc.defect)
            continue
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
def test_stacked_disc_certificate_is_bit_identical_to_per_probe(kind, n, sampled_disc_problem, disc_probe_samplers):
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
    grid = BoundaryGrid(opts.grid_n)
    return annulus._annulus_problem(*families, q, grid, opts.tol), h0, annulus._probe_space(grid, q)


@pytest.mark.parametrize("name", ["readme", "wobbly", "zero-free"])
def test_stacked_annulus_certificate_matches_per_probe(name):
    problem, h0, samplers = _annulus_at_glue(name)
    cert = certify(problem, h0, CertifyOptions(seed=0))
    omega1, omega2, omega3, identity_defect, certified = _per_probe_certify(problem, samplers, h0, seed=0)
    assert (cert.omega2, cert.omega3) == (omega2, omega3)
    npt.assert_allclose(cert.omega1, omega1, rtol=1e-12)
    npt.assert_allclose(cert.identity_defect, identity_defect, rtol=0.0, atol=1e-12)
    assert cert.certified == certified
    if name == "zero-free":
        # some probes are off the range and count only against the identity
        assert cert.identity_defect > 0.1 and cert.omega1 > 0.0


def _certificates_match(problem, samplers, x0, seed):
    # the memoized probe set against a fresh draw from the samplers, in the problem's norms
    memo = certify(problem, x0, CertifyOptions(seed=seed))
    draw = lambda seed: draw_probe_set(seed, *samplers, problem.certify_residual_norm, problem.iterate_norm)
    fresh = certify(dataclasses.replace(problem, probe_set=draw), x0, CertifyOptions(seed=seed))
    assert dataclasses.astuple(memo) == dataclasses.astuple(fresh)


def test_memoized_annulus_probe_set_is_keyed_by_modulus(fresh_probe_memo):
    # two moduli on one grid: the iterate probes and their norms depend on q,
    # so a set memoized without q would certify the second problem differently
    outer = builtin_circle_family([1.0, 0.02, -0.01, 0.015, 0.01])
    inner = builtin_circle_family([1.0, -0.01, 0.02, 0.0, -0.015])
    options = AnnulusSolveOptions(grid_n=256)
    for q in (0.4, 0.5):
        h0, _, families = annulus._glue_coefficients(outer, inner, (4, 4), q, options)
        problem = annulus._annulus_problem(*families, q, BoundaryGrid(256), options.tol)
        _certificates_match(problem, annulus._probe_space(BoundaryGrid(256), q), h0, 0)
    assert annulus._probe_set.cache_info()[:2] == (0, 2)


def test_probe_samplers_are_built_only_when_the_memo_misses(monkeypatch, fresh_probe_memo):
    # building a problem builds no band-limited tables; two certificates on
    # one (grid, q, seed) build them once
    calls = []
    original = annulus.band_limited_sampler
    monkeypatch.setattr(annulus, "band_limited_sampler", lambda grid: calls.append(grid.n) or original(grid))
    outer = builtin_circle_family([1.0, 0.02, -0.01, 0.015, 0.01])
    inner = builtin_circle_family([1.0, -0.01, 0.02, 0.0, -0.015])
    options = AnnulusSolveOptions(grid_n=64)
    h0, _, families = annulus._glue_coefficients(outer, inner, (4, 4), 0.5, options)
    problems = [annulus._annulus_problem(*families, 0.5, BoundaryGrid(64), options.tol) for _ in range(2)]
    assert calls == []
    for problem in problems:
        certify(problem, h0)
    assert calls == [64]


def test_memoized_probe_arrays_refuse_writes(fresh_probe_memo):
    probes = annulus._probe_set(BoundaryGrid(64), 0.5, 0)
    assert len(probes) == 5
    for array in probes:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0


def test_certificate_with_every_probe_missed_reports_no_contraction():
    # on the zero-free circles every seed-3 residual probe is off the range of
    # the linearization: nothing bounds the right inverse, so omega1 and the
    # product are inf rather than a perfect-looking 0, and result files say null
    problem, h0, _ = _annulus_at_glue("zero-free")
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
