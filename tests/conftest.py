"""Shared test helpers."""

import dataclasses

import numpy as np
import pytest

from rhsolve import disc, newton
from rhsolve.boundary import holder_norms
from rhsolve.domains import laurent_modes


def _band_limited(grid):
    """Sampler of smooth real probes c0 + sum_{m<=8} a_m cos m theta + b_m sin m theta.

    The coefficients are Gaussian, damped by (1 + m)^-2.
    """
    modes = np.arange(1, 9)
    cos = np.cos(np.outer(modes, grid.theta))
    sin = np.sin(np.outer(modes, grid.theta))

    def sample(rng):
        c0 = rng.standard_normal()
        a = rng.standard_normal(len(modes)) / (1.0 + modes) ** 2
        b = rng.standard_normal(len(modes)) / (1.0 + modes) ** 2
        return c0 + a @ cos + b @ sin

    return sample


@pytest.fixture(scope="session")
def band_limited_sampler():
    """grid -> sampler of smooth real band-limited probes on the grid (modes <= 8)."""
    return _band_limited


@pytest.fixture(scope="session")
def annulus_iterate_sampler():
    """(grid, q) -> sampler of band-limited annulus iterates.

    An iterate holds the Laurent modes |k| <= 8 with Gaussian coefficients
    damped by (1 + |k|)^-2, and by q^|k| for k < 0.
    """

    def make(grid, q):
        modes = laurent_modes(grid.n)
        window = np.abs(modes) <= 8
        weight = np.where(modes < 0, q ** np.abs(modes).astype(float), 1.0) / (1.0 + np.abs(modes)) ** 2

        def sample_iterate(rng):
            g = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
            return np.where(window, g * weight, 0.0)

        return sample_iterate

    return make


@pytest.fixture
def probes_from(monkeypatch):
    """Make the sampled certificate draw its probes from the given samplers.

    newton.certify draws Gaussian probes for a problem without bounds; after
    probes_from(sample_residual, sample_iterate) it draws, for the rest of
    the test, from these samplers instead, in the same order and norms.
    """
    original = newton.draw_probes

    def install(sample_residual, sample_iterate):
        def draw(seed, _gaussian_residual, _gaussian_iterate, residual_norm, iterate_norm):
            return original(seed, sample_residual, sample_iterate, residual_norm, iterate_norm)

        monkeypatch.setattr(newton, "draw_probes", draw)

    return install


@pytest.fixture(scope="session")
def disc_probe_samplers():
    """The residual and iterate probe samplers of a sampled disc certificate on a grid.

    Band-limited residual probes p and iterate probes p + i p'.
    """

    def make(grid):
        probe = _band_limited(grid)
        return probe, lambda rng: probe(rng) + 1j * probe(rng)

    return make


@pytest.fixture
def sampled_disc_problem(disc_probe_samplers, probes_from):
    """The disc g-space problem certified by sampling instead of its computed bounds.

    Its probes come from disc_probe_samplers (through probes_from), residuals
    measured in the Hölder norm and iterates (omega1's steps and omega2's
    ball) in the Hölder norm of their derivative: a sampled certificate in
    Hölder norms, which tests of the sampled path and of the Hölder scan run
    on. The problem is for certify only; its residual norm is not the one a
    Newton iteration reads.
    """

    def make(fam_t, grid):
        probes_from(*disc_probe_samplers(grid))
        return dataclasses.replace(
            disc._g_space_problem(fam_t, grid),
            bounds=None,
            iterate_norm=lambda d: holder_norms(grid, (d,), True),
            residual_norm=lambda r: holder_norms(grid, (r,)),
        )

    return make


@pytest.fixture(scope="session")
def cutoff_dbar():
    """dbar of a C-infinity radial cutoff chi(|z|) across the band [lo, hi].

    chi = a / (a + b) with a = exp(-1/x), b = exp(-1/(1 - x)), x = (r - lo) / (hi - lo),
    rises from 0 at lo to 1 at hi and is flat at both ends; a falling cutoff
    is 1 - chi. dbar chi(|z|) = chi'(r) z / (2r).
    """

    def make(lo, hi, rising=True):
        def dbar(z):
            z = np.asarray(z, dtype=complex)
            r = np.abs(z)
            x = (r - lo) / (hi - lo)
            inside = (x > 0.0) & (x < 1.0)
            xi = x[inside]
            a, b = np.exp(-1.0 / xi), np.exp(-1.0 / (1.0 - xi))
            slope = np.zeros(r.shape)
            slope[inside] = (a / xi**2 * b + a * b / (1.0 - xi) ** 2) / (a + b) ** 2 / (hi - lo)
            return (slope if rising else -slope) * z / (2.0 * r)

        return dbar

    return make
