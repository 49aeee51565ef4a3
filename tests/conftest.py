"""Shared test helpers."""

import dataclasses

import numpy as np
import pytest

from rhsolve import annulus, disc
from rhsolve.boundary import band_limited_sampler, holder_norms


@pytest.fixture
def fresh_probe_memo():
    """Empty the annulus certificate probe memo before and after the test.

    A test that counts calls inside a certified solve, or that patches a norm
    the probe sets are measured with, must neither read nor leave entries.
    """
    annulus._probe_set.cache_clear()
    yield
    annulus._probe_set.cache_clear()


@pytest.fixture(scope="session")
def sampled_disc_problem():
    """The disc g-space problem certified by sampling instead of its computed bounds.

    Band-limited residual probes and iterate probes p + i p', residuals in
    the Hölder norm and iterates (omega1's steps and omega2's ball) in the
    Hölder norm of their derivative: a sampled certificate in Hölder norms,
    which tests of the sampled path and of the Hölder scan run on.
    """

    def make(fam_t, grid):
        probe = band_limited_sampler(grid)
        return dataclasses.replace(
            disc._g_space_problem(fam_t, grid),
            bounds=None,
            residual_sampler=probe,
            iterate_sampler=lambda rng: probe(rng) + 1j * probe(rng),
            iterate_norm=lambda d: holder_norms(grid, (d,), True),
            certify_residual_norm=lambda r: holder_norms(grid, (r,)),
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
