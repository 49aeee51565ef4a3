"""Shared test helpers."""

import numpy as np
import pytest

from rhsolve import annulus, disc


@pytest.fixture
def fresh_probe_memo():
    """Empty certificate probe memos before and after the test.

    A test that counts calls inside a certified solve, or that patches a norm
    the probe sets are measured with, must neither read nor leave entries.
    """
    memos = (disc._probe_set, annulus._probe_set)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


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
