"""Flux bookkeeping for holomorphic functions on an annulus.

For a function f holomorphic on A(q, 1) with nonvanishing boundary values,
the logarithmic flux of the harmonic extension of log|f| splits into an
integer winding contribution from the inner boundary and one harmonic
measure weight per zero. This module evaluates the inner harmonic measure,
checks the identity on computed solutions, demonstrates that the
fractional part of the flux sweeps the full circle as the boundary data
varies, and selects the zero configuration of minimal count for a given
flux.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .annulus import _split_flux, solve_annulus_radial
from .boundary import winding_numbers
from .curves import builtin_circle_family
from .domains import _check_modulus, annulus_flux
from .errors import ConfigError


def harmonic_measure(q: float):
    """Harmonic measure h1(z) = log|z| / log q of the inner circle of A(q, 1).

    Returns an evaluator z -> h1(z), harmonic, 1 on the inner circle |z| = q
    and 0 on the outer unit circle.
    """
    _check_modulus(q)
    log_q = np.log(q)

    def h1(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        if np.any(r <= 0.0):
            raise ConfigError("harmonic measure is undefined at the origin")
        return np.log(r) / log_q

    return h1


def minimal_zero_selector(s: float):
    """Smallest zero configuration whose flux equals s, as (k1, t).

    The inner winding absorbs the integer part k1 = floor(s); a fractional
    remainder t forces exactly one zero, at radius q**t once a modulus q is
    chosen, and t is None when there is none. Fluxes within 1e-12 of an
    integer are snapped and need no zero.
    """
    return _split_flux(float(s))


@dataclass(frozen=True)
class IdentityReport:
    """Two sides of the flux identity evaluated on one solution.

    lhs is the logarithmic flux of the harmonic extension of the boundary
    log-modulus data; rhs is the inner trace winding k1 plus the harmonic
    measure weights of the zeros. k1 uses the disc convention (the winding
    of the inner trace as a curve in the plane).
    """

    lhs: float
    rhs: float
    diff: float
    k1: int
    zeros_used: tuple
    h1_values: tuple


def check_identity(solution) -> IdentityReport:
    """Evaluate the flux identity on a computed annulus solution.

    The left side extends the log-modulus of the computed boundary traces.
    The zero list of the solution must be complete: its total multiplicity
    has to match the count implied by the trace windings.
    """
    grid = solution.grid
    q = solution.q
    d = np.abs([solution.outer_trace.values, solution.inner_trace.values])
    if np.min(d) <= 0.0:
        raise ConfigError("boundary trace vanishes; log-modulus is undefined")

    lhs = annulus_flux(grid, q, *np.log(d))

    w0, k1 = winding_numbers((solution.outer_trace, solution.inner_trace))
    zeros = tuple(solution.zeros)
    counted = sum(z.multiplicity for z in zeros)
    expected = w0 - k1
    if counted != expected:
        raise ConfigError(
            f"zero list carries multiplicity {counted} but the trace windings "
            f"imply {expected}; locate zeros before checking the identity"
        )

    h1 = harmonic_measure(q)
    h1_values = tuple(float(h1(z.position)) for z in zeros)
    rhs = float(k1) + sum(m * v for m, v in zip((z.multiplicity for z in zeros), h1_values))
    return IdentityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        diff=float(abs(lhs - rhs)),
        k1=int(k1),
        zeros_used=zeros,
        h1_values=h1_values,
    )


@dataclass(frozen=True)
class SurjectivityCase:
    """One realized flux target in the surjectivity demonstration."""

    target: float
    realized: float
    deviation: float
    zero_count: int
    k1: int
    modulus_error: float


def surjectivity_demo(targets: Sequence[float], q: float, grid_n: int = 256):
    """Realize each fractional flux target with radial boundary data.

    For each t the data R0 = 1, R1 = q**t is solved in closed form and the
    realized value is recomputed from the located zeros as the sum of their
    inner harmonic measures mod 1, so the construction is checked against
    the zero positions rather than against its own bookkeeping. Each case
    needs at most one zero.
    """
    h1 = harmonic_measure(q)  # checks the modulus
    outer = builtin_circle_family(1.0)
    cases = []
    for target in targets:
        t = float(target)
        if not 0.0 <= t < 1.0:
            raise ConfigError(f"targets must lie in [0, 1), got {t}")
        inner = builtin_circle_family(q ** t)
        sol = solve_annulus_radial(outer, inner, q, grid_n=grid_n)
        total = sum(z.multiplicity * float(h1(z.position)) for z in sol.zeros)
        realized = total % 1.0
        gap = abs(realized - t) % 1.0
        deviation = min(gap, 1.0 - gap)
        cases.append(
            SurjectivityCase(
                target=t,
                realized=realized,
                deviation=deviation,
                zero_count=sum(z.multiplicity for z in sol.zeros),
                k1=sol.k1,
                modulus_error=sol.modulus_error,
            )
        )
    return tuple(cases)
