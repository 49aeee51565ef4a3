"""Nonlinear boundary-value solver for holomorphic functions on disc and annulus.

The command-line front end, rhsolve.cli, is not imported here: importing it
with the package would make `python -m rhsolve.cli` find it already loaded
and warn.
"""

from . import (
    analysis,
    annulus,
    boundary,
    curves,
    disc,
    domains,
    errors,
    newton,
    pompeiu,
    serialize,
    trig,
)

__all__ = [
    "analysis",
    "annulus",
    "boundary",
    "curves",
    "disc",
    "domains",
    "errors",
    "newton",
    "pompeiu",
    "serialize",
    "trig",
]
__version__ = "0.1.0"
