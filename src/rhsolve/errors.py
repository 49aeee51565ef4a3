"""Exception types raised across the solver stack."""


class SolverError(Exception):
    """Base class for every failure this package raises on purpose."""


class ZeroOnBoundary(SolverError):
    """A boundary trace vanishes (or dips below the modulus floor)."""


class UnresolvedPhase(SolverError):
    """Adjacent phase increments reach pi; the grid cannot resolve the winding."""


class PointTooCloseToBoundary(SolverError):
    """Cauchy evaluation requested inside the accuracy margin of a boundary circle."""


class CountMismatch(SolverError):
    """Zero subdivision lost or gained zeros relative to the boundary winding count."""


class ZeroNotEnclosed(SolverError):
    """A curve family fails to surround the origin for some parameter angle."""


class DegenerateAxis(SolverError):
    """An ellipse family axis is not strictly positive."""


class EtaWindingNonzero(SolverError):
    """The eta multiplier has nonzero winding; the linearization is not invertible here."""


class ZeroOnTrace(SolverError):
    """The eta multiplier vanishes along the trace."""


class MultiplierVanishes(SolverError):
    """A divisor multiplier trace has a zero on the boundary grid."""


class NoConvergence(SolverError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ModeConditioning(SolverError):
    """Annulus harmonic modes underflow while still carrying boundary data."""


class GlueTooCoarse(SolverError):
    """Collar decay too weak for the requested winding; gluing would not be small."""


class SamplingFailed(SolverError):
    """Certificate sampling could not produce enough valid probes."""


class NotRadialFamily(SolverError):
    """Operation requires centered-circle families with a radial profile."""


class ConfigError(SolverError, ValueError):
    """Run configuration is malformed or inconsistent (also a ValueError)."""
