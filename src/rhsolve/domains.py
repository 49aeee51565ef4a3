"""Interior evaluation and zero location from boundary traces.

A holomorphic function on the unit disc, or on the annulus q < |z| < 1, is
represented by its boundary traces sampled counterclockwise at radius *
exp(i theta_j). cauchy_extend evaluates the function (or its derivative) at
interior points by the discretized Cauchy integral; the quadrature error
decays like dist(point, boundary)^N, so a margin precondition keeps requests
away from the boundary. locate_zeros finds all interior zeros with
multiplicities by certified contour counting on a shrinking cell tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _TWO_PI, BoundaryTrace, winding_number
from .errors import CountMismatch, PointTooCloseToBoundary


@dataclass(frozen=True)
class Disc:
    """The open unit disc."""


@dataclass(frozen=True)
class Annulus:
    """The annulus q < |z| < 1."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"annulus modulus must lie in (0, 1), got {self.q}")


def _trace_tuple(traces, domain):
    if isinstance(traces, BoundaryTrace):
        traces = (traces,)
    traces = tuple(traces)
    want = 1 if isinstance(domain, Disc) else 2
    if len(traces) != want:
        raise ValueError(f"domain needs {want} boundary trace(s), got {len(traces)}")
    return traces


def _boundary_radii(domain):
    return (1.0,) if isinstance(domain, Disc) else (1.0, domain.q)


def cauchy_extend(traces, domain, points, *, margin=None, derivative=False):
    """Evaluate the holomorphic extension of boundary traces at interior points.

    For an annulus, traces = (outer, inner), both sampled counterclockwise;
    the inner-circle integral enters with a minus sign. With derivative=True
    the kernel z/(z-w) is replaced by z/(z-w)^2.

    Raises PointTooCloseToBoundary when any point is within margin (default
    2 pi / N) of a boundary circle, where the quadrature degrades.
    """
    traces = _trace_tuple(traces, domain)
    radii = _boundary_radii(domain)
    if margin is None:
        margin = _TWO_PI / min(t.grid.n for t in traces)
    points = np.asarray(points, dtype=complex)
    flat = points.ravel()
    r = np.abs(flat)
    if np.any(r > 1.0 - margin):
        raise PointTooCloseToBoundary(f"point within {margin:.3g} of the outer circle")
    if isinstance(domain, Annulus) and np.any(r < domain.q + margin):
        raise PointTooCloseToBoundary(f"point within {margin:.3g} of the inner circle")

    out = np.zeros(flat.shape, dtype=complex)
    for sign, radius, trace in zip((1.0, -1.0), radii, traces):
        z = radius * np.exp(1j * trace.grid.theta)
        f = trace.values
        n = trace.grid.n
        for start in range(0, flat.size, 1024):
            w = flat[start : start + 1024, None]
            dz = z[None, :] - w
            kernel = z[None, :] / (dz * dz) if derivative else z[None, :] / dz
            out[start : start + 1024] += sign * (kernel @ f) / n
    return out.reshape(points.shape)


# --------------------------------------------------------------------------
# zero location
# --------------------------------------------------------------------------


# zero search: contour sampling starts at _CONTOUR_POINTS and doubles until two
# counts agree; cells below _POLISH_DIAMETER are polished by Newton and accepted
# with residual below _POLISH_TOL * scale; _MIN_CELL is the subdivision floor
_SEED = 0
_CONTOUR_POINTS = 24
_MAX_CONTOUR_POINTS = 768
_POLISH_DIAMETER = 0.05
_MIN_CELL = 1e-6
_JITTER_RETRIES = 8
_MARGIN_RETRIES = 3
_POLISH_TOL = 1e-8


@dataclass(frozen=True)
class LocatedZero:
    position: complex
    multiplicity: int
    residual: float


def _arc(radius, t0, t1, m):
    t = t0 + (t1 - t0) * np.arange(m) / m
    return radius * np.exp(1j * t)


def _segment(a, b, m):
    return a + (b - a) * np.arange(m) / m


class _DiskCell:
    """Disk |z| <= r centered at the origin."""

    def __init__(self, r):
        self.r = r

    def loops(self, m):
        return [_arc(self.r, 0.0, _TWO_PI, m)]

    def split(self, rng, jitter):
        s = rng.uniform(0.35, 0.65) if jitter else 0.5
        return [_DiskCell(s * self.r), _RingCell(np.log(s * self.r), np.log(self.r))]

    def diameter(self):
        return 2.0 * self.r

    def center(self):
        return 0.0 + 0.0j

    def contains(self, z, slack):
        return abs(z) <= self.r * (1.0 + slack)


class _RingCell:
    """Ring exp(lr0) <= |z| <= exp(lr1)."""

    def __init__(self, lr0, lr1):
        self.lr0, self.lr1 = lr0, lr1

    def loops(self, m):
        # outer counterclockwise, inner clockwise: together they bound the ring
        return [_arc(np.exp(self.lr1), 0.0, _TWO_PI, m), _arc(np.exp(self.lr0), _TWO_PI, 0.0, m)]

    def split(self, rng, jitter):
        t = rng.uniform(0.0, _TWO_PI)
        return [
            _BoxCell(self.lr0, self.lr1, t, t + np.pi),
            _BoxCell(self.lr0, self.lr1, t + np.pi, t + _TWO_PI),
        ]

    def diameter(self):
        return 2.0 * np.exp(self.lr1)

    def center(self):
        return np.exp(0.5 * (self.lr0 + self.lr1))

    def contains(self, z, slack):
        if z == 0:
            return False
        pad = slack * (self.lr1 - self.lr0)
        return self.lr0 - pad <= np.log(abs(z)) <= self.lr1 + pad


class _BoxCell:
    """Annular box in (log r, theta): [lr0, lr1] x [t0, t1]."""

    def __init__(self, lr0, lr1, t0, t1):
        self.lr0, self.lr1, self.t0, self.t1 = lr0, lr1, t0, t1

    def loops(self, m):
        r0, r1 = np.exp(self.lr0), np.exp(self.lr1)
        dt = self.t1 - self.t0
        lengths = np.array([r1 * dt, r1 - r0, r0 * dt, r1 - r0])
        ks = np.maximum((m * lengths / lengths.sum()).astype(int), 4)
        e0, e1 = np.exp(1j * self.t0), np.exp(1j * self.t1)
        loop = np.concatenate(
            [
                _arc(r1, self.t0, self.t1, ks[0]),
                _segment(r1 * e1, r0 * e1, ks[1]),
                _arc(r0, self.t1, self.t0, ks[2]),
                _segment(r0 * e0, r1 * e0, ks[3]),
            ]
        )
        return [loop]

    def split(self, rng, jitter):
        s = rng.uniform(0.35, 0.65) if jitter else 0.5
        if self.t1 - self.t0 >= self.lr1 - self.lr0:
            tm = self.t0 + s * (self.t1 - self.t0)
            return [
                _BoxCell(self.lr0, self.lr1, self.t0, tm),
                _BoxCell(self.lr0, self.lr1, tm, self.t1),
            ]
        lm = self.lr0 + s * (self.lr1 - self.lr0)
        return [_BoxCell(self.lr0, lm, self.t0, self.t1), _BoxCell(lm, self.lr1, self.t0, self.t1)]

    def diameter(self):
        return np.exp(self.lr1) * float(np.hypot(self.lr1 - self.lr0, self.t1 - self.t0))

    def center(self):
        return np.exp(0.5 * (self.lr0 + self.lr1) + 0.5j * (self.t0 + self.t1))

    def contains(self, z, slack):
        if z == 0:
            return False
        dlr, dt = self.lr1 - self.lr0, self.t1 - self.t0
        if not self.lr0 - slack * dlr <= np.log(abs(z)) <= self.lr1 + slack * dlr:
            return False
        a = (np.angle(z) - self.t0 + slack * dt) % _TWO_PI
        return a <= dt * (1.0 + 2.0 * slack)


def _loop_winding(cell, m, evalf, floor):
    """Winding of f along the cell boundary sampled at ~m points, or None."""
    total = 0
    for loop in cell.loops(m):
        vals = evalf(loop)
        if np.min(np.abs(vals)) <= floor:
            return None
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(steps)) >= 0.8 * np.pi:
            return None
        t = float(np.sum(steps)) / _TWO_PI
        w = int(np.round(t))
        if abs(t - w) >= 0.1:
            return None
        total += w
    return total


def _count_in_cell(cell, evalf, floor):
    """Zeros enclosed by the cell boundary, or None when the contour cannot
    certify the count (near-zero on the cut or unresolved phase).

    Small phase steps only certify the sampled polyline, which can lose a
    full turn between samples, so a count is accepted only when it agrees
    with the count at twice the sampling density.
    """
    m = _CONTOUR_POINTS
    prev = _loop_winding(cell, m, evalf, floor)
    while 2 * m <= _MAX_CONTOUR_POINTS:
        m *= 2
        cur = _loop_winding(cell, m, evalf, floor)
        if cur is not None and cur == prev:
            return cur
        prev = cur
    return None


def _polish(cell, mult, evalf, evald, scale):
    diam = max(cell.diameter(), _MIN_CELL)
    z = cell.center()
    try:
        for _ in range(60):
            fz = evalf(np.array([z]))[0]
            if abs(fz) < 1e-15 * scale:
                break
            dfz = evald(np.array([z]))[0]
            if dfz == 0:
                return None
            step = mult * fz / dfz
            if abs(step) > diam:
                step *= diam / abs(step)
            z = z - step
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
        residual = abs(evalf(np.array([z]))[0])
    except PointTooCloseToBoundary:
        return None
    if residual < _POLISH_TOL * scale and cell.contains(z, 0.75):
        return LocatedZero(position=complex(z), multiplicity=mult, residual=float(residual))
    return None


def locate_zeros(traces, domain):
    """Find all zeros of the holomorphic extension, with multiplicities.

    The expected total comes from the boundary winding numbers; the search
    then splits the domain into cells whose contour counts always sum to that
    total, so the result is certified against the boundary data. Raises
    CountMismatch when counts cannot be reconciled.
    """
    traces = _trace_tuple(traces, domain)
    rng = np.random.default_rng(_SEED)

    expected = winding_number(traces[0])
    if isinstance(domain, Annulus):
        expected -= winding_number(traces[1])
    if expected < 0:
        raise CountMismatch(f"boundary windings predict {expected} zeros")
    if expected == 0:
        return []

    scale = max(t.sup() for t in traces)
    floor = 1e-13 * scale
    base_margin = _TWO_PI / min(t.grid.n for t in traces)

    root = None
    for attempt in range(_MARGIN_RETRIES):
        margin = base_margin / 2.0**attempt
        eval_margin = 0.5 * margin

        def evalf(pts, m=eval_margin):
            return cauchy_extend(traces, domain, pts, margin=m)

        def evald(pts, m=eval_margin):
            return cauchy_extend(traces, domain, pts, margin=m, derivative=True)

        if isinstance(domain, Disc):
            candidate = _DiskCell(1.0 - margin)
        else:
            candidate = _RingCell(np.log(domain.q + margin), np.log(1.0 - margin))
        if _count_in_cell(candidate, evalf, floor) == expected:
            root = candidate
            break
    if root is None:
        raise CountMismatch(
            f"interior contour count does not reach the boundary count {expected}"
        )

    zeros = []
    stack = [(root, expected)]
    while stack:
        cell, count = stack.pop()
        if cell.diameter() <= _POLISH_DIAMETER:
            hit = _polish(cell, count, evalf, evald, scale)
            if hit is not None:
                zeros.append(hit)
                continue
            if cell.diameter() <= _MIN_CELL:
                raise CountMismatch("zero cluster failed to polish at the cell-size floor")
        for attempt in range(_JITTER_RETRIES):
            children = cell.split(rng, jitter=attempt > 0)
            counts = [_count_in_cell(ch, evalf, floor) for ch in children]
            if None not in counts and sum(counts) == count:
                stack.extend((ch, c) for ch, c in zip(children, counts) if c > 0)
                break
        else:
            raise CountMismatch("subdivision could not separate zeros cleanly")

    total = sum(z.multiplicity for z in zeros)
    if total != expected:
        raise CountMismatch(f"located {total} zeros, boundary predicts {expected}")
    return sorted(zeros, key=lambda z: (round(abs(z.position), 9), np.angle(z.position)))
