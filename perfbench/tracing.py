"""Spans around calls into rhsolve, recorded from outside the package.

The tracer replaces public functions with timing wrappers in every rhsolve
module namespace that holds them (``from .x import y`` binds ``y`` once per
importing module, so each binding is patched), wraps the ``NewtonProblem``
callbacks that ``newton.certify`` and ``newton.iterate`` receive, and puts
every original back on ``uninstall``. Spans stay in memory until the caller
writes them out.
"""

import dataclasses
import functools
import importlib
import time

# (defining module, attribute) of each traced function; the span is named
# "<module>.<attribute>"
FUNCTIONS = (
    ("boundary", "holder_norms"),
    ("curves", "eta_decompose"),
    ("disc", "solve_disc"),
    ("disc", "right_inverse_apply"),
    ("annulus", "solve_annulus"),
    ("annulus", "solve_annulus_radial"),
    ("domains", "locate_zeros"),
    ("domains", "cauchy_extend"),
    ("analysis", "check_identity"),
    ("analysis", "surjectivity_demo"),
    ("serialize", "dump_json"),
    ("cli", "main"),
)

# (defining module, class, method, span suffix)
METHODS = (
    ("trig", "TrigPolynomial", "__call__", "call"),
    ("pompeiu", "AreaCharge", "__init__", "init"),
    ("pompeiu", "AreaCharge", "evaluate", "evaluate"),
)

MODULES = (
    "analysis",
    "annulus",
    "boundary",
    "cli",
    "curves",
    "disc",
    "domains",
    "newton",
    "pompeiu",
    "serialize",
    "trig",
)


@dataclasses.dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # -1 for a root span
    solve: str
    name: str
    start: float
    end: float


class Tracer:
    """Records spans while installed; ``solve`` tags every span it records."""

    def __init__(self):
        self.spans = []
        self.newton_steps = 0
        self.solve = ""
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(span_id, parent, tracer.solve, name, start, end))

        return traced

    def _traced_problem(self, problem):
        def right_inverse(x):
            apply = self.wrap("newton.right_inverse.build", problem.right_inverse)(x)
            return self.wrap("newton.right_inverse.apply", apply)

        changes = {
            "residual": self.wrap("newton.residual", problem.residual),
            "right_inverse": right_inverse,
        }
        if problem.derivative_action is not None:
            changes["derivative_action"] = self.wrap(
                "newton.derivative_action", problem.derivative_action
            )
        return dataclasses.replace(problem, **changes)

    def _newton_entry(self, name, fn):
        tracer = self
        timed = self.wrap(name, fn)

        @functools.wraps(fn)
        def entry(problem, *args, **kwargs):
            result = timed(tracer._traced_problem(problem), *args, **kwargs)
            if name == "newton.iterate":
                tracer.newton_steps += result.iterations
            return result

        return entry

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod_name in MODULES:
            module = importlib.import_module(f"rhsolve.{mod_name}")
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"rhsolve.{mod_name}"), attr)
            self._patch_everywhere(original, self.wrap(f"{mod_name}.{attr}", original))
        newton = importlib.import_module("rhsolve.newton")
        for attr in ("certify", "iterate"):
            original = getattr(newton, attr)
            self._patch_everywhere(original, self._newton_entry(f"newton.{attr}", original))
        for mod_name, cls_name, method, suffix in METHODS:
            cls = getattr(importlib.import_module(f"rhsolve.{mod_name}"), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{mod_name}.{cls_name}.{suffix}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def originals_restored(snapshot):
    """True when every attribute in ``snapshot`` is its recorded object again."""
    return all(vars(owner)[attr] is value for owner, attr, value in snapshot)


def snapshot_targets():
    """Every (owner, attribute, object) the tracer may patch, as found now."""
    out = []
    for mod_name in MODULES:
        module = importlib.import_module(f"rhsolve.{mod_name}")
        for attr, value in vars(module).items():
            if callable(value):
                out.append((module, attr, value))
    for mod_name, cls_name, method, _ in METHODS:
        cls = getattr(importlib.import_module(f"rhsolve.{mod_name}"), cls_name)
        out.append((cls, method, cls.__dict__[method]))
    return out


def aggregate(spans):
    """Per span name: call count, inclusive seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans plus the time outside any span
    add up to the traced wall time.
    """
    child_time = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = s.end - s.start
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_time.get(s.span_id, 0.0)
    return table


def aggregate_by_solve(spans):
    """``aggregate`` for the spans of each solve (case) separately."""
    groups = {}
    for s in spans:
        groups.setdefault(s.solve, []).append(s)
    return {solve: aggregate(group) for solve, group in groups.items()}
