"""The bench tracer's targets exist in rhsolve.

perfbench/tracing.py names the functions and methods it wraps by module and
attribute. A rename in rhsolve that leaves a stale name there would crash the
traced bench run; this test fails first. It only reads perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve_in_rhsolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in tracing.MODULES:
        importlib.import_module(f"rhsolve.{module}")
    for module, attribute in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"rhsolve.{module}"), attribute))
    for module, owner, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"rhsolve.{module}"), owner)
        assert callable(getattr(cls, method))
