"""Importing rhsolve loads no third-party module but numpy.

Every benchmark set-up starts with the import, so a heavy dependency pulled
in at import time would slow every workload; this fails first.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the top-level names of the modules that the import adds, in a fresh
# interpreter with the source tree first on the path
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import rhsolve, rhsolve.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_no_third_party_module_but_numpy():
    out = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert {"rhsolve", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names - {"rhsolve", "numpy"} == set()
