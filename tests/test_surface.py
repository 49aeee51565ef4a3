"""Guard on the public surface: no public function or class exists only for its own tests.

Every public module-level function and class of rhsolve must be referenced,
outside its own definition, by the package itself, by the benchmark
(perfbench/*.py) or by the acceptance suite. Unit tests alone do not count.
Likewise every NewtonProblem field must be passed by the package or the
acceptance suite: a callback that no problem supplies is dead code in newton.
"""

import ast
import dataclasses
from pathlib import Path

from rhsolve.newton import NewtonProblem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rhsolve"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _names(node, by_string=False):
    """Every name node refers to: loaded or bound, imported, or read as an attribute.

    With by_string, a string constant also names what it spells: the bench's
    tracer wraps the functions it lists as (module, attribute) strings.
    """
    found = set()
    for item in ast.walk(node):
        if isinstance(item, ast.Name):
            found.add(item.id)
        elif isinstance(item, ast.Attribute):
            found.add(item.attr)
        elif isinstance(item, ast.alias):
            found.add(item.name)
        elif by_string and isinstance(item, ast.Constant) and isinstance(item.value, str):
            found.add(item.value)
    return found


def test_every_public_definition_has_a_reader_beyond_its_tests():
    # the names each top-level statement of each reader refers to
    statements = {}
    for path in READERS:
        for index, node in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            statements[path, index] = (node, _names(node, by_string=path.parent.name == "perfbench"))
    unread = []
    for (path, index), (node, _) in statements.items():
        public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        if path.parent != PACKAGE or not public:
            continue
        if not any(node.name in names for key, (_, names) in statements.items() if key != (path, index)):
            unread.append(f"{path.stem}.{node.name}")
    assert unread == []


def test_every_newton_problem_field_is_passed_by_a_problem():
    # keyword arguments anywhere in the package or the acceptance suite,
    # including those of a dict spread into NewtonProblem(**...)
    passed = set()
    for path in sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        passed |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
    assert [field.name for field in dataclasses.fields(NewtonProblem) if field.name not in passed] == []
