"""Guard on the public surface: no public function or class exists only for its own tests.

Every public module-level function and class of rhsolve must be referenced,
outside its own definition, by the package itself, by the benchmark
(perfbench/*.py) or by the acceptance suite. Unit tests alone do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rhsolve"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _names(node):
    """Every name node refers to: loaded or bound, imported, or read as an attribute."""
    found = set()
    for item in ast.walk(node):
        if isinstance(item, ast.Name):
            found.add(item.id)
        elif isinstance(item, ast.Attribute):
            found.add(item.attr)
        elif isinstance(item, ast.alias):
            found.add(item.name)
    return found


def test_every_public_definition_has_a_reader_beyond_its_tests():
    # the names each top-level statement of each reader refers to
    statements = {}
    for path in READERS:
        for index, node in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            statements[path, index] = (node, _names(node))
    unread = []
    for (path, index), (node, _) in statements.items():
        public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        if path.parent != PACKAGE or not public:
            continue
        if not any(node.name in names for key, (_, names) in statements.items() if key != (path, index)):
            unread.append(f"{path.stem}.{node.name}")
    assert unread == []
