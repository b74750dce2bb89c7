"""The package ships only what a caller uses: every public top-level
function or class of ``src/surfcolor`` is named somewhere outside its own
definition, by the package itself, the benchmark harness or the
acceptance suite, or else is listed in ``surfcolor.__all__``.  An
oracle that only the unit tests call belongs in a reference module
under ``tests/``."""

import ast
from pathlib import Path

import surfcolor

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "surfcolor").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _references(tree):
    """(identifier, line) of every name and attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    uncalled = []
    for path in PACKAGE:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in surfcolor.__all__:
                continue
            if not any(
                name == node.name and (other != path or not node.lineno <= line <= node.end_lineno)
                for other, found in refs.items()
                for name, line in found
            ):
                uncalled.append("%s.%s" % (path.stem, node.name))
    assert uncalled == [], uncalled
