"""The package ships only what a caller uses: every public top-level
function or class of ``src/surfcolor`` is named somewhere outside its own
definition, by the package itself, the benchmark harness or the
acceptance suite, or else is listed in ``surfcolor.__all__``; so is
every public module-level alias ``name = other_name``; and so is every
public method or property of a top-level class, whether or not the
class is listed.  An oracle that only the unit tests call belongs in
a reference module under ``tests/``."""

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


def _alias(node):
    """The name a module-level ``name = other_name`` binds, else None."""
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Name)
    ):
        return node.targets[0].id
    return None


def _definitions(tree):
    """(node, identifier, label) of every public top-level function,
    class or alias of the tree that ``surfcolor.__all__`` does not list,
    and of every public method or property of a top-level class, listed
    or not."""
    for node in tree.body:
        name = _alias(node)
        if name is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        if name is None or name.startswith("_"):
            continue
        if name not in surfcolor.__all__:
            yield node, name, name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield method, method.name, "%s.%s" % (node.name, method.name)


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in CALLERS}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    uncalled = []
    for path in PACKAGE:
        for node, name, label in _definitions(trees[path]):
            if not any(
                ref == name and (other != path or not node.lineno <= line <= node.end_lineno)
                for other, found in refs.items()
                for ref, line in found
            ):
                uncalled.append("%s.%s" % (path.stem, label))
    assert uncalled == [], uncalled
