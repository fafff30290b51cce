"""Every function and method of lpns has a caller in the package.

A function (module level) or method (class level) defined in ``src/lpns``,
public or private but not a dunder, must be referenced in ``src/lpns``
outside its own definition and ``__init__.py``, unless
``tests/test_acceptance.py`` imports it.  An export from ``__init__.py`` is
not a caller, and neither is a test: a private helper kept only for tests
fails the guard.  References are matched by name, as a bare name or an
attribute, so a method shares its references with every attribute of that
name (``copy`` is one); the guard finds what no name reaches.
"""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "lpns"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(qualified name, node) of each module-level function and method, dunders excepted."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and not is_dunder(node.name):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def references(tree, found):
    """Add to found[name] the set of enclosing function nodes of each Name and
    Attribute in tree."""
    def visit(node, enclosing):
        if isinstance(node, FUNCTIONS):
            enclosing = enclosing | {node}
        if isinstance(node, ast.Name):
            found[node.id].append(enclosing)
        elif isinstance(node, ast.Attribute):
            found[node.attr].append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())


def acceptance_imports():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lpns")
            for alias in node.names}


def uncalled(package=PACKAGE):
    """Functions and methods of the package that nothing reaches."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    found = defaultdict(list)
    for tree in trees.values():
        references(tree, found)
    imported = acceptance_imports()
    return [f"{module}.{qualname}"
            for module, tree in trees.items()
            for qualname, node in definitions(tree)
            if node.name not in imported
            and not any(node not in enclosing for enclosing in found[node.name])]


def test_every_public_function_has_a_caller():
    assert uncalled() == []


def test_guard_reports_a_function_only_its_own_body_calls(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import used, dead\n")
    (tmp_path / "mod.py").write_text(
        "def used():\n    return Box()._hidden()\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else used()\n\n\n"
        "def _kept_for_tests():\n    return 2\n\n\n"
        "class Box:\n    def size(self):\n        return 0\n\n    def _hidden(self):\n"
        "        return self.size()\n\n    def __len__(self):\n        return 0\n")
    assert uncalled(tmp_path) == ["mod.dead", "mod._kept_for_tests"]
