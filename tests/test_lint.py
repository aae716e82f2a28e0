"""Source hygiene the repo checks without a linter: in the package and the
tests, no unused import; in the package, no unread private name; in the
tests, one definition of each helper, which no test module imports from
another."""
import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parents[1] / "src" / "mesa").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]  # it imports in order to re-export
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def parse(paths) -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def unused_imports(tree: ast.Module) -> list[str]:
    """``line name`` for each name the module imports and no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(ast.parse(source)) == ["2 math"]


def unread_private_names(trees: dict) -> list[str]:
    """``file:line name`` for each top-level ``_name`` that no module of ``trees`` reads.

    A name is read where it appears as a loaded ``ast.Name``, as the
    attribute of an ``ast.Attribute`` or in a ``from ... import``.
    """
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{file}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_no_private_name_outlives_its_last_reader():
    assert unread_private_names(parse(PACKAGE)) == []


def test_an_unread_private_name_is_found():
    helpers = ("def _by_name():\n    pass\n\n\ndef _by_attribute():\n    pass\n\n\n"
               "def _imported():\n    pass\n\n\nclass _Unread:\n    pass\n\n\n_LIMIT = 3\n")
    caller = "import a\nfrom a import _imported\n\na._by_attribute()\n_by_name()\n"
    trees = {"a.py": ast.parse(helpers), "b.py": ast.parse(caller)}
    assert unread_private_names(trees) == ["a.py:13 _Unread", "a.py:17 _LIMIT"]


def imported_test_modules(trees: dict) -> list[str]:
    """``file:line module`` for each import of a ``test_*`` module in ``trees``.

    A helper two test modules share is defined once, in ``oracles``, not
    borrowed from a test module that happens to define it.
    """
    found = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            else:
                continue
            found += [f"{file}:{node.lineno} {module}" for module in modules
                      if module.partition(".")[0].startswith("test_")]
    return found


def test_no_test_module_imports_another():
    assert imported_test_modules(parse(TESTS)) == []


def test_an_import_of_a_test_module_is_found():
    source = ("import oracles\nimport test_io\nfrom testing import case\n"
              "from test_selection import scan\n\n\ndef f():\n    import test_cli\n")
    assert imported_test_modules({"a.py": ast.parse(source)}) == [
        "a.py:2 test_io", "a.py:4 test_selection", "a.py:8 test_cli"]


def helpers_defined_twice(trees: dict) -> list[str]:
    """``name file:line ...`` for each module-level helper ``trees`` define more than once.

    A helper is a top-level function whose name does not start with ``test_``.
    """
    defined = {}
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("test_"):
                    defined.setdefault(node.name, []).append(f"{file}:{node.lineno}")
    return [f"{name} {' '.join(where)}" for name, where in sorted(defined.items())
            if len(where) > 1]


def test_no_helper_is_defined_in_two_test_modules():
    assert helpers_defined_twice(parse(TESTS)) == []


def test_a_helper_defined_twice_is_found():
    first = "def drain():\n    pass\n\n\ndef test_a():\n    def outcome():\n        pass\n"
    second = "def test_a():\n    pass\n\n\ndef outcome():\n    pass\n\n\ndef drain():\n    pass\n"
    trees = {"a.py": ast.parse(first), "b.py": ast.parse(second)}
    assert helpers_defined_twice(trees) == ["drain a.py:1 b.py:9"]
