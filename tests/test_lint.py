"""Source hygiene the repo checks without a linter."""
import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parents[1] / "src" / "mesa").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]  # it imports in order to re-export


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
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
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
    assert unread_private_names(trees) == []


def test_an_unread_private_name_is_found():
    helpers = ("def _by_name():\n    pass\n\n\ndef _by_attribute():\n    pass\n\n\n"
               "def _imported():\n    pass\n\n\nclass _Unread:\n    pass\n\n\n_LIMIT = 3\n")
    caller = "import a\nfrom a import _imported\n\na._by_attribute()\n_by_name()\n"
    trees = {"a.py": ast.parse(helpers), "b.py": ast.parse(caller)}
    assert unread_private_names(trees) == ["a.py:13 _Unread", "a.py:17 _LIMIT"]
