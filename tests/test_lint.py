"""Source hygiene the repo checks without a linter."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "mesa").glob("*.py")
                 if p.name != "__init__.py")  # the package module imports in order to re-export


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
