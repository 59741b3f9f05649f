"""Every name a library module imports is used in that module.

Each ``src/zeemac/*.py`` is parsed with ``ast``; a name bound by an
``import`` or ``from ... import`` statement must occur as a name somewhere
else in the module (a bare name or the base of an attribute).  The package
``__init__.py`` re-exports its imports and is exempt, as are
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "zeemac"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nprint(path.join, sep)\n"
    assert unused_imports(source) == [(2, "math")]
