"""The public surface stays honest: __all__ resolves, and no module imports a name it never uses.

The repo runs no linter, so these two checks stand in for pyflakes' F401 and
F822.  An import kept on purpose (for example, a name looked up in a module by
an outside tool) is marked ``# noqa: F401`` on its line.
"""
import ast
from pathlib import Path

import pytest

import orthochan

SOURCES = sorted(Path(orthochan.__file__).parent.glob("*.py"))


def test_all_names_resolve():
    assert [name for name in orthochan.__all__ if not hasattr(orthochan, name)] == []


def unused_imports(path: Path) -> list[str]:
    """Names the module imports and never reads, bar those on a noqa: F401 line."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # a name re-exported through __all__ counts as read
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []
