"""The public surface stays honest: __all__ resolves, and no module imports a name it never uses.

The repo runs no linter, so these two checks stand in for pyflakes' F401 and
F822.  An import kept on purpose (for example, a name looked up in a module by
an outside tool) is marked ``# noqa: F401`` on its line.
"""
import ast
from pathlib import Path

import numpy as np
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


ARRAY_HOLDERS = {
    "ChannelSpec": lambda: orthochan.make_channel(2, 4, 0.5, orthochan.RngStream(0)),
    "ConvexBody": lambda: orthochan.convex_body(2, 2, 0.5),
    "BodyProjection": lambda: orthochan.project_to_body(np.eye(4) / 4, orthochan.convex_body(2, 2, 0.5)),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_dataclasses_compare_by_identity(build):
    # a generated __eq__ compares the arrays inside a tuple and raises; these compare and hash by identity
    x, rebuilt = build(), build()
    assert x == x
    assert x != rebuilt
    assert hash(x) == hash(x) != hash(rebuilt)
