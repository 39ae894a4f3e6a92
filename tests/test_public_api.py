"""The public surface stays honest: __all__ resolves, no module imports a name it never uses,
and no private function or class is left with no reader.

The repo runs no linter, so these checks stand in for pyflakes' F401 and
F822 and for a dead-code pass.  An import kept on purpose is marked
``# noqa: F401`` on its line, and the only purpose allowed is a lookup by the
benchmark tracer: the (module, name) must be one of ``BOUNDARIES`` in
``perfbench/spans.py``.
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


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_boundaries() -> set[tuple[str, str]]:
    """(module, attribute path) of every entry of BOUNDARIES in perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError(f"no BOUNDARIES in {SPANS}")


def kept_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every import this module keeps on a noqa: F401 line."""
    lines = path.read_text().splitlines()
    return [
        (f"orthochan.{path.stem}", alias.asname or alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def test_kept_imports_are_traced_boundaries():
    # a noqa: F401 import is kept only for the tracer's lookup; once the tracer stops wrapping it, it must go
    boundaries = traced_boundaries()
    assert [kept for path in SOURCES for kept in kept_imports(path) if kept not in boundaries] == []


def unread_private_definitions(paths) -> list[str]:
    """Private functions and classes defined in these modules whose names no module reads."""
    defined = set()
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry.split(":")[1] not in read)


def test_no_unread_private_definitions():
    assert unread_private_definitions(SOURCES) == []


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
