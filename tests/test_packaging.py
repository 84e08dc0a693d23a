"""Packaging consistency: the package's version is the manifest's, its
modules import nothing the manifest does not declare, and ``__all__`` names
exactly what the package binds."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import trievolve

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
INIT = Path(trievolve.__file__)
SOURCES = sorted(INIT.parent.glob("*.py"))


def _project() -> dict:
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]


def test_version_matches_pyproject():
    # manifest.json's tool_version reports trievolve.__version__.
    assert trievolve.__version__ == _project()["version"]


def test_imports_are_stdlib_declared_or_relative():
    declared = {re.match(r"[\w.-]+", dep).group() for dep in _project()["dependencies"]}
    allowed = sys.stdlib_module_names | declared
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                top = name.partition(".")[0]
                assert top in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_all_lists_exactly_the_public_bindings():
    # A name bound at the top of __init__.py is public unless it starts with
    # one underscore; dunders such as __version__ are public, __all__ aside.
    bound = set()
    for node in ast.parse(INIT.read_text(encoding="utf-8"), str(INIT)).body:
        if isinstance(node, ast.Import | ast.ImportFrom):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {n for n in bound if not n.startswith("_") or n.endswith("__")}
    exported = trievolve.__all__
    assert len(set(exported)) == len(exported), "__all__ repeats a name"
    assert set(exported) == public - {"__all__"}
    for name in exported:
        assert hasattr(trievolve, name), f"__all__ names unbound {name}"
