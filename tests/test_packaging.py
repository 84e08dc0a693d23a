"""Packaging consistency: the package's version is the manifest's, and its
modules import nothing the manifest does not declare."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import trievolve

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SOURCES = sorted(Path(trievolve.__file__).parent.glob("*.py"))


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
