"""The dependency rules: the library imports only the standard library and
numpy, and the tests import only what the ``test`` extra installs besides."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import microloc

ALLOWED = {"numpy"}
ROOT = Path(__file__).resolve().parents[1]


def _imports(paths: list[Path]) -> list[tuple[str, str]]:
    """("file:line", top-level module) for each absolute import in the files."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name.partition(".")[0]) for name in names]
    return found


def test_src_imports_only_stdlib_and_numpy():
    paths = sorted(Path(microloc.__file__).parent.glob("*.py"))
    assert paths
    outside = [f"{where}: {name}" for where, name in _imports(paths)
               if name not in sys.stdlib_module_names | ALLOWED]
    assert outside == []


def test_tests_import_only_the_test_extra_and_the_project_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    installed = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}
    paths = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in paths} | {"microloc"}
    outside = [f"{where}: {name}" for where, name in _imports(paths)
               if name not in sys.stdlib_module_names | local | installed]
    assert outside == []
