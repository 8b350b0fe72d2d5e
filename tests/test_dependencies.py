"""The dependency rule: the library imports only the standard library and numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import microloc

ALLOWED = {"numpy"}


def test_src_imports_only_stdlib_and_numpy():
    paths = sorted(Path(microloc.__file__).parent.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | ALLOWED]
    assert outside == []
