"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chronicle"


def imported_modules(path: Path):
    """(line, top-level module name) for every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"chronicle"}
    outside = [(line, name) for line, name in imported_modules(path)
               if name not in allowed]
    assert outside == []
