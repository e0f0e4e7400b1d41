"""The runtime imports nothing outside the standard library, neither the
package nor the tests import a name they never use, everything the
package defines is read by the package or the benchmark, and importing
the package loads neither ``dataclasses`` nor ``inspect``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "chronicle"


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


def unused_imports(path: Path):
    """(line, name) for every name an import binds that the file never
    reads, except on imports marked ``# noqa: F401`` (a re-export)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                yield node.lineno, name


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert list(unused_imports(path)) == []


BENCHMARKS = TESTS.parent / "benchmarks"


def unreached_definitions(package_files, reader_files):
    """(file name, line, name) for every function, method or class defined
    in ``package_files`` whose name nothing in ``reader_files`` reads
    outside the definition itself. A read is a ``Name``, an ``Attribute`` or
    an import alias; dunder methods are called by the language. Reads are
    matched by name alone, so a name reused for something else, such as a
    ``counts`` attribute of another class, can mask an unreached
    definition: the check can miss one, but never flags a used one."""
    reads: dict[str, list[tuple[Path, int]]] = {}   # name -> (file, line)
    for path in reader_files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                reads.setdefault(name, []).append((path, node.lineno))
    for path in package_files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in reads.get(node.name, ())):
                yield path.name, node.lineno, node.name


def test_package_defines_only_what_the_pipeline_or_benchmark_reads():
    package = sorted(PACKAGE.glob("*.py"))
    readers = package + sorted(BENCHMARKS.glob("*.py"))
    assert list(unreached_definitions(package, readers)) == []


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Records are named tuples or plain classes (README, Layout): every
    stage is its own process, and ``dataclasses`` would add its own import,
    with ``inspect``, ``ast`` and ``dis``, plus an ``exec`` per decorated
    class, to each. Run under ``-S``, so that only the package's imports
    count, not those of ``.pth`` files."""
    modules = sorted(f"chronicle.{p.stem}" for p in PACKAGE.glob("*.py")
                     if p.stem != "__init__")
    code = (f"import sys, {', '.join(modules)}\n"
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []
