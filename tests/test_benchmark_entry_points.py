"""The names and flags of ``chronicle`` that the benchmark under
``benchmarks/`` relies on.

The benchmark wraps module attributes from outside the package and drives
the CLI with fixed argument lists, so renaming or removing one of them
breaks ``benchmarks/run.py`` (often only its traced mode) without failing
any other test.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from chronicle import (cli, corpus, evolution, extract, ontology, relations,
                       summarize, temporal)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark_module(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    spans = load_benchmark_module("spans", monkeypatch)
    modules = SimpleNamespace(cli=cli, corpus=corpus, evolution=evolution,
                              extract=extract, ontology=ontology,
                              relations=relations, summarize=summarize,
                              temporal=temporal)
    points = spans.patch_points(modules)
    assert points
    for module, attr, name, _ in points:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def chronicle_imports(path):
    """(module, name) for every ``from chronicle... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "chronicle":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("script", ["checks.py", "worker.py", "generate.py"])
def test_every_imported_name_exists(script):
    names = list(chronicle_imports(BENCHMARKS / script))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (script, module, name)


def test_every_stage_command_parses(monkeypatch, tmp_path):
    worker = load_benchmark_module("worker", monkeypatch)
    manifest = {key: str(tmp_path / key) for key in
                ("corpus", "lexicon", "gazetteer", "spec", "templates")}
    manifest["window"] = "1d"
    parser = cli.build_parser()
    for stage, argv in worker.stage_argv(manifest, tmp_path):
        assert parser.parse_args(argv).command == stage
