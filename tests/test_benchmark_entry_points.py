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
import json
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

from chronicle import (cli, corpus, evolution, extract, ontology, relations,
                       summarize, temporal)
from tests.conftest import FIXTURES

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark_module(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = SimpleNamespace(cli=cli, corpus=corpus, evolution=evolution,
                          extract=extract, ontology=ontology,
                          relations=relations, summarize=summarize,
                          temporal=temporal)


def test_every_traced_function_exists(monkeypatch):
    spans = load_benchmark_module("spans", monkeypatch)
    points = spans.patch_points(MODULES)
    assert points
    for module, attr, name, _ in points:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_traced_pipeline_reaches_every_patch_point(monkeypatch, tmp_path):
    """A stage that stops calling a traced function through its module's
    namespace would leave that span's figures at 0 without any error."""
    spans = load_benchmark_module("spans", monkeypatch)
    root = FIXTURES / "hostage"
    domain = ["--ontology", str(root / "domain.spec")]
    out = ["--out-dir", str(tmp_path)]
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        for argv in (
                ["ingest", "--corpus", str(root / "corpus.jsonl"),
                 "--lexicon", str(root / "lexicon.tsv"),
                 "--gazetteer", str(root / "gazetteer.tsv")],
                ["extract", *domain],
                ["relate", *domain, "--window", "1d"],
                ["analyze"],
                ["summarize", *domain, "--templates", str(root / "templates.txt"),
                 "--window", "1d", "--out", str(tmp_path / "summary.txt")]):
            assert cli.main(argv + out) == 0, argv[0]
    finally:
        tracer.uninstall()
    recorded = {name for _, _, name, _, _ in tracer.spans}
    expected = {name for _, _, name, _ in spans.patch_points(MODULES)}
    assert expected - recorded == set()


def test_traced_counts_equal_artifact_counts(monkeypatch, tmp_path):
    """The figures the traced benchmark counts from call results agree with
    the artifacts the same run writes (hostage fixture, rules mode, ``1d``)."""
    spans = load_benchmark_module("spans", monkeypatch)
    root = FIXTURES / "hostage"
    domain = ["--ontology", str(root / "domain.spec")]
    out = ["--out-dir", str(tmp_path)]
    tracer = spans.Tracer()
    tracer.install(MODULES)
    try:
        for argv in (
                ["ingest", "--corpus", str(root / "corpus.jsonl"),
                 "--lexicon", str(root / "lexicon.tsv"),
                 "--gazetteer", str(root / "gazetteer.tsv")],
                ["extract", *domain],
                ["relate", *domain, "--window", "1d"],
                ["analyze"],
                ["summarize", *domain, "--templates", str(root / "templates.txt"),
                 "--window", "1d", "--out", str(tmp_path / "summary.txt")]):
            assert cli.main(argv + out) == 0, argv[0]
    finally:
        tracer.uninstall()

    def lines(name):
        return (tmp_path / name).read_text(encoding="utf-8").splitlines()

    counts = tracer.counts
    messages = len(lines("messages.jsonl"))
    assert counts["extract.messages"] == messages
    assert counts["extract.typed_sentences"] - counts["extract.discarded"] == messages
    axes = [json.loads(line)["axis"] for line in lines("relations.jsonl")]
    assert counts["relations.sync_instances"] == axes.count("synchronic")
    assert counts["relations.dia_instances"] == axes.count("diachronic")
    assert counts["relations.ellipsis_reports"] == len(lines("ellipsis.jsonl"))
    assert counts["summarize.sentences"] == len(lines("summary.txt"))
    rows = [row for line in lines("corpus.jsonl")[1:]
            for sentence in json.loads(line)["sentences"]
            for row in sentence["tokens"]]
    assert counts["corpus.tokens"] == len(rows)
    assert counts["corpus.ne_tokens"] == sum(1 for row in rows if row[2] is not None)
    # one parse of the domain file per stage that reads it
    assert counts["ontology.spec_parses"] == 3


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


def _in_scope(scope):
    """The nodes of ``scope`` outside the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _bound_modules(scope):
    """Local name to ``chronicle`` module for the imports made in ``scope``:
    ``import chronicle.x`` binds ``chronicle``, ``from chronicle import x``
    binds ``x`` when ``x`` is a module."""
    bound = {}
    for node in _in_scope(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chronicle":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["chronicle"] = "chronicle"
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "chronicle":
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(value, ModuleType):
                    bound[alias.asname or alias.name] = value.__name__
    return bound


def chronicle_attribute_uses(path):
    """(module, attribute path) for every attribute read off a ``chronicle``
    module that the file binds by import, as in ``relations.diachronic_pairs``
    after ``from chronicle import relations``, within the function (or
    module) that imports it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        bound = _bound_modules(scope)
        for node in ast.walk(scope):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in bound:
                yield bound[node.id], tuple(reversed(attrs))


def test_every_module_attribute_used_exists():
    uses = [(script, module, attrs)
            for script in ("checks.py", "worker.py", "generate.py")
            for module, attrs in chronicle_attribute_uses(BENCHMARKS / script)]
    assert uses
    for script, module, attrs in uses:
        value = importlib.import_module(module)
        for attr in attrs:
            assert hasattr(value, attr), (script, module, attrs)
            value = getattr(value, attr)


def test_every_stage_command_parses(monkeypatch, tmp_path):
    worker = load_benchmark_module("worker", monkeypatch)
    manifest = {key: str(tmp_path / key) for key in
                ("corpus", "lexicon", "gazetteer", "spec", "templates")}
    manifest["window"] = "1d"
    parser = cli.build_parser()
    for stage, argv in worker.stage_argv(manifest, tmp_path):
        assert parser.parse_args(argv).command == stage
