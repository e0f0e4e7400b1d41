"""Byte identity of every stage's artifacts on the benchmark workloads.

Each case builds one workload of ``benchmarks/generate.py`` at a fixed seed
and scale 1, runs the five stages with the arguments the benchmark's worker
gives them (``worker.stage_argv``), and compares the sha256 of all eight
artifacts with the committed table. The benchmark files are loaded by path
and nothing under ``benchmarks/`` is written to. A refactor that must leave
the artifacts unchanged is checked here at the benchmark's own sizes; a
change that means to alter them regenerates the table with

    PYTHONPATH=src python tests/test_workload_digests.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

from chronicle import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
WORKLOADS = ["relate-dense", "lexicon-wide", "diachronic-long"]
SEED = 7
ARTIFACTS = ["corpus.jsonl", "messages.jsonl", "relations.jsonl",
             "ellipsis.jsonl", "evolution.json", "plot.csv", "summary.txt",
             "coverage.json"]


def load_benchmark_module(name: str, monkeypatch: pytest.MonkeyPatch):
    """A benchmark script loaded by path, with ``benchmarks/`` on the path
    and the module registered (a dataclass looks its module up) only while
    ``monkeypatch`` holds."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def digests(workload: str, tmp: Path) -> dict[str, str]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        generate = load_benchmark_module("generate", monkeypatch)
        worker = load_benchmark_module("worker", monkeypatch)
    manifest = generate.generate(workload, SEED, 1.0, tmp / "input")
    out = tmp / "out"
    out.mkdir()
    for stage, argv in worker.stage_argv(manifest, out):
        if cli.main(argv) != 0:
            raise RuntimeError(f"{stage} failed on {workload}")
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


GOLDEN = {
    'relate-dense': {
        'corpus.jsonl':
            'fff681173533f6667aee027c070a584be9fe8a381f52ab21ebd5e0b6b88c73e3',
        'messages.jsonl':
            '0bc96f1be75f5ca76a5fccac148d7b7d3190e249c3ca8b5110b63a8c8d8a8411',
        'relations.jsonl':
            '105e93484efecb3e4848c6b81f3f7b2802f8c98df5a811637968b5221d713c38',
        'ellipsis.jsonl':
            '7f8c67064df2246c2bf371b6ec476f1fe8ad02ef334292cfb1f8974764654856',
        'evolution.json':
            '0e04eab03310ba9a979aa0df99f8230750c8b13bff97ab2afe56003722ff031d',
        'plot.csv':
            '474827a865b682c030bec5a0ed4960570f3b424c2cfe61010b5c953f55a1de8d',
        'summary.txt':
            '9b03ca01f89a2cb0876799bd1dd33938ca44c3333e602356b63b4ca4be3e87ce',
        'coverage.json':
            '2e17c3244781e88c6bf224ed9db4bd15521fb78aaa52e6d2fd3a3d6380fb0aa0',
    },
    'lexicon-wide': {
        'corpus.jsonl':
            '9b9f7452507d481e2d616706e4b1fe5a51b1661c4ddcf7471921472d304ef044',
        'messages.jsonl':
            '8db7fc7f43a17f0a8b073d5c4e933f218b8019f3294346e88b5ff37739ad0040',
        'relations.jsonl':
            '420759634f69d0dde9e734ca76591a61df75a33c3cb5dde4a476b8b484e936f7',
        'ellipsis.jsonl':
            'b9977328d451986d21221fda944e96dbf13217bbf900343d0c2ad7380888032b',
        'evolution.json':
            '7c027799df5c8e57a219a74f0f8923eeb8ba7420b8eb5f776013cf4c936c4653',
        'plot.csv':
            '86fd36311efee3d86db491a1c3c43e6de4ff8203b2c44e1fb1c863cf02cad68c',
        'summary.txt':
            '11179c0f9e2738edd7a61e3b33cf9abdbe860b944bb34c20830bfce9540770e1',
        'coverage.json':
            '8a046ccb3d350f64b5959fe7bd6d162316b5b9de48a3f1ea6d77626d5a3ad2de',
    },
    'diachronic-long': {
        'corpus.jsonl':
            '8b522d7890ff53955b91af2b3beb804ffa8e4e8443e6f793177814bce1f995a8',
        'messages.jsonl':
            '1e8e4a9e0ddf66542fef2c946d0dd29252497bbbf40d761f54454e11c8a9bd25',
        'relations.jsonl':
            '41a69a10e937956503203f2476da956f86f3036873bf66b8d75932310c34c6b2',
        'ellipsis.jsonl':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'evolution.json':
            '7e9374a509c76d07c0849e6661c2658a9df282f5e7d00f0b2c26fc69cc8f014f',
        'plot.csv':
            '654184362afd3d0c0bd00e9c6a7b25e01607300848c89c3a9ac1cb7c120950ee',
        'summary.txt':
            '534f86ea1eac1728c02ff1c9b1eaca41ed662503e13a2a77dbeceeb198fa3c4c',
        'coverage.json':
            '62d0b237b593fb895cedfd11d120c8824cd84f94d6be757384821c8736f9004c',
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_artifacts_match_golden_digests(tmp_path, workload):
    assert digests(workload, tmp_path) == GOLDEN[workload]


if __name__ == "__main__":
    print("GOLDEN = {")
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            table = digests(workload, Path(tmp))
        print(f"    {workload!r}: {{")
        for name in ARTIFACTS:
            print(f"        {name!r}:\n            {table[name]!r},")
        print("    },")
    print("}")
