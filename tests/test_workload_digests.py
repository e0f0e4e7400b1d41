"""Byte identity of every stage's artifacts on the benchmark workloads.

Each case builds one workload of ``benchmarks/generate.py`` at a fixed seed
and scale 1, relate-dense at scale 4 (about 36,000 relations), or
lexicon-wide at seed 1 as well (it draws its domain per seed), runs the
five stages with the arguments the benchmark's worker
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


def digests(workload: str, tmp: Path, scale: float = 1.0,
            seed: int = SEED) -> dict[str, str]:
    with pytest.MonkeyPatch.context() as monkeypatch:
        generate = load_benchmark_module("generate", monkeypatch)
        worker = load_benchmark_module("worker", monkeypatch)
    manifest = generate.generate(workload, seed, scale, tmp / "input")
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


# (workload, scale) -> digests above scale 1
GOLDEN_SCALED = {
    ('relate-dense', 4): {
        'corpus.jsonl':
            '5456231c179284154b9948d35732afc385c74768709eba60f8b83c98bc80dd7d',
        'messages.jsonl':
            '18c61e4d6ca0d45b1d1b2c15b34f562f347c8a72619210930ffb65e7e9201a45',
        'relations.jsonl':
            '5f304ba854be7f5f90f74bc31f26d21496b06d4d31699eebbed649aa70cba7b8',
        'ellipsis.jsonl':
            '751629d51c74ecc8ee7c374ed96bd191ea28e850ad16b8ac6f307eca54cd9e03',
        'evolution.json':
            'b2e9d5abad7f9507c9d4a03cd45b79a8f0f4f4264e40a03622f4057a133d2889',
        'plot.csv':
            '393b99400f9a85f38ffab35b6bb0082f157e412c00e0dd1de77c585e1f772615',
        'summary.txt':
            'cbd35cc0dee3bb397dcdf874bbcd73ae063893ee636bdca45bc83d1a665bc7e2',
        'coverage.json':
            '8203eec2e004a319729e3f1017737b2193dbb427833636ba1a67714edc869f4a',
    },
}


# (workload, seed) -> digests at scale 1 for seeds other than SEED
GOLDEN_SEEDED = {
    ('lexicon-wide', 1): {
        'corpus.jsonl':
            'c55c9963a5d57dc9012436ad9334346ac3d554ab3690f89300f3a2cd6da2c9fd',
        'messages.jsonl':
            'a5fded760c883b2b7ed6b7bdb8673222c3661353648286c1be1fa139292a621f',
        'relations.jsonl':
            '01a12f847bd68073632783d30714a39dbdf4237442a47370507e06f72b8ead02',
        'ellipsis.jsonl':
            '2d0805c67a96a0a15c26ec112a88535ce7eb9aee680730da42e9c3e0dffd9d18',
        'evolution.json':
            '7c027799df5c8e57a219a74f0f8923eeb8ba7420b8eb5f776013cf4c936c4653',
        'plot.csv':
            '595a3d2d55011244623dc0fa63aeda12beac8ddd37604a0ef0a27aeec5fff1ca',
        'summary.txt':
            '7593fa4385d0134050362162cb2da82dc55f9f75e799dcae2834e27959f39cf8',
        'coverage.json':
            '6a9187e11dad968e1cbfd99460241bda712500463548ec0d2072a99446bd5416',
    },
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_artifacts_match_golden_digests(tmp_path, workload):
    assert digests(workload, tmp_path) == GOLDEN[workload]


@pytest.mark.parametrize("workload, scale", list(GOLDEN_SCALED))
def test_scaled_workload_artifacts_match_golden_digests(tmp_path, workload, scale):
    assert digests(workload, tmp_path, scale) == GOLDEN_SCALED[workload, scale]


@pytest.mark.parametrize("workload, seed", list(GOLDEN_SEEDED))
def test_seeded_workload_artifacts_match_golden_digests(tmp_path, workload, seed):
    assert digests(workload, tmp_path, seed=seed) == GOLDEN_SEEDED[workload, seed]


def print_table(title: str, cases: dict) -> None:
    print(f"{title} = {{")
    for case, (workload, scale, seed) in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            table = digests(workload, Path(tmp), scale, seed)
        print(f"    {case!r}: {{")
        for name in ARTIFACTS:
            print(f"        {name!r}:\n            {table[name]!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    print_table("GOLDEN", {workload: (workload, 1.0, SEED) for workload in WORKLOADS})
    print_table("GOLDEN_SCALED", {case: (*case, SEED) for case in GOLDEN_SCALED})
    print_table("GOLDEN_SEEDED", {case: (case[0], 1.0, case[1]) for case in GOLDEN_SEEDED})
