"""Byte identity of every stage's artifacts on both fixtures.

Each case runs the full CLI pipeline (ingest with lexicon and gazetteer,
extract in one mode, relate, analyze, summarize at one window) and compares
the sha256 of all eight artifacts with the committed table. A speed-up or
refactor that must leave the artifacts unchanged is checked here; a change
that means to alter them regenerates the table with

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from pathlib import Path

import pytest

from chronicle import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ARTIFACTS = ["corpus.jsonl", "messages.jsonl", "relations.jsonl",
             "ellipsis.jsonl", "evolution.json", "plot.csv", "summary.txt",
             "coverage.json"]

CASES = [(domain, mode, window)
         for domain, modes in (("football", ("rules", "gold")),
                               ("hostage", ("rules", "gold", "statistical")))
         for mode in modes for window in ("0", "1d")]


def digests(domain: str, mode: str, window: str, out_dir: Path) -> dict[str, str]:
    root = FIXTURES / domain
    spec = ["--ontology", root / "domain.spec"]
    tables = ["--lexicon", root / "lexicon.tsv", "--gazetteer", root / "gazetteer.tsv"]
    extra = {"rules": [],
             "gold": ["--gold", root / "gold_messages.jsonl"],
             "statistical": ["--train", root / "train.jsonl", *tables]}[mode]
    for argv in (["ingest", "--corpus", root / "corpus.jsonl", *tables],
                 ["extract", *spec, "--mode", mode, *extra],
                 ["relate", *spec, "--window", window],
                 ["analyze"],
                 ["summarize", *spec, "--templates", root / "templates.txt",
                  "--window", window, "--out", out_dir / "summary.txt"]):
        if cli.main([str(a) for a in [*argv, "--out-dir", out_dir]]) != 0:
            raise RuntimeError(f"{argv[0]} failed on {domain} {mode} {window}")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


GOLDEN = {
    ('football', 'rules', '0'): {
        'corpus.jsonl':
            'aea1d0bbbbd5932afb8c1d70311aa752b6dafed9a9e253d4eaf8d9b1b02c9852',
        'messages.jsonl':
            '4fa95fdbaa4fddd500395eb3283a83b0468bd8dfd48136ef198d90cb6ccfb27b',
        'relations.jsonl':
            '9461cd40112c01876e301812c5b752d8d2711b90b182772a7e16e233d56debbf',
        'ellipsis.jsonl':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'evolution.json':
            'a2497ee77e378d8d1f74b3c878b2cca089596c147a046685d40d105c399f38b4',
        'plot.csv':
            '2289a2994c16ce609e76790493950384a20e65e125d745ee9eb6efe540db9172',
        'summary.txt':
            'fadcce68f9102e4cc86e67010170ff455055e14d133c4cf4197163b5f8dd3cc9',
        'coverage.json':
            '706b6d93a9d0d54cff97e278afe0d203dfc39048210018dcb0a29c6e887151d4',
    },
    ('football', 'rules', '1d'): {
        'corpus.jsonl':
            'aea1d0bbbbd5932afb8c1d70311aa752b6dafed9a9e253d4eaf8d9b1b02c9852',
        'messages.jsonl':
            '4fa95fdbaa4fddd500395eb3283a83b0468bd8dfd48136ef198d90cb6ccfb27b',
        'relations.jsonl':
            '9461cd40112c01876e301812c5b752d8d2711b90b182772a7e16e233d56debbf',
        'ellipsis.jsonl':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'evolution.json':
            'a2497ee77e378d8d1f74b3c878b2cca089596c147a046685d40d105c399f38b4',
        'plot.csv':
            '2289a2994c16ce609e76790493950384a20e65e125d745ee9eb6efe540db9172',
        'summary.txt':
            'fadcce68f9102e4cc86e67010170ff455055e14d133c4cf4197163b5f8dd3cc9',
        'coverage.json':
            '706b6d93a9d0d54cff97e278afe0d203dfc39048210018dcb0a29c6e887151d4',
    },
    ('football', 'gold', '0'): {
        'corpus.jsonl':
            'aea1d0bbbbd5932afb8c1d70311aa752b6dafed9a9e253d4eaf8d9b1b02c9852',
        'messages.jsonl':
            '4fa95fdbaa4fddd500395eb3283a83b0468bd8dfd48136ef198d90cb6ccfb27b',
        'relations.jsonl':
            '9461cd40112c01876e301812c5b752d8d2711b90b182772a7e16e233d56debbf',
        'ellipsis.jsonl':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'evolution.json':
            'a2497ee77e378d8d1f74b3c878b2cca089596c147a046685d40d105c399f38b4',
        'plot.csv':
            '2289a2994c16ce609e76790493950384a20e65e125d745ee9eb6efe540db9172',
        'summary.txt':
            'fadcce68f9102e4cc86e67010170ff455055e14d133c4cf4197163b5f8dd3cc9',
        'coverage.json':
            '706b6d93a9d0d54cff97e278afe0d203dfc39048210018dcb0a29c6e887151d4',
    },
    ('football', 'gold', '1d'): {
        'corpus.jsonl':
            'aea1d0bbbbd5932afb8c1d70311aa752b6dafed9a9e253d4eaf8d9b1b02c9852',
        'messages.jsonl':
            '4fa95fdbaa4fddd500395eb3283a83b0468bd8dfd48136ef198d90cb6ccfb27b',
        'relations.jsonl':
            '9461cd40112c01876e301812c5b752d8d2711b90b182772a7e16e233d56debbf',
        'ellipsis.jsonl':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'evolution.json':
            'a2497ee77e378d8d1f74b3c878b2cca089596c147a046685d40d105c399f38b4',
        'plot.csv':
            '2289a2994c16ce609e76790493950384a20e65e125d745ee9eb6efe540db9172',
        'summary.txt':
            'fadcce68f9102e4cc86e67010170ff455055e14d133c4cf4197163b5f8dd3cc9',
        'coverage.json':
            '706b6d93a9d0d54cff97e278afe0d203dfc39048210018dcb0a29c6e887151d4',
    },
    ('hostage', 'rules', '0'): {
        'corpus.jsonl':
            '5ed090d1510690782c08b2485f2421528e2abd053a202ad7e92fe11eb0890236',
        'messages.jsonl':
            '8b842f06e0a4b67bd38013f106e66755f03cb4647aebc88eda6f811748285ceb',
        'relations.jsonl':
            'ce8d5b55d285b95372007fc156be5f4f8903d6d4df02e7ada1698dfb5ff067e3',
        'ellipsis.jsonl':
            '92deb671ff9c079daa11d8415e29bff968a7325c84e7a8a73c8c19ccea7ecb48',
        'evolution.json':
            'f94c98d9d250f8e12ddeb485355d950a1f1b215338c69e89d7ce32a057c8ee16',
        'plot.csv':
            'a31543287107475ba0e025ab1607bc66c177074a6430ff7640a44dad01d76f7e',
        'summary.txt':
            'da6b8d600e4f8a00ae0635e9ecb9e68921ec5560df2834cf7a8bb499f0f3172d',
        'coverage.json':
            '395d81bba34b0892d21afe20c1f0e6e8e8113d52766585494c2a94fbff5b9b17',
    },
    ('hostage', 'rules', '1d'): {
        'corpus.jsonl':
            '5ed090d1510690782c08b2485f2421528e2abd053a202ad7e92fe11eb0890236',
        'messages.jsonl':
            '8b842f06e0a4b67bd38013f106e66755f03cb4647aebc88eda6f811748285ceb',
        'relations.jsonl':
            '585a7fee832f382787b23d6c96507012d31f171dab29d4a300646c1ff8948512',
        'ellipsis.jsonl':
            '7a023c6214402cf25250ff587f0c364fd077c3c3acf6b55ab74cb5c88731db0e',
        'evolution.json':
            'f94c98d9d250f8e12ddeb485355d950a1f1b215338c69e89d7ce32a057c8ee16',
        'plot.csv':
            'a31543287107475ba0e025ab1607bc66c177074a6430ff7640a44dad01d76f7e',
        'summary.txt':
            'fe09795fafa2aa08661527c79d4bb10480ad47f000def11222b87e7d4d0bc343',
        'coverage.json':
            '0918c263b5c7bec59b0243254e0dc965ad6981f777984551bde8994d6d429ea2',
    },
    ('hostage', 'gold', '0'): {
        'corpus.jsonl':
            '5ed090d1510690782c08b2485f2421528e2abd053a202ad7e92fe11eb0890236',
        'messages.jsonl':
            'e5a70c3250ec0d62a235c2c8b8cfb094ae09bffd5d409d176e17392fcb6c7109',
        'relations.jsonl':
            'ce8d5b55d285b95372007fc156be5f4f8903d6d4df02e7ada1698dfb5ff067e3',
        'ellipsis.jsonl':
            '92deb671ff9c079daa11d8415e29bff968a7325c84e7a8a73c8c19ccea7ecb48',
        'evolution.json':
            'f94c98d9d250f8e12ddeb485355d950a1f1b215338c69e89d7ce32a057c8ee16',
        'plot.csv':
            'a31543287107475ba0e025ab1607bc66c177074a6430ff7640a44dad01d76f7e',
        'summary.txt':
            'da6b8d600e4f8a00ae0635e9ecb9e68921ec5560df2834cf7a8bb499f0f3172d',
        'coverage.json':
            '395d81bba34b0892d21afe20c1f0e6e8e8113d52766585494c2a94fbff5b9b17',
    },
    ('hostage', 'gold', '1d'): {
        'corpus.jsonl':
            '5ed090d1510690782c08b2485f2421528e2abd053a202ad7e92fe11eb0890236',
        'messages.jsonl':
            'e5a70c3250ec0d62a235c2c8b8cfb094ae09bffd5d409d176e17392fcb6c7109',
        'relations.jsonl':
            '585a7fee832f382787b23d6c96507012d31f171dab29d4a300646c1ff8948512',
        'ellipsis.jsonl':
            '7a023c6214402cf25250ff587f0c364fd077c3c3acf6b55ab74cb5c88731db0e',
        'evolution.json':
            'f94c98d9d250f8e12ddeb485355d950a1f1b215338c69e89d7ce32a057c8ee16',
        'plot.csv':
            'a31543287107475ba0e025ab1607bc66c177074a6430ff7640a44dad01d76f7e',
        'summary.txt':
            'fe09795fafa2aa08661527c79d4bb10480ad47f000def11222b87e7d4d0bc343',
        'coverage.json':
            '0918c263b5c7bec59b0243254e0dc965ad6981f777984551bde8994d6d429ea2',
    },
    ('hostage', 'statistical', '0'): {
        'corpus.jsonl':
            '5ed090d1510690782c08b2485f2421528e2abd053a202ad7e92fe11eb0890236',
        'messages.jsonl':
            '1a2383e9c841b6fd5e45f34333dc3dc84cdfc885681ac4f1025d2339cb92a53a',
        'relations.jsonl':
            '7793d3741dcb35f609a4162b4a52ad0f3e791fb73ab9bc5197dea95dbe34865d',
        'ellipsis.jsonl':
            'a14b917644b9713fab2a9077f25b97e1daeedc217bbda6ba765c1849f19a72c3',
        'evolution.json':
            'f94c98d9d250f8e12ddeb485355d950a1f1b215338c69e89d7ce32a057c8ee16',
        'plot.csv':
            'a31543287107475ba0e025ab1607bc66c177074a6430ff7640a44dad01d76f7e',
        'summary.txt':
            '85660ef89bc7492d1e6fc16e973da5c973c774176b39de8882582a9f21b7155d',
        'coverage.json':
            'b982ef1cbd7693963ca08f7138a52dbf1d438dff3d609738c9b70b3fc6cd6d33',
    },
    ('hostage', 'statistical', '1d'): {
        'corpus.jsonl':
            '5ed090d1510690782c08b2485f2421528e2abd053a202ad7e92fe11eb0890236',
        'messages.jsonl':
            '1a2383e9c841b6fd5e45f34333dc3dc84cdfc885681ac4f1025d2339cb92a53a',
        'relations.jsonl':
            '1a2641f06b192f60dec25aabb2f07b3df8bc9e37dd3338bf5e52c378ae486841',
        'ellipsis.jsonl':
            'f54bd0b96401084f09b8a932c8f0d3ac8486166e7f65365add202596040cefb6',
        'evolution.json':
            'f94c98d9d250f8e12ddeb485355d950a1f1b215338c69e89d7ce32a057c8ee16',
        'plot.csv':
            'a31543287107475ba0e025ab1607bc66c177074a6430ff7640a44dad01d76f7e',
        'summary.txt':
            'f6b0a85eafa5086ad9abe83e90f8de74017ec4729ffc9144ad40d913a8da616e',
        'coverage.json':
            'f3028e1e0d021cf1957d8afb66f3bc5aa8eae53564b5c002107348e73e618102',
    },
}


@pytest.mark.parametrize("domain,mode,window", CASES)
def test_artifacts_match_golden_digests(tmp_path, domain, mode, window):
    assert digests(domain, mode, window, tmp_path) == GOLDEN[domain, mode, window]


def shuffle_lines(path: Path, rng: random.Random, movable) -> None:
    """Permute the lines ``movable`` accepts among their own positions."""
    lines = path.read_text().splitlines()
    slots = [i for i, line in enumerate(lines) if movable(line)]
    moved = [lines[i] for i in slots]
    rng.shuffle(moved)
    for i, line in zip(slots, moved):
        lines[i] = line
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_declaration_order_leaves_artifacts_unchanged(tmp_path, monkeypatch,
                                                      domain, seed):
    """The concept, instance and scale lines of the domain file, and the
    lines of the gazetteer and lexicon, may come in any order."""
    rng = random.Random(seed)
    root = tmp_path / "fixtures" / domain
    shutil.copytree(FIXTURES / domain, root)
    shuffle_lines(root / "domain.spec", rng,
                  lambda line: line.split(" ", 1)[0] in ("concept", "instance",
                                                          "scale"))
    for table in ("gazetteer.tsv", "lexicon.tsv"):
        shuffle_lines(root / table, rng,
                      lambda line: line.strip() and not line.startswith("#"))
    monkeypatch.setattr(f"{__name__}.FIXTURES", tmp_path / "fixtures")
    for case in CASES:
        if case[0] == domain:
            out = tmp_path / "-".join(case)
            assert digests(*case, out) == GOLDEN[case], case


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            table = digests(*case, Path(tmp))
        print(f"    {case!r}: {{")
        for name in ARTIFACTS:
            print(f"        {name!r}:\n            {table[name]!r},")
        print("    },")
    print("}")
