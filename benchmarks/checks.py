"""Output checks of one pipeline pass; each returns a list of problems.

Messages are compared with the generator's gold messages; relations with
``brute_force_oracle`` run on the gold messages of a seeded slice (the
relation of a pair depends only on the pair, so the oracle on a subset
gives exactly the full result restricted to that subset).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ORACLE_SLICE = 240      # messages given to the oracle


def _lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def _message_set(path: Path) -> set[str]:
    return {json.dumps(json.loads(line), sort_keys=True) for line in _lines(path)}


def extract_f1(gold: Path, messages: Path) -> float:
    """F1 of extracted messages against gold; a match needs the same doc,
    sentence, type, args and time."""
    want, got = _message_set(gold), _message_set(messages)
    hits = len(want & got)
    if not hits:
        return 0.0
    precision, recall = hits / len(got), hits / len(want)
    return 2 * precision * recall / (precision + recall)


def check_ingest(out: Path, manifest: dict) -> list[str]:
    records = [json.loads(line) for line in _lines(out / "corpus.jsonl")]
    docs = [r for r in records if "doc_id" in r]
    sentences = sum(len(r["sentences"]) for r in docs)
    if (len(docs), sentences) != (manifest["documents"], manifest["sentences"]):
        return [f"corpus artifact has {len(docs)} documents / {sentences} sentences, "
                f"generated {manifest['documents']} / {manifest['sentences']}"]
    return []


def check_extract(out: Path, manifest: dict) -> list[str]:
    f1 = extract_f1(Path(manifest["gold"]), out / "messages.jsonl")
    return [] if f1 == 1.0 else [f"extracted messages differ from gold (F1 {f1:.4f})"]


def _relation_key(name, axis, left, right, distance):
    return (name, axis, tuple(left), tuple(right), distance)


def check_relate(out: Path, manifest: dict, seed: int) -> list[str]:
    from chronicle.corpus import read_corpus_artifact
    from chronicle.extract import load_gold_messages
    from chronicle.ontology import (load_message_specs, load_ontology,
                                    load_relation_specs)
    from chronicle.relations import brute_force_oracle, parse_window

    ontology = load_ontology(manifest["spec"])
    specs = load_message_specs(manifest["spec"], ontology)
    relation_specs = load_relation_specs(manifest["spec"], specs, ontology)
    corpus = read_corpus_artifact(out / "corpus.jsonl")
    gold = load_gold_messages(manifest["gold"], specs, ontology, corpus)
    picked = random.Random(seed).sample(gold, min(len(gold), ORACLE_SLICE))
    keys = {m.key() for m in picked}
    want = {_relation_key(r.name, r.axis, r.left.key(), r.right.key(), r.distance)
            for r in brute_force_oracle(picked, relation_specs,
                                        parse_window(manifest["window"]))}
    got = set()
    for line in _lines(out / "relations.jsonl"):
        r = json.loads(line)
        left = (r["left"]["doc_id"], r["left"]["sentence_index"])
        right = (r["right"]["doc_id"], r["right"]["sentence_index"])
        if left in keys and right in keys:
            got.add(_relation_key(r["name"], r["axis"], left, right, r.get("distance")))
    if want != got:
        return [f"relations differ from the oracle on a {len(picked)}-message slice: "
                f"{len(want - got)} missing, {len(got - want)} extra"]
    return []


def check_analyze(out: Path, manifest: dict) -> list[str]:
    with open(out / "evolution.json", encoding="utf-8") as fh:
        report = json.load(fh)
    seen = {k: report[k] for k in ("linearity", "emission")}
    return [] if seen == manifest["expect"] else [
        f"evolution is {seen}, the generator made {manifest['expect']}"]


def check_summarize(out: Path, manifest: dict) -> list[str]:
    with open(out / "coverage.json", encoding="utf-8") as fh:
        coverage = json.load(fh)
    problems = []
    relations = len(_lines(out / "relations.jsonl"))
    if len(coverage["consumed"]) != relations:
        problems.append(f"coverage consumes {len(coverage['consumed'])} of "
                        f"{relations} relation instances")
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    if summary != coverage["sentences"] or not summary:
        problems.append("summary text and coverage sentences disagree")
    return problems


def check_outputs(out: Path, manifest: dict, seed: int) -> dict[str, list[str]]:
    """Problems per stage for the artifacts in ``out``."""
    checks = {
        "ingest": lambda: check_ingest(out, manifest),
        "extract": lambda: check_extract(out, manifest),
        "relate": lambda: check_relate(out, manifest, seed),
        "analyze": lambda: check_analyze(out, manifest),
        "summarize": lambda: check_summarize(out, manifest),
    }
    problems = {}
    for stage, check in checks.items():
        try:
            problems[stage] = check()
        except Exception as exc:  # a broken artifact fails its stage's check
            problems[stage] = [f"check raised {type(exc).__name__}: {exc}"]
    return problems
