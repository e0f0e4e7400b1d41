"""The event as it evolves: ``relate`` on a publish-time prefix of a corpus.

Cut a corpus at a publish time T, keeping every document published at or
before T and the messages of those documents. Each source numbers its
reports in publish order, so a prefix keeps every kept report's index, and
a relation depends only on its two messages, the window and those indices.
So:

- relations commute with the cut: the prefix's relations are exactly the
  full run's relations whose two messages both lie in the prefix, in the
  same order;
- ellipsis need not commute, since a later report about an earlier
  incident can make a source heard. For each prefix message, the full
  run's silent sources that are sources of the prefix corpus are a subset
  of the prefix run's silent sources. A source that first publishes after
  T is silent in the full run and absent from the prefix corpus, so it is
  left out. Buckets are not compared: they may shift as gaps fill.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from chronicle import cli
from chronicle.corpus import parse_rfc3339
from chronicle.relations import detect_ellipsis, evaluate_relations
from tests.conftest import FIXTURES
from tests.test_relations import random_trial


def relate_fixture(domain, corpus_lines, gold_lines, window, out_dir):
    """``ingest``, gold ``extract`` and ``relate`` on the given raw corpus
    and gold lines; the run's relation lines, and its silent sources per
    (doc_id, sentence_index)."""
    root = FIXTURES / domain
    out_dir.mkdir()
    (out_dir / "raw.jsonl").write_text("".join(corpus_lines), encoding="utf-8")
    (out_dir / "gold.jsonl").write_text("".join(gold_lines), encoding="utf-8")
    for argv in (["ingest", "--corpus", out_dir / "raw.jsonl"],
                 ["extract", "--ontology", root / "domain.spec",
                  "--mode", "gold", "--gold", out_dir / "gold.jsonl"],
                 ["relate", "--ontology", root / "domain.spec", "--window", window]):
        assert cli.main([str(a) for a in [*argv, "--out-dir", out_dir]]) == 0, argv[0]
    relations = (out_dir / "relations.jsonl").read_text(encoding="utf-8").splitlines()
    reports = (out_dir / "ellipsis.jsonl").read_text(encoding="utf-8").splitlines()
    silent = {(r["doc_id"], r["sentence_index"]): set(r["silent_sources"])
              for r in map(json.loads, reports)}
    return relations, silent


@pytest.mark.parametrize("window", ["0", "1d"])
@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_relate_on_a_publish_time_prefix(tmp_path, domain, window):
    """Every cut at a publish time before the last, on both fixtures."""
    root = FIXTURES / domain
    corpus_lines = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines(True)
    gold_lines = (root / "gold_messages.jsonl").read_text(encoding="utf-8").splitlines(True)
    docs = [json.loads(line) for line in corpus_lines]
    gold_docs = [json.loads(line)["doc_id"] for line in gold_lines]
    published = {d["doc_id"]: parse_rfc3339(d["publish_time"]) for d in docs}
    full_relations, full_silent = relate_fixture(domain, corpus_lines, gold_lines,
                                                 window, tmp_path / "full")
    cuts = sorted(set(published.values()))[:-1]
    assert cuts
    for n, cut in enumerate(cuts):
        kept = {doc_id for doc_id, t in published.items() if t <= cut}
        sources = {d["source"] for d in docs if d["doc_id"] in kept}
        relations, silent = relate_fixture(
            domain, [line for line, d in zip(corpus_lines, docs) if d["doc_id"] in kept],
            [line for line, doc_id in zip(gold_lines, gold_docs) if doc_id in kept],
            window, tmp_path / f"cut{n}")
        assert relations == [
            line for line in full_relations
            if {json.loads(line)[side]["doc_id"] for side in ("left", "right")} <= kept], cut
        for doc_id, line in zip(gold_docs, gold_lines):
            if doc_id in kept:
                key = (doc_id, json.loads(line)["sentence_index"])
                assert full_silent.get(key, set()) & sources <= silent.get(key, set()), \
                    (cut, key)


def published_trial(seed: int):
    """``random_trial``'s messages, rules and window, with a publish time per
    document: each source's reports at sorted random hours over the trial's
    days, so a report's index follows its publish order and many messages
    are timed before their publish date."""
    messages, specs, window = random_trial(seed)
    rng = random.Random(seed)
    base = datetime(2004, 9, 1, tzinfo=timezone.utc)
    published = {}
    for source in sorted({m.source for m in messages}):
        reports = sorted((m for m in messages if m.source == source),
                         key=lambda m: m.report_index)
        hours = sorted(rng.randint(0, 24 * 18) for _ in reports)
        for m, h in zip(reports, hours):
            published[m.doc_id] = base + timedelta(hours=h)
    return messages, specs, window, published


def test_trials_time_some_messages_before_their_publish_date():
    early = 0
    for seed in range(60):
        messages, _, _, published = published_trial(seed)
        early += sum(m.time.start < published[m.doc_id] for m in messages)
    assert early > 0


@pytest.mark.parametrize("seed", range(60))
def test_relations_and_ellipsis_on_a_publish_time_prefix(seed):
    """Every cut at a publish time before the last, on a random trial."""
    messages, specs, window, published = published_trial(seed)
    full = [(*r.key(), r.distance) for r in evaluate_relations(messages, specs, window)]
    full_silent = {r.message.key(): set(r.silent_sources)
                   for r in detect_ellipsis(messages, {m.source for m in messages}, window)}
    for cut in sorted(set(published.values()))[:-1]:
        prefix = [m for m in messages if published[m.doc_id] <= cut]
        kept = {m.key() for m in prefix}
        sources = {m.source for m in prefix}
        assert [(*r.key(), r.distance) for r in evaluate_relations(prefix, specs, window)] \
            == [row for row in full if {row[2], row[3]} <= kept], cut
        silent = {r.message.key(): set(r.silent_sources)
                  for r in detect_ellipsis(prefix, sources, window)}
        for key in kept:
            assert full_silent.get(key, set()) & sources <= silent.get(key, set()), \
                (cut, key)
