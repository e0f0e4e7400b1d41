"""The gold-message loader, which takes a shortcut, against its oracle.

``load_gold_messages`` checks each distinct (type, args) pair once per
call; ``load_gold_messages_oracle`` checks every record. Records that
repeat an earlier record's pair, with a later field broken, must fail as
the oracle fails, on the same line, and a pair checked in one call is
checked again in the next.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chronicle.extract import load_gold_messages
from chronicle.ontology import ParsedSpec, load_message_specs, load_ontology
from tests.conftest import domain_bundle
from tests.oracles import load_gold_messages_oracle

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module", params=["football", "hostage"])
def bundle(request):
    return domain_bundle(request.param)


def outcome(load, *args):
    """What ``load`` returns, or the type and text of what it raises."""
    try:
        return "returned", load(*args)
    except Exception as exc:  # the two loaders must fail alike, whatever it is
        return type(exc).__name__, str(exc)


def _sentences(bundle):
    """(doc_id, sentence_index) of every sentence of the corpus."""
    return [(d.doc_id, s.index) for d in bundle.corpus.documents for s in d.sentences]


@st.composite
def repeated_gold(draw, bundle) -> str:
    """A gold file whose records repeat the fixture's (type, args) pairs on
    other sentences, with one later record broken in one field."""
    records = [json.loads(line) for line in
               (bundle.root / "gold_messages.jsonl").read_text().splitlines()]
    free = [ref for ref in _sentences(bundle)
            if ref not in {(r["doc_id"], r["sentence_index"]) for r in records}]
    out = list(records)
    for doc_id, sidx in draw(st.lists(st.sampled_from(free), unique=True,
                                      max_size=12)):
        rec = dict(draw(st.sampled_from(records)), doc_id=doc_id,
                   sentence_index=sidx)
        rec["args"] = dict(rec.get("args", {}))
        out.append(rec)
    broken = dict(draw(st.sampled_from(out[len(records) // 2:])))
    broken["args"] = dict(broken.get("args", {}))
    how = draw(st.sampled_from(["time", "range", "duplicate sentence",
                                "unknown slot", "null slot", "other value",
                                "list value", "reordered args", "none"]))
    slots = sorted(broken["args"])
    if how == "time":
        broken["time"] = draw(st.sampled_from(["2004-13-01", 5, ["x"], "", "2004-09-01"]))
    elif how == "range":
        broken["sentence_index"] = draw(st.sampled_from([-1, 999, True, 1.0]))
    elif how == "duplicate sentence":
        first = draw(st.sampled_from(out))
        broken["doc_id"], broken["sentence_index"] = first["doc_id"], first["sentence_index"]
    elif how == "unknown slot":
        broken["args"]["no_such_slot"] = None
    elif slots and how == "null slot":
        broken["args"][draw(st.sampled_from(slots))] = None
    elif slots and how == "other value":
        broken["args"][draw(st.sampled_from(slots))] = draw(st.sampled_from(
            ["captors", "occupation", "release", "nobody", "Alpha_United", "attack"]))
    elif slots and how == "list value":
        broken["args"][draw(st.sampled_from(slots))] = ["captors"]
    elif how == "reordered args":
        broken["args"] = dict(reversed(list(broken["args"].items())))
    out.insert(draw(st.integers(len(records) // 2, len(out))), broken)
    return "".join(json.dumps(rec) + "\n" for rec in out)


def test_repeated_pairs_fail_as_the_oracle_fails(bundle, tmp_path):
    path = tmp_path / "gold.jsonl"
    args = (bundle.message_specs, bundle.ontology, bundle.corpus)

    @SETTINGS
    @given(repeated_gold(bundle))
    def check(text):
        path.write_text(text, encoding="utf-8")
        expected = outcome(load_gold_messages_oracle, path, *args)
        assert outcome(load_gold_messages, path, *args) == expected

    check()


def test_pair_checks_are_not_carried_into_the_next_call(tmp_path, hostage):
    """A pair that passed in one call is checked again in the next, under
    the next call's specs: here the negotiate constraint is reversed, so
    every negotiate record of the same file now fails."""
    gold = hostage.root / "gold_messages.jsonl"
    args = (hostage.ontology, hostage.corpus)
    assert outcome(load_gold_messages, gold, hostage.message_specs, *args) \
        == outcome(load_gold_messages_oracle, gold, hostage.message_specs, *args)
    spec_text = hostage.spec_path.read_text()
    assert "where entity_1 != entity_2" in spec_text
    reversed_spec = tmp_path / "domain.spec"
    reversed_spec.write_text(spec_text.replace("where entity_1 != entity_2",
                                               "where entity_1 == entity_2"))
    parsed = ParsedSpec(reversed_spec)
    specs = load_message_specs(parsed, load_ontology(parsed))
    failed = outcome(load_gold_messages, gold, specs, *args)
    assert failed == outcome(load_gold_messages_oracle, gold, specs, *args)
    assert failed[0] == "MalformedRecord" and "constraint violated" in failed[1]
    # and the first specs pass again
    assert outcome(load_gold_messages, gold, hostage.message_specs, *args)[0] == "returned"
