"""The artifact loaders that take shortcuts, against their oracles.

``read_relations`` reads a line in ``write_relations``' own format with one
pattern and decodes every other line as JSON; ``read_relations_oracle``
decodes every line as JSON. Relation files from both fixtures, and files
written from drawn records between drawn messages, are re-encoded line by
line (other key orders, separators, ``indent``, ``ensure_ascii=False``,
``\\u``-escaped doc ids, blank lines, padding) and mutated (leading zeros,
a 5,000-digit index, ``-0``, a distance on a synchronic record, a boolean
distance, a duplicate, an unknown message, one next to a malformed ref, a
missing field, another rule's name). Both loaders must return the same
keys, or raise the same exception with the same text.

``load_gold_messages`` checks each distinct (type, args) pair once per
call; ``load_gold_messages_oracle`` checks every record. Records that
repeat an earlier record's pair, with a later field broken, must fail as
the oracle fails, on the same line, and a pair checked in one call is
checked again in the next.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chronicle.extract import Message, load_gold_messages
from chronicle.ontology import (DIACHRONIC, SYNCHRONIC, ParsedSpec,
                                load_message_specs, load_ontology)
from chronicle.relations import (RelationInstance, evaluate_relations,
                                 parse_window, read_relations, write_relations)
from chronicle.temporal import TimeAnchor
from tests.conftest import domain_bundle
from tests.oracles import load_gold_messages_oracle, read_relations_oracle

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


# ---------------------------------------------------------------------------
# relation records

def _escaped(text: str) -> str:
    """``text`` as a JSON string with every character ``\\u``-escaped."""
    return '"' + "".join(f"\\u{ord(c):04x}" for c in text) + '"'


def _shuffled(value, rnd: random.Random):
    if not isinstance(value, dict):
        return value
    items = list(value.items())
    rnd.shuffle(items)
    return {key: _shuffled(inner, rnd) for key, inner in items}


def encode(line: str, how: str, rnd: random.Random) -> list[str]:
    """The lines that stand for one canonical ``line`` after encoding or
    mutating it ``how``."""
    rec = json.loads(line)
    if how == "canonical":
        return [line]
    if how == "shuffled":
        return [json.dumps(_shuffled(rec, rnd))]
    if how == "compact":
        return [json.dumps(rec, sort_keys=True, separators=(",", ":"))]
    if how == "wide":
        return [json.dumps(rec, sort_keys=True, separators=(" , ", " : "))]
    if how == "indent":
        return json.dumps(rec, sort_keys=True, indent=2).splitlines()
    if how == "unicode":
        return [json.dumps(rec, sort_keys=True, ensure_ascii=False)]
    if how == "escaped":
        doc_id = rec["left"]["doc_id"]
        return [line.replace(json.dumps(doc_id), _escaped(doc_id))]
    if how == "blank":
        return ["", line, "   "]
    if how == "padded":
        return [" \t" + line + " \r"]
    if how == "leading zero":
        return [line.replace('"sentence_index": ', '"sentence_index": 0', 1)]
    if how == "huge index":
        return [line.replace('"sentence_index": ', '"sentence_index": 1' + "0" * 4999, 1)]
    if how == "minus zero":
        rec["left"]["sentence_index"] = "@"
        return [json.dumps(rec, sort_keys=True).replace('"@"', "-0")]
    if how == "negative":
        rec["right"]["sentence_index"] = -1 - rec["right"]["sentence_index"]
        return [json.dumps(rec, sort_keys=True)]
    if how == "synchronic distance":
        rec["axis"], rec["distance"] = SYNCHRONIC, rec.get("distance", 1)
        return [json.dumps(rec, sort_keys=True)]
    if how == "boolean distance":
        rec["distance"] = True
        return [json.dumps(rec, sort_keys=True)]
    if how == "duplicate":
        return [line, line]
    if how == "unknown message":
        rec["right"]["sentence_index"] += 1000
        return [json.dumps(rec, sort_keys=True)]
    if how == "unknown left, bad right":
        # the unknown left message is named, not the right ref's problem
        rec["left"]["sentence_index"] += 1000
        rec["right"] = rnd.choice([{"doc_id": "x"}, "x", {"doc_id": "x", "sentence_index": "0"}])
        return [json.dumps(rec, sort_keys=True)]
    if how == "missing field":
        del rec[rnd.choice(sorted(rec))]
        return [json.dumps(rec, sort_keys=True)]
    if how == "swapped":
        rec["left"], rec["right"] = rec["right"], rec["left"]
        return [json.dumps(rec, sort_keys=True)]
    if how == "renamed":
        rec["name"] = rnd.choice(RULE_NAMES)
        return [json.dumps(rec, sort_keys=True)]
    raise AssertionError(how)


# the names of both fixtures' rules: a record renamed to one of another
# distance gate or pair of types is refused
RULE_NAMES = ["agreement", "disagreement", "negative_graduation",
              "positive_graduation", "repetition", "stability", "termination"]


ENCODINGS = ["canonical", "shuffled", "compact", "wide", "indent", "unicode",
             "escaped", "blank", "padded"]
MUTATIONS = ["leading zero", "huge index", "minus zero", "negative",
             "synchronic distance", "boolean distance", "duplicate",
             "unknown message", "unknown left, bad right", "missing field",
             "swapped", "renamed"]


@st.composite
def relation_texts(draw, lines: list[str]) -> str:
    """A relations file made from ``lines``: a run of them, each kept
    canonical or re-encoded, a few of them mutated."""
    rnd = draw(st.randoms(use_true_random=False))
    start = draw(st.integers(0, max(0, len(lines) - 1)))
    run = lines[start:start + draw(st.integers(0, 40))]
    out = []
    for line in run:
        mutate = draw(st.integers(0, 9)) == 0
        out.extend(encode(line, draw(st.sampled_from(
            MUTATIONS if mutate else ENCODINGS)), rnd))
    text = "".join(line + "\n" for line in out)
    # the last line may end the file without a newline
    return text[:-1] if text and draw(st.booleans()) else text


def check_against_oracle(path, text: str, messages, specs):
    path.write_text(text, encoding="utf-8")
    expected = outcome(read_relations_oracle, path, messages, specs)
    assert outcome(read_relations, path, messages, specs) == expected


@pytest.mark.parametrize("window", ["0", "1d", "7d"])
def test_fixture_relations_read_as_the_oracle_reads(bundle, tmp_path, window):
    instances = evaluate_relations(bundle.gold, bundle.relation_specs,
                                   parse_window(window))
    canonical = tmp_path / "canonical.jsonl"
    write_relations(instances, canonical)
    lines = canonical.read_text().splitlines()
    assert read_relations(canonical, bundle.gold, bundle.relation_specs) \
        == [r.key() for r in instances]

    @SETTINGS
    @given(relation_texts(lines))
    def check(text):
        check_against_oracle(tmp_path / "relations.jsonl", text, bundle.gold,
                             bundle.relation_specs)

    check()


# doc ids, among them ones that ``write_relations`` escapes
DOC_IDS = ["a-01", "b_02", "café", "δ", 'quo"te', "back\\slash", "tab\tid",
           "del\x7f", "", "x/y", "日本"]


@st.composite
def drawn_relations(draw, bundle):
    """Messages with drawn doc ids, sources, anchors and report indices, and
    a relations file written from drawn instances between them."""
    types = sorted({spec.name for spec in bundle.message_specs})
    count = draw(st.integers(2, 8))
    messages = []
    for i in range(count):
        day = draw(st.integers(1, 4))
        messages.append(Message(
            msg_type=draw(st.sampled_from(types)), args={},
            time=TimeAnchor.from_string(f"2004-09-0{day}"),
            source=draw(st.sampled_from(["s1", "s2"])),
            doc_id=draw(st.sampled_from(DOC_IDS)) + str(i),
            sentence_index=draw(st.integers(0, 3)),
            report_index=draw(st.integers(0, 4))))
    instances = []
    for _ in range(draw(st.integers(0, 12))):
        spec = draw(st.sampled_from(bundle.relation_specs))
        left, right = draw(st.sampled_from(messages)), draw(st.sampled_from(messages))
        distance = right.report_index - left.report_index
        instances.append(RelationInstance(spec.name, spec.axis, left, right,
                                          distance if spec.axis == DIACHRONIC else None))
    return messages, instances


def test_drawn_relations_read_as_the_oracle_reads(bundle, tmp_path):
    @SETTINGS
    @given(drawn_relations(bundle), st.data())
    def check(drawn, data):
        messages, instances = drawn
        canonical = tmp_path / "canonical.jsonl"
        write_relations(instances, canonical)
        lines = canonical.read_text(encoding="utf-8").splitlines()
        text = data.draw(relation_texts(lines)) if lines else ""
        check_against_oracle(tmp_path / "relations.jsonl", text, messages,
                             bundle.relation_specs)

    check()


# ---------------------------------------------------------------------------
# gold messages

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
