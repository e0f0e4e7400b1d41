"""The artifact writers against the encoder calls they replaced.

``write_relations``, ``write_coverage``, ``write_messages`` and
``write_corpus_artifact`` format their records directly, and
``write_records`` encodes every record of a file with one encoder. On
random records, with strings that need every kind of escape, each must
write exactly the bytes of the old writers in ``tests/oracles.py``, or of
``json.dumps``: sorted keys, ASCII escapes, ``", "`` and ``": "``
separators, and for ``coverage.json`` an indent of 2 plus a newline.
``Token`` keeps the contract of the frozen dataclass it replaced.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from chronicle.corpus import (Corpus, Document, Sentence, Token, build_corpus,
                              read_corpus_artifact, write_corpus_artifact,
                              write_records)
from chronicle.extract import Message, write_messages
from chronicle.relations import (RelationInstance, evaluate_relations,
                                 sort_instances, write_relations)
from chronicle.summarize import RenderResult, write_coverage
from chronicle.temporal import TimeAnchor
from tests.oracles import (write_corpus_artifact_oracle, write_coverage_oracle,
                           write_messages_oracle, write_relations_oracle)
from tests.test_relations import random_trial

UTC = timezone.utc

# Plain characters, the two that are always escaped, the control characters
# with short and with \u00XX escapes, non-ASCII in the BMP and beyond it,
# the line and paragraph separators, and lone surrogates.
ALPHABET = (list("aZ0 #|->.,") + ['"', "\\", "/"]
            + ["\n", "\t", "\r", "\b", "\f", "\x00", "\x01", "\x1f", "\x7f"]
            + ["é", "ß", "中", "\ufeff", "😀", "\u2028", "\u2029",
               "\ud800", "\udbff", "\udc00", "\udfff"])


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))


def random_message(rng: random.Random) -> Message:
    anchor = TimeAnchor.day(datetime(2004, 9, 1, tzinfo=UTC)
                            + timedelta(days=rng.randint(0, 30)))
    return Message(msg_type="t", args={}, time=anchor,
                   source=random_string(rng), doc_id=random_string(rng),
                   sentence_index=rng.choice([0, 1, rng.randint(2, 10**6)]))


def random_relations(rng: random.Random) -> list[RelationInstance]:
    messages = {}
    for _ in range(rng.randint(1, 12)):
        m = random_message(rng)
        messages.setdefault(m.key(), m)
    pool = list(messages.values())
    found = {}
    for _ in range(rng.randint(0, 40)):
        axis = rng.choice(["synchronic", "diachronic"])
        distance = rng.choice([0, 1, rng.randint(2, 10**6)]) if axis == "diachronic" else None
        r = RelationInstance(name=random_string(rng), axis=axis,
                             left=rng.choice(pool), right=rng.choice(pool),
                             distance=distance)
        found.setdefault(r.key(), r)
    return list(found.values())


@pytest.mark.parametrize("seed", range(60))
def test_relations_writer_matches_json_dumps(tmp_path, seed):
    # the writer keeps the order it is given; the engine gives it sorted
    instances = sort_instances(random_relations(random.Random(seed)))
    write_relations(instances, tmp_path / "fast.jsonl")
    write_relations_oracle(instances, tmp_path / "reference.jsonl")
    written = (tmp_path / "fast.jsonl").read_bytes()
    assert written == (tmp_path / "reference.jsonl").read_bytes()
    assert written.isascii()


@pytest.mark.parametrize("seed", range(20))
def test_relations_writer_matches_json_dumps_on_engine_output(tmp_path, seed):
    messages, specs, window = random_trial(seed)
    instances = evaluate_relations(messages, specs, window)
    write_relations(instances, tmp_path / "fast.jsonl")
    write_relations_oracle(instances, tmp_path / "reference.jsonl")
    assert ((tmp_path / "fast.jsonl").read_bytes()
            == (tmp_path / "reference.jsonl").read_bytes())


def assert_writer_matches_oracle(instances, tmp_path):
    # the writer keeps the order it is given; the engine gives it sorted
    instances = sort_instances(instances)
    write_relations(instances, tmp_path / "fast.jsonl")
    write_relations_oracle(instances, tmp_path / "reference.jsonl")
    assert ((tmp_path / "fast.jsonl").read_bytes()
            == (tmp_path / "reference.jsonl").read_bytes())


@pytest.mark.parametrize("seed", range(5))
def test_relations_writer_on_a_message_in_many_lines(tmp_path, seed):
    """One ``Message`` object on either end of thousands of lines, over
    more lines of one rule than the writer joins at a time."""
    rng = random.Random(seed)
    hub = random_message(rng)
    others = [random_message(rng) for _ in range(60)]
    instances = []
    for k in range(3 * 4096):
        axis = rng.choice(["synchronic", "diachronic"])
        other = others[k % len(others)]
        left, right = (hub, other) if k % 3 else (other, hub)
        instances.append(RelationInstance(
            name="r", axis=axis, left=left, right=right,
            distance=k if axis == "diachronic" else None))
    assert_writer_matches_oracle(instances, tmp_path)


@pytest.mark.parametrize("seed", range(20))
def test_relations_writer_on_distinct_messages_with_one_key(tmp_path, seed):
    """Two ``Message`` objects with equal keys but other sources, times and
    args: each line still names its own message's key."""
    rng = random.Random(seed)
    first = random_message(rng)
    twin = first._replace(source=random_string(rng), args={"slot": "value"},
                          time=random_message(rng).time)
    pool = [first, twin, *(random_message(rng) for _ in range(4))]
    ends = [(first, pool[2]), (twin, pool[2]), (pool[3], first), (pool[3], twin)]
    ends += [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
    instances = []
    for left, right in ends:
        axis = rng.choice(["synchronic", "diachronic"])
        instances.append(RelationInstance(
            name=rng.choice(["r", random_string(rng)]), axis=axis, left=left,
            right=right, distance=rng.randint(0, 9) if axis == "diachronic" else None))
    assert_writer_matches_oracle(instances, tmp_path)


def random_coverage(rng: random.Random) -> RenderResult:
    sentences = tuple(random_string(rng)
                      for _ in range(rng.choice([0, 1, rng.randint(2, 20)])))
    coverage = tuple(sorted(
        (random_string(rng), rng.randint(0, 10**6))
        for _ in range(rng.choice([0, 1, rng.randint(2, 30)]))))
    return RenderResult(text="", sentences=sentences, coverage=coverage)


@pytest.mark.parametrize("seed", range(60))
def test_coverage_writer_matches_json_dump(tmp_path, seed):
    result = random_coverage(random.Random(seed))
    write_coverage(result, tmp_path / "fast.json")
    write_coverage_oracle(result, tmp_path / "reference.json")
    written = (tmp_path / "fast.json").read_bytes()
    assert written == (tmp_path / "reference.json").read_bytes()
    assert written.isascii()


@pytest.mark.parametrize("sentences, coverage", [
    ((), ()), (("a",), ()), ((), (("k", 0),)), (("",), (("", 0),))])
def test_coverage_writer_matches_json_dump_on_empty_lists(tmp_path, sentences, coverage):
    result = RenderResult(text="", sentences=sentences, coverage=coverage)
    write_coverage(result, tmp_path / "fast.json")
    write_coverage_oracle(result, tmp_path / "reference.json")
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def random_corpus(rng: random.Random):
    base = datetime(2004, 9, 1, tzinfo=UTC)
    raw_docs = [(f"doc-{k}-{random_string(rng)}", random_string(rng) or "s",
                 base + timedelta(hours=rng.randint(0, 500)),
                 [random_string(rng) + " word" for _ in range(rng.randint(1, 4))])
                for k in range(rng.randint(1, 6))]
    gazetteer = {("word",): "ORG"} if rng.random() < 0.5 else None
    return build_corpus(random_string(rng), raw_docs, gazetteer=gazetteer)


@pytest.mark.parametrize("seed", range(30))
def test_corpus_writer_matches_json_dumps(tmp_path, seed):
    corpus = random_corpus(random.Random(seed))
    write_corpus_artifact(corpus, tmp_path / "fast.jsonl")
    write_corpus_artifact_oracle(corpus, tmp_path / "reference.jsonl")
    assert ((tmp_path / "fast.jsonl").read_bytes()
            == (tmp_path / "reference.jsonl").read_bytes())


def random_tokens(rng: random.Random) -> tuple[Token, ...]:
    return tuple(
        Token(random_string(rng), random_string(rng),
              rng.choice([None, "ORG", random_string(rng)]),
              rng.choice([0, rng.randint(1, 10**6)]),
              rng.choice([0, rng.randint(1, 10**12)]))
        for _ in range(rng.choice([0, 1, rng.randint(2, 30)])))


def random_token_corpus(rng: random.Random) -> Corpus:
    """Documents, sentences and tokens of any strings, built directly: null
    and escaped labels, documents with no sentence and sentences with no
    token."""
    base = datetime(2004, 9, 1, tzinfo=UTC)
    documents = tuple(
        Document(doc_id=random_string(rng), source=random_string(rng),
                 publish_time=base + timedelta(minutes=rng.randint(0, 10**6)),
                 sentences=tuple(
                     Sentence(index=rng.choice([k, rng.randint(0, 10**6)]),
                              text=random_string(rng), tokens=random_tokens(rng))
                     for k in range(rng.choice([0, 1, rng.randint(2, 6)]))),
                 report_index=rng.choice([0, rng.randint(1, 10**6)]))
        for _ in range(rng.choice([0, 1, rng.randint(2, 6)])))
    return Corpus(event_id=random_string(rng), documents=documents)


@pytest.mark.parametrize("seed", range(40))
def test_corpus_writer_matches_json_dumps_on_any_tokens(tmp_path, seed):
    corpus = random_token_corpus(random.Random(seed))
    write_corpus_artifact(corpus, tmp_path / "fast.jsonl")
    write_corpus_artifact_oracle(corpus, tmp_path / "reference.jsonl")
    written = (tmp_path / "fast.jsonl").read_bytes()
    assert written == (tmp_path / "reference.jsonl").read_bytes()
    assert written.isascii()


def random_anchor(rng: random.Random) -> TimeAnchor:
    start = datetime(2004, 9, 1, tzinfo=UTC) + timedelta(minutes=rng.randint(0, 10**6))
    kind = rng.choice(["day", "instant", "interval"])
    if kind == "day":
        return TimeAnchor.day(start)
    if kind == "instant":
        return TimeAnchor.instant(start)
    return TimeAnchor.interval(start, start + timedelta(minutes=rng.randint(0, 10**4)))


def random_messages(rng: random.Random) -> list[Message]:
    return [Message(msg_type=random_string(rng),
                    args={random_string(rng): rng.choice([None, "Red_Cross",
                                                          random_string(rng)])
                          for _ in range(rng.choice([0, 1, rng.randint(2, 5)]))},
                    time=random_anchor(rng), source=random_string(rng),
                    doc_id=random_string(rng),
                    sentence_index=rng.choice([0, rng.randint(1, 10**6)]))
            for _ in range(rng.choice([0, 1, rng.randint(2, 40)]))]


@pytest.mark.parametrize("seed", range(40))
def test_messages_writer_matches_json_dumps(tmp_path, seed):
    messages = random_messages(random.Random(seed))
    write_messages(messages, tmp_path / "fast.jsonl")
    write_messages_oracle(messages, tmp_path / "reference.jsonl")
    written = (tmp_path / "fast.jsonl").read_bytes()
    assert written == (tmp_path / "reference.jsonl").read_bytes()
    assert written.isascii()


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.choice(["str", "int", "none", "bool", "float"]
                      + (["list", "dict"] if depth < 2 else []))
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if kind == "dict":
        return {random_string(rng): random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))}
    return {"str": random_string(rng), "int": rng.randint(-10**6, 10**6),
            "none": None, "bool": rng.random() < 0.5,
            "float": rng.uniform(-1e6, 1e6)}[kind]


@pytest.mark.parametrize("seed", range(20))
def test_write_records_matches_json_dumps(tmp_path, seed):
    rng = random.Random(seed)
    records = [{random_string(rng): random_value(rng) for _ in range(rng.randint(0, 5))}
               for _ in range(rng.randint(0, 20))]
    write_records(tmp_path / "fast.jsonl", records)
    assert (tmp_path / "fast.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(rec, sort_keys=True) + "\n" for rec in records)


@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_corpus_round_trip_keeps_tokens(tmp_path, request, domain):
    corpus = request.getfixturevalue(domain).corpus
    write_corpus_artifact(corpus, tmp_path / "corpus.jsonl")
    write_corpus_artifact_oracle(corpus, tmp_path / "reference.jsonl")
    assert ((tmp_path / "corpus.jsonl").read_bytes()
            == (tmp_path / "reference.jsonl").read_bytes())
    back = read_corpus_artifact(tmp_path / "corpus.jsonl")
    assert back.documents == corpus.documents
    tokens = [t for d in back.documents for s in d.sentences for t in s.tokens]
    assert tokens and all(type(t) is Token for t in tokens)
    assert any(t.ne is not None for t in tokens)


def test_token_fields_defaults_and_repr():
    assert Token._fields == ("surface", "lemma", "ne", "start", "end")
    t = Token("Rome", "rome")
    assert (t.ne, t.start, t.end) == (None, 0, 0)
    assert t == Token(surface="Rome", lemma="rome", ne=None, start=0, end=0)
    assert repr(Token("Red Cross", "red cross", "ORG", 4, 13)) == (
        "Token(surface='Red Cross', lemma='red cross', ne='ORG', start=4, end=13)")


def test_token_equality_hash_and_immutability():
    a, b = Token("Rome", "rome", "GPE", 0, 4), Token("Rome", "rome", "GPE", 0, 4)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Token("Rome", "rome", None, 0, 4)
    with pytest.raises(AttributeError):
        a.ne = "LOC"
