from __future__ import annotations

import json
import random
from datetime import timedelta

import pytest

from chronicle.corpus import (PhraseIndex, load_corpus, load_gazetteer,
                              load_lexicon, parse_rfc3339, phrase_key,
                              read_records, tokenize)
from chronicle.errors import DuplicateDocId, MalformedRecord, UnparsableTimestamp
from tests.oracles import read_records_oracle


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_two_docs_same_timestamp_rank_zero_each(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"doc_id": "a1", "source": "A", "publish_time": "2004-09-10T08:00:00Z",
         "text": ["one sentence"]},
        {"doc_id": "b1", "source": "B", "publish_time": "2004-09-10T08:00:00Z",
         "text": ["another sentence"]},
    ])
    corpus = load_corpus(path)
    assert len(corpus.documents) == 2
    assert all(d.report_index == 0 for d in corpus.documents)
    assert corpus.sources == {"A", "B"}


def test_hostage_fixture_counts_span_and_ranks(hostage):
    corpus = hostage.corpus
    per_source = {}
    for d in corpus.documents:
        per_source.setdefault(d.source, []).append(d)
    assert len(per_source) == 5
    for docs in per_source.values():
        assert 5 <= len(docs) <= 12
        assert [d.report_index for d in sorted(docs, key=lambda d: d.publish_time)] \
            == list(range(len(docs)))
    times = [d.publish_time for d in corpus.documents]
    span = max(times) - min(times)
    assert timedelta(days=20) <= span <= timedelta(days=25)


def test_duplicate_doc_id_rejected(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"doc_id": "a1", "source": "A", "publish_time": "2004-09-10T08:00:00Z",
         "text": ["x"]},
        {"doc_id": "a1", "source": "A", "publish_time": "2004-09-11T08:00:00Z",
         "text": ["y"]},
    ])
    with pytest.raises(DuplicateDocId) as err:
        load_corpus(path)
    assert "a1" in str(err.value)


@pytest.mark.parametrize("record, fragment", [
    ({"doc_id": "a1", "publish_time": "2004-09-10T08:00:00Z", "text": ["x"]},
     "source"),
    ({"doc_id": "a1", "source": "A", "text": ["x"]}, "publish_time"),
    ({"doc_id": "a1", "source": "A", "publish_time": "2004-09-10T08:00:00Z",
      "text": []}, "sentences"),
    ({"source": "A", "publish_time": "2004-09-10T08:00:00Z", "text": ["x"]},
     "doc_id"),
    ({"doc_id": "a1", "source": "A", "publish_time": "2004-09-10T08:00:00Z",
      "text": ["The talks began.", None, 5, {"x": 1}]}, "text"),
])
def test_malformed_records_rejected(tmp_path, record, fragment):
    path = write_jsonl(tmp_path / "c.jsonl", [record])
    with pytest.raises(MalformedRecord) as err:
        load_corpus(path)
    assert fragment in str(err.value)


def test_unparsable_timestamp(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"doc_id": "a1", "source": "A", "publish_time": "not a time",
         "text": ["x"]}])
    with pytest.raises(UnparsableTimestamp):
        load_corpus(path)


def test_timestamps_normalized_to_utc_minutes():
    t = parse_rfc3339("2004-09-10T10:30:45+02:00")
    assert t.strftime("%Y-%m-%dT%H:%M:%SZ") == "2004-09-10T08:30:00Z"
    assert parse_rfc3339("2004-09-10T08:30:00").utcoffset() == timedelta(0)


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_lexicon_lemmas():
    tokens = tokenize("freed the hostages", {"freed": "free", "hostages": "hostage"})
    assert [(t.surface, t.lemma) for t in tokens] == [
        ("freed", "free"), ("the", "the"), ("hostages", "hostage")]


def test_lexicon_surfaces_match_in_any_case(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("Seized\tseize\nHOSTAGES\thostage\n", encoding="utf-8")
    tokens = tokenize("Seized the Hostages; seized hostages", load_lexicon(path))
    assert [t.lemma for t in tokens] == [
        "seize", "the", "hostage", ";", "seize", "hostage"]


def test_lexicon_last_surface_equal_after_folding_wins(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("Seized\ta\nseized\tb\nSEIZED\tc\nfreed\td\nFreed\te\n"
                    "Freed\tf\nfreed\tg\n", encoding="utf-8")
    assert load_lexicon(path) == {"seized": "c", "freed": "g"}
    assert [t.lemma for t in tokenize("sEiZeD FREED", load_lexicon(path))] == \
        ["c", "g"]


def test_gazetteer_keys_are_folded_and_the_last_equal_line_wins(tmp_path):
    """Each surface is folded once, into its ``phrase_key``; of lines whose
    keys are equal, the last wins, as in the lexicon."""
    path = tmp_path / "gazetteer.tsv"
    path.write_text("Red Cross\tORG\nred cross\tPER\nRed Cross\tLOC\n"
                    "Al-Jazeera\tORG\nAL-JAZEERA\tMISC\n", encoding="utf-8")
    assert load_gazetteer(path) == {("red", "cross"): "LOC", ("al-jazeera",): "MISC"}
    assert phrase_key("Red  Cross") == ("red", "cross")


def test_gazetteer_last_surface_equal_after_folding_wins(tmp_path):
    path = tmp_path / "gazetteer.tsv"
    path.write_text("Red Cross\tORG\nred cross\tPER\n", encoding="utf-8")
    tokens = tokenize("the RED cross",
                      ne_gazetteer=PhraseIndex(load_gazetteer(path).items()))
    assert [t.ne for t in tokens] == [None, "PER", "PER"]


def test_gazetteer_surfaces_fold_token_by_token(tmp_path):
    """A surface folds as the tokenizer folds text: "ΣΑΣ" folded whole ends
    in a final sigma, which no token of "ΣΑΣ" folds to."""
    path = tmp_path / "gazetteer.tsv"
    path.write_text("ΣΑΣ\tORG\nİstanbul\tLOC\n", encoding="utf-8")
    tokens = tokenize("ΣΑΣ in İstanbul",
                      ne_gazetteer=PhraseIndex(load_gazetteer(path).items()))
    assert [t.ne for t in tokens] == ["ORG", "ORG", "ORG", None, "LOC", "LOC"]


def test_tokenize_gazetteer_label():
    tokens = tokenize("Al-Jazeera reported",
                      ne_gazetteer=PhraseIndex([(phrase_key("Al-Jazeera"), "ORG")]))
    assert tokens[0].surface == "Al-Jazeera"
    assert tokens[0].ne == "ORG"
    assert tokens[1].ne is None


def test_tokenize_multiword_gazetteer_longest_first():
    gaz = {("italian", "government"): "ORG", ("government",): "MISC"}
    tokens = tokenize("the Italian government spoke",
                      ne_gazetteer=PhraseIndex(gaz.items()))
    assert [t.ne for t in tokens] == [None, "ORG", "ORG", None]


@pytest.mark.parametrize("text", [
    "The captors seized the compound and the occupation began.",
    "hyphen-words and  double  spaces survive",
    "punct! (everywhere), right?",
    "",
])
def test_tokens_reconstruct_text(text):
    tokens = tokenize(text)
    rebuilt = []
    cursor = 0
    for t in tokens:
        rebuilt.append(text[cursor:t.start])
        rebuilt.append(text[t.start:t.end])
        assert text[t.start:t.end] == t.surface
        cursor = t.end
    rebuilt.append(text[cursor:])
    assert "".join(rebuilt) == text


def test_load_is_idempotent(hostage):
    again = load_corpus(hostage.root / "corpus.jsonl",
                        lexicon=hostage.lexicon, gazetteer=hostage.gazetteer)
    assert again == hostage.corpus


def test_publish_time_nondecreasing_over_report_index(hostage, football):
    for corpus in (hostage.corpus, football.corpus):
        per_source = {}
        for d in corpus.documents:
            per_source.setdefault(d.source, []).append(d)
        for docs in per_source.values():
            docs.sort(key=lambda d: d.report_index)
            for a, b in zip(docs, docs[1:]):
                assert a.publish_time <= b.publish_time


# Lines of JSON-lines files: records with JSON whitespace around them,
# blank lines with whitespace JSON does not allow, and pieces of broken
# lines: values that are not objects, a byte-order mark, constants, numbers
# the scanner reads in its own way, and broken syntax.
RECORDS = ['{"a": 1}', '{"a": [1, {"b": null}], "c": "\\u00e9"}', "{}",
           '{"n": -0.0, "m": 1e999}']
BLANK_LINES = ["", " ", "\t", "\r", "\x0c", "\u00a0 "]
LINE_PIECES = RECORDS + BLANK_LINES + [
    "[1]", '"s"', "7", "NaN", "-Infinity", "true", "null", "\ufeff", "{",
    "}", ",", ":", '"', '{"a": 1,}', "{'a': 1}", "é", "\\u12"]


def random_line(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.7:
        pad = [rng.choice(["", "", " ", "\t", "\r", " \t"]) for _ in range(2)]
        return pad[0] + rng.choice(RECORDS) + pad[1]
    if roll < 0.85:
        return rng.choice(BLANK_LINES)
    return "".join(rng.choice(LINE_PIECES) for _ in range(rng.randint(1, 3)))


def records_or_error(read, path):
    """Every record a reader yields, then the error it stopped on, if any."""
    out = []
    try:
        for item in read(path):
            out.append(item)
    except Exception as exc:  # every class counts, so any difference shows
        out.append((type(exc).__name__, str(exc)))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_read_records_matches_json_loads_reader(tmp_path, seed):
    rng = random.Random(seed)
    lines = [random_line(rng) for _ in range(rng.randint(1, 12))]
    path = tmp_path / "r.jsonl"
    path.write_text("\n".join(lines) + rng.choice(["", "\n"]), encoding="utf-8")
    assert (records_or_error(read_records, path)
            == records_or_error(read_records_oracle, path))
