"""Extract's token path against the checks it replaced.

``read_corpus_artifact`` checks token rows column by column; it must take
or refuse every drawn ``tokens`` value exactly as ``token_rows_ok_oracle``
does, which checks each row's field types as a tuple, and build the same
tokens. The drawn values are JSON: rows of the right shape, rows with a
field dropped, added or replaced (booleans, floats, nested arrays,
objects, strings, null, empty values and integers longer than ``int``
reads), and ``tokens`` values that are no array at all. Rules-mode typing
and the trigger search must agree with their oracles on drawn sentences
and rules.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chronicle.corpus import Sentence, Token, read_corpus_artifact
from chronicle.errors import MalformedRecord
from chronicle.extract import TriggerRule, classify_sentence, trigger_span_for
from tests.oracles import (classify_sentence_rules_oracle, token_rows_ok_oracle,
                           trigger_span_for_oracle)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=400,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

# Stands for an integer with more digits than ``int`` reads; it is put in
# the line as text, since ``json.dumps`` cannot write one.
OVERLONG = "<overlong integer>"
OVERLONG_TEXT = "1" * 5000

ODD = st.one_of(
    st.none(), st.booleans(), st.floats(), st.just(OVERLONG),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.text(max_size=6), st.just([]), st.just({}), st.just(""),
    st.lists(st.integers(0, 3) | st.text(max_size=2), max_size=6),
    st.dictionaries(st.text(max_size=5), st.integers(0, 3), max_size=6))
LABEL = st.none() | st.sampled_from(["PER", "ORG"]) | st.text(max_size=3)
GOOD_ROW = st.tuples(st.text(max_size=4), st.text(max_size=4), LABEL,
                     st.integers(0, 99), st.integers(0, 99)).map(list)


@st.composite
def rows(draw):
    row = draw(GOOD_ROW)
    how = draw(st.sampled_from(["keep", "keep", "replace", "drop", "add",
                                "odd"]))
    if how == "replace":
        row[draw(st.integers(0, 4))] = draw(ODD)
    elif how == "drop":
        del row[draw(st.integers(0, 4))]
    elif how == "add":
        row.insert(draw(st.integers(0, 5)), draw(ODD))
    elif how == "odd":
        return draw(ODD)
    return row


TOKENS = st.one_of(st.lists(rows(), max_size=6), st.lists(GOOD_ROW, max_size=6),
                   ODD)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return tmp_path_factory.mktemp("rows") / "corpus.jsonl"


def sentence_line(tokens) -> str:
    rec = {"doc_id": "d", "source": "s", "publish_time": "2004-09-01T00:00:00Z",
           "report_index": 0,
           "sentences": [{"index": 0, "text": "t", "tokens": tokens}]}
    return json.dumps(rec).replace(json.dumps(OVERLONG), OVERLONG_TEXT)


def test_token_rows_read_as_the_oracle_reads_them(artifact):
    @SETTINGS
    @given(tokens=TOKENS)
    def check(tokens):
        line = sentence_line(tokens)
        artifact.write_text(line + "\n", encoding="utf-8")
        try:
            decoded = json.loads(line)["sentences"][0]["tokens"]
        except ValueError:       # an overlong integer: the line is no JSON
            accepted = False
        else:
            accepted = token_rows_ok_oracle(decoded)
        try:
            corpus = read_corpus_artifact(artifact)
        except MalformedRecord:
            assert not accepted
            return
        assert accepted
        read = corpus.documents[0].sentences[0].tokens
        assert read == tuple(Token(*row) for row in decoded)
        assert all(type(t) is Token for t in read)
    check()


@pytest.mark.parametrize("tokens, accepted", [
    ([], True), ({}, True), ("", True), (None, False), (5, False),
    ("abcde", False), ({"abcde": 1}, False), ([["a", "b", None, 0, 1]], True),
    ([["a", "b", "L", 0, 1], ["a", "b", None, 2, 3]], True),
    ([["a", "b", None, 0, True]], False), ([["a", "b", None, 0, 1.0]], False),
    ([["a", "b", None, 0]], False), ([["a", "b", None, 0, 1, 2]], False),
    ([["a", "b", None, 0, 1], ["a", "b", None, 0]], False),
    ([["a", "b", 0, 0, 1]], False), ([[None, "b", None, 0, 1]], False),
    ([{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}], False), (["abcde"], False),
    ([["a", "b", None, 0, OVERLONG]], False), ([["a", "b", None, 0, 10 ** 30]], True)])
def test_token_row_edges(artifact, tokens, accepted):
    artifact.write_text(sentence_line(tokens) + "\n", encoding="utf-8")
    if accepted:
        assert token_rows_ok_oracle(tokens)
        read_corpus_artifact(artifact)
    else:
        with pytest.raises(MalformedRecord):
            read_corpus_artifact(artifact)


LEMMAS = ["free", "hold", "talk", "say", "the"]
NE_LABELS = ["PER", "ORG", "LOC"]
TOKEN = st.builds(lambda lemma, ne: Token(lemma.upper(), lemma, ne),
                  st.sampled_from(LEMMAS), st.none() | st.sampled_from(NE_LABELS))
RULE = st.builds(TriggerRule, st.sampled_from(["a", "b", "c"]),
                 st.lists(st.sampled_from(LEMMAS + ["other"]), max_size=3).map(tuple),
                 st.lists(st.sampled_from(NE_LABELS), max_size=2).map(tuple))


@SETTINGS
@given(tokens=st.lists(TOKEN, max_size=8), rules=st.lists(RULE, max_size=6))
def test_rules_mode_typing_and_trigger_match_oracles(tokens, rules):
    sentence = Sentence(index=0, text="", tokens=tuple(tokens))
    assert classify_sentence(sentence, rules) == \
        classify_sentence_rules_oracle(sentence, rules)
    for msg_type in ["a", "b", "c", "unknown"]:
        lemmas = {lemma for rule in rules if rule.msg_type == msg_type
                  for lemma in rule.lemmas}
        assert trigger_span_for(sentence, lemmas) == \
            trigger_span_for_oracle(sentence, msg_type, rules)
