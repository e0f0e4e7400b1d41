"""The indexed phrase scans against the scans they replaced.

Gazetteer tagging and instance spotting share ``PhraseIndex.scan``, and
temporal spotting has its own grammar index; each looks up only the
phrases or patterns that can start at a token. On random inputs and on
hand-picked edge cases they must give exactly what the old scans
(``tests/oracles.py``), which try every entry at every token, give. The
index takes keys that ``phrase_key`` folded, the oracles the surfaces. The
tokens that ``tokenize`` and ``read_corpus_artifact`` build in bulk must be
real ``Token``s.
"""

from __future__ import annotations

import random

import pytest

from chronicle.corpus import (PhraseIndex, Sentence, Token, load_corpus,
                              load_gazetteer, load_lexicon, phrase_key,
                              read_corpus_artifact, tokenize,
                              write_corpus_artifact)
from chronicle.extract import _instance_spans
from chronicle.ontology import Ontology
from chronicle.temporal import (GrammarPattern, find_temporal_expressions,
                                load_grammar)
from tests.conftest import FIXTURES
from tests.oracles import (find_temporal_expressions_oracle,
                           instance_spans_oracle, tokenize_oracle)

# Few words, so that random phrases share first tokens, prefix and overlap
# one another, and collide after case folding.
WORDS = ["red", "cross", "al-jazeera", "o'brien", "rome", "city", "of",
         "the", "new", "york", "times", "ago", "last", "may"]
LABELS = ["PER", "ORG", "LOC", "GPE"]


def recase(rng: random.Random, word: str) -> str:
    return rng.choice([word, word.upper(), word.capitalize()])


def random_text(rng: random.Random, words: list[str], length: int) -> str:
    parts = []
    for _ in range(length):
        if rng.random() < 0.1:
            parts.append(rng.choice([",", ".", "'", "-"]))
        else:
            parts.append(recase(rng, rng.choice(words)))
    return " ".join(parts)


def surface_index(phrases) -> PhraseIndex:
    """The index of (surface, value) pairs, each surface folded by
    ``phrase_key``."""
    return PhraseIndex([(phrase_key(surface), value) for surface, value in phrases])


def random_gazetteer(rng: random.Random) -> dict[str, str]:
    # Fixed entries first: case variants with different labels (the first
    # in file order must win), a prefix of a longer entry and two entries
    # that overlap.
    gazetteer = {"Red Cross": "ORG", "red cross": "PER", "RED CROSS": "LOC",
                 "New York": "GPE", "New York Times": "ORG",
                 "York Times": "PER", "Al-Jazeera": "ORG", "O'Brien": "PER"}
    for _ in range(rng.randint(0, 30)):
        phrase = random_text(rng, WORDS, rng.randint(1, 4))
        gazetteer.setdefault(phrase, rng.choice(LABELS))
    items = list(gazetteer.items())
    rng.shuffle(items)
    return dict(items)


@pytest.mark.parametrize("seed", range(60))
def test_gazetteer_tagging_matches_oracle(seed):
    rng = random.Random(seed)
    gazetteer = random_gazetteer(rng)
    lexicon = {"times": "time", "cities": "city"}
    phrases = surface_index(gazetteer.items())
    for _ in range(20):
        text = random_text(rng, WORDS, rng.randint(0, 14))
        expected = tokenize_oracle(text, lexicon, gazetteer)
        assert tokenize(text, lexicon, phrases) == expected


def random_ontology(rng: random.Random) -> Ontology:
    names = {"Red_Cross", "red_cross", "Al-Jazeera", "al-jazeera", "New_York",
             "New_York_Times", "York_Times", "__"}
    for _ in range(rng.randint(0, 25)):
        words = [recase(rng, rng.choice(WORDS).replace("'", ""))
                 for _ in range(rng.randint(1, 3))]
        names.add("_".join(words))
    concepts = ["Agent", "Place"]
    return Ontology(concepts=frozenset(concepts), parent={},
                    instances={n: rng.choice(concepts) for n in sorted(names)},
                    ordered_scales={})


@pytest.mark.parametrize("seed", range(60))
def test_instance_spotting_matches_oracle(seed):
    rng = random.Random(seed)
    ontology = random_ontology(rng)
    for _ in range(20):
        text = random_text(rng, WORDS, rng.randint(0, 14))
        sentence = Sentence(index=0, text=text, tokens=tokenize(text))
        assert sorted(_instance_spans(sentence, ontology)) == \
            instance_spans_oracle(sentence, ontology)


# (text, phrases): each phrase is a gazetteer surface, and with underscores
# for spaces an instance name.
EDGE_CASES = [
    # a phrase ending at the last token, with or without punctuation after
    ("talks with the Red Cross", ["Red Cross"]),
    ("talks with the Red Cross.", ["Red Cross", "Cross"]),
    ("Rome", ["Rome"]),
    # phrases longer than the sentence, or running past its end
    ("Red", ["Red Cross"]),
    ("the Red Cross", ["Red Cross of Rome", "the Red Cross city"]),
    ("", ["Red Cross"]),
    # adjacent openers, and openers inside a longer match
    ("Rome Rome Rome", ["Rome", "Rome Rome"]),
    ("New York Times Rome", ["New York", "York Times", "Times Rome"]),
    ("New York Times of Rome", ["New York Times", "York Times of Rome",
                                "Times", "of Rome"]),
    ("the new the new york", ["the new", "new the", "new york", "the new york"]),
    # one phrase filed under two values: case variants fold together
    ("the RED cross", ["Red Cross", "red cross", "RED CROSS"]),
    ("Al-Jazeera and al-jazeera", ["Al-Jazeera", "al-jazeera"]),
    # empty text, and text with no token
    ("", []),
    ("   ", ["Rome"]),
    (" . ", ["."]),
]


@pytest.mark.parametrize("text,phrases", EDGE_CASES)
def test_gazetteer_edge_cases_match_oracle(text, phrases):
    gazetteer = {p: LABELS[k % len(LABELS)] for k, p in enumerate(phrases)}
    lexicon = {"times": "time"}
    assert tokenize(text, lexicon, surface_index(gazetteer.items())) == \
        tokenize_oracle(text, lexicon, gazetteer)


@pytest.mark.parametrize("text,phrases", EDGE_CASES)
def test_instance_spotting_edge_cases_match_oracle(text, phrases):
    names = {p.replace(" ", "_") for p in phrases if p != "."}
    ontology = Ontology(concepts=frozenset({"Agent"}), parent={},
                        instances=dict.fromkeys(sorted(names), "Agent"),
                        ordered_scales={})
    sentence = Sentence(index=0, text=text, tokens=tokenize(text))
    assert sorted(_instance_spans(sentence, ontology)) == \
        instance_spans_oracle(sentence, ontology)


def test_scan_gives_every_occurrence_by_start_longest_first():
    index = surface_index([("New York", "a"), ("new york times", "b"), ("York", "c"),
                           ("NEW YORK", "d"), ("times square", "e")])
    assert index.scan(["new", "york", "times", "york"]) == [
        (0, 3, "b"), (0, 2, "a"), (0, 2, "d"), (1, 2, "c"), (3, 4, "c")]
    assert index.scan([]) == []
    assert index.scan(["times"]) == []


@pytest.mark.parametrize("key", ["rome", "red cross", ""])
def test_index_refuses_a_string_key(key):
    # list("rome") would be a key of four one-letter tokens that no
    # folded sentence matches, and nothing would say why
    with pytest.raises(TypeError, match=repr(key)):
        PhraseIndex([(("new", "york"), "GPE"), (key, "LOC")])


def test_tokenize_builds_tokens():
    tokens = tokenize("The Red Cross freed them", {"freed": "free"},
                      surface_index([("red cross", "ORG")]))
    assert all(type(t) is Token for t in tokens)
    freed = tokens[3]
    assert (freed.surface, freed.lemma, freed.ne, freed.start, freed.end) == \
        ("freed", "free", None, 14, 19)
    assert [t.ne for t in tokens] == [None, "ORG", "ORG", None, None]
    assert tokens[1]._replace(ne=None) == Token("Red", "red", None, 4, 7)


@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_read_corpus_artifact_builds_tokens(tmp_path, domain):
    root = FIXTURES / domain
    corpus = load_corpus(root / "corpus.jsonl",
                         lexicon=load_lexicon(root / "lexicon.tsv"),
                         gazetteer=load_gazetteer(root / "gazetteer.tsv"))
    write_corpus_artifact(corpus, tmp_path / "corpus.jsonl")
    read = read_corpus_artifact(tmp_path / "corpus.jsonl")
    pairs = [(a, b) for d, e in zip(corpus.documents, read.documents, strict=True)
             for s, r in zip(d.sentences, e.sentences, strict=True)
             for a, b in zip(s.tokens, r.tokens, strict=True)]
    assert pairs and all(type(b) is Token for _, b in pairs)
    assert all((b.surface, b.lemma, b.ne, b.start, b.end)
               == (a.surface, a.lemma, a.ne, a.start, a.end) for a, b in pairs)
    assert any(b.ne is not None for _, b in pairs)


# First elements: literals, one of which ("may", "21") an element class
# also matches, and classes; several patterns share each of them.
OPENERS = ["last", "Last", "on", "may", "21", "<num>", "<day>", "<month>",
           "<weekday>"]
ELEMENTS = OPENERS + ["ago", "days", "the", "<year>", "<isodate>"]
TIME_WORDS = ["last", "next", "on", "ago", "days", "day", "the", "may",
              "june", "sept", "monday", "fri", "3", "21", "45", "2004",
              "2004-09-21", "yesterday", "today", "recently", "talks"]


def random_grammar(rng: random.Random) -> tuple[GrammarPattern, ...]:
    patterns = []
    for k in range(rng.randint(1, 16)):
        rest = [rng.choice(ELEMENTS) for _ in range(rng.randint(0, 2))]
        patterns.append(GrammarPattern(f"p{k}", (rng.choice(OPENERS), *rest),
                                       "vague"))
    return tuple(patterns)


@pytest.mark.parametrize("seed", range(60))
def test_temporal_spotting_matches_oracle(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    for index in range(20):
        text = random_text(rng, TIME_WORDS, rng.randint(0, 12))
        sentence = Sentence(index=index, text=text, tokens=tokenize(text))
        assert find_temporal_expressions(sentence, grammar) == \
            find_temporal_expressions_oracle(sentence, grammar)
        assert find_temporal_expressions(sentence) == \
            find_temporal_expressions_oracle(sentence, load_grammar())


# Tokens at the edges of the check that lets a class-opened pattern start:
# a superscript digit (a digit that is not decimal), a decimal digit that
# is not ASCII, numbers just inside and outside <day>, a number too large
# to resolve, month and weekday abbreviations, an ISO date past the end of
# its month and one with a one-digit month.
EDGE_TOKENS = ["²", "٣", "0", "00", "32", "1000000", "SEPT", "Fri",
               "2004-02-30", "2004-9-21"]
EDGE_OPENERS = ["<num>", "<day>", "<year>", "<month>", "<weekday>",
                "<isodate>", "32", "sept", "00"]
EDGE_ELEMENTS = EDGE_OPENERS + ["days", "ago"]


@pytest.mark.parametrize("seed", range(40))
def test_temporal_spotting_at_opener_edges_matches_oracle(seed):
    rng = random.Random(seed)
    grammar = tuple(
        GrammarPattern(f"p{k}", (rng.choice(EDGE_OPENERS),
                                 *rng.choices(EDGE_ELEMENTS, k=rng.randint(0, 2))),
                       "vague")
        for k in range(rng.randint(1, 12)))
    words = EDGE_TOKENS + ["days", "ago", "talks"]
    for index in range(20):
        text = random_text(rng, words, rng.randint(0, 10))
        sentence = Sentence(index=index, text=text, tokens=tokenize(text))
        assert find_temporal_expressions(sentence, grammar) == \
            find_temporal_expressions_oracle(sentence, grammar)
        assert find_temporal_expressions(sentence) == \
            find_temporal_expressions_oracle(sentence, load_grammar())
