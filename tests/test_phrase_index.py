"""The indexed phrase scans against the scans they replaced.

Gazetteer tagging, instance spotting and temporal spotting each look up
only the phrases or patterns that can start at a token. On random inputs
they must give exactly what the old scans (``tests/oracles.py``), which
try every entry at every token, give.
"""

from __future__ import annotations

import random

import pytest

from chronicle.corpus import PhraseIndex, Sentence, tokenize
from chronicle.extract import _instance_spans
from chronicle.ontology import Ontology
from chronicle.temporal import (GrammarPattern, default_grammar,
                                find_temporal_expressions)
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
    phrases = PhraseIndex(gazetteer.items())
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
        assert _instance_spans(sentence, ontology) == \
            instance_spans_oracle(sentence, ontology)


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
            find_temporal_expressions_oracle(sentence, default_grammar())


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
            find_temporal_expressions_oracle(sentence, default_grammar())
