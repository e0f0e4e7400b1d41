"""Argument filling and message time against their literal oracles.

``fill_arguments`` and ``message_time`` take the candidate nearest the
trigger, leftmost on ties. On drawn sentences, instance orders, slot lists,
publication times and triggers (``None`` among them), they must pick what
``fill_arguments_oracle`` and ``message_time_oracle`` pick. Each test
counts the cases it is meant to reach and fails when a kind never came up:
overlapping and equidistant mentions, instances that fit several slots,
no trigger, and expressions ``resolve`` refuses.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from chronicle.corpus import Sentence, tokenize
from chronicle.errors import UnresolvableExpression
from chronicle.extract import _instance_spans, fill_arguments
from chronicle.ontology import MessageTypeSpec, Ontology
from chronicle.temporal import find_temporal_expressions, message_time, resolve
from tests.oracles import (_span_distance, fill_arguments_oracle,
                           message_time_oracle)

UTC = timezone.utc

# Person and Group are Agents, so an Agent or Thing slot fits them all; the
# names share words, so their mentions overlap.
PARENT = {"Agent": "Thing", "Person": "Agent", "Group": "Agent", "Place": "Thing"}
CONCEPTS = ["Thing", "Agent", "Person", "Group", "Place"]
INSTANCES = {"red": "Group", "red_cross": "Group", "cross": "Thing",
             "cross_rome": "Place", "anna": "Person", "anna_red": "Person",
             "rome": "Place", "rome_rome": "Group"}
WORDS = ["red", "cross", "anna", "rome", "the", "said", "Red", "ROME"]


def random_trigger(rng: random.Random, n: int) -> tuple[int, int] | None:
    if rng.random() < 0.3:
        return None
    start = rng.randrange(n + 2)
    return (start, start + rng.randint(1, 3))


@pytest.mark.parametrize("seed", range(40))
def test_fill_arguments_matches_oracle(seed):
    rng = random.Random(seed)
    names = rng.sample(sorted(INSTANCES), len(INSTANCES))
    ontology = Ontology(concepts=frozenset(CONCEPTS), parent=PARENT,
                        instances={n: INSTANCES[n] for n in names},
                        ordered_scales={})
    seen = dict.fromkeys(["overlap", "tie", "no trigger", "several slots"], 0)
    for _ in range(40):
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 10)))
        sentence = Sentence(index=0, text=text, tokens=tokenize(text))
        slots = tuple((f"s{i}", rng.choice(CONCEPTS))
                      for i in range(rng.randint(1, 4)))
        spec = MessageTypeSpec("m", slots, ())
        trigger = random_trigger(rng, len(sentence.tokens))
        assert fill_arguments(sentence, ontology, spec, trigger) == \
            fill_arguments_oracle(sentence, ontology, spec, trigger)
        mentions = _instance_spans(sentence, ontology)
        spans = [span for _, span in mentions]
        distances = [_span_distance(span, trigger or (0, 0)) for span in spans]
        seen["overlap"] += any(a != b and a[0] < b[1] and b[0] < a[1]
                               for a in spans for b in spans)
        seen["tie"] += len(set(distances)) < len(distances)
        seen["no trigger"] += trigger is None and bool(mentions)
        seen["several slots"] += any(
            sum(c in ontology.ancestors[INSTANCES[i]] for _, c in slots) > 1
            for i, _ in mentions)
    assert all(seen.values()), seen


# Resolvable expressions, and ones the grammar matches but ``resolve``
# refuses: a vague word, dates that do not exist, and offsets past the
# date range.
PHRASES = ["yesterday", "today", "tomorrow", "3 days ago", "2 weeks ago",
           "last Monday", "next Friday", "on Sunday", "4 September 2004",
           "2004-09-03", "recently", "31 February 2004", "2004-02-30",
           "1000000 days ago", "talks", "the", "began", "and"]
PUBLISHED = [datetime(2004, 9, 10, 8, 30, tzinfo=UTC),
             datetime(9999, 12, 31, tzinfo=UTC), datetime(1, 1, 1, tzinfo=UTC)]


@pytest.mark.parametrize("seed", range(40))
def test_message_time_matches_oracle(seed):
    rng = random.Random(seed)
    seen = dict.fromkeys(["tie", "no trigger", "unresolvable"], 0)
    for _ in range(40):
        text = " ".join(rng.choice(PHRASES) for _ in range(rng.randint(0, 6)))
        sentence = Sentence(index=0, text=text, tokens=tokenize(text))
        published = rng.choice(PUBLISHED) + timedelta(minutes=rng.randrange(600))
        trigger = random_trigger(rng, len(sentence.tokens))
        assert message_time(sentence, published, trigger) == \
            message_time_oracle(sentence, published, trigger)
        resolvable = []
        for expr in find_temporal_expressions(sentence):
            try:
                resolve(expr, published)
            except UnresolvableExpression:
                seen["unresolvable"] += 1
            else:
                resolvable.append(_span_distance(expr.token_span, trigger or (0, 0)))
        seen["tie"] += len(set(resolvable)) < len(resolvable)
        seen["no trigger"] += trigger is None and bool(resolvable)
    assert all(seen.values()), seen
