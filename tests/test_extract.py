from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chronicle.corpus import PhraseIndex, Sentence, phrase_key, tokenize
from chronicle.errors import (EmptyTrainingSet, MalformedRecord,
                              SlotTypeViolation, UnknownMessageType,
                              UnparsableAnchor)
from chronicle.extract import (Message, TriggerRule, classify_sentence,
                               extract_corpus, fill_arguments,
                               load_gold_messages,
                               load_trigger_rules, train_classifier,
                               trigger_span_for, validate_message)
from chronicle.ontology import ConditionAtom, MessageTypeSpec
from chronicle.temporal import TimeAnchor

from tests.oracles import (message_problem_oracle, posteriors,
                           validate_message_oracle)


def sent(text, lexicon=None, gazetteer=None, index=0):
    return Sentence(index=index, text=text,
                    tokens=tokenize(text, lexicon, gazetteer))


# ---------------------------------------------------------------------------
# stage one: classification

def test_rules_mode_first_matching_rule_wins():
    rules = [TriggerRule("negotiate", ("negotiate",)),
             TriggerRule("demand", ("demand",))]
    s = sent("X negotiated with Y about the release",
             lexicon={"negotiated": "negotiate"})
    assert classify_sentence(s, rules) == "negotiate"


def test_rules_mode_no_trigger_is_none():
    rules = [TriggerRule("negotiate", ("negotiate",))]
    assert classify_sentence(sent("nothing to see"), rules) is None


def test_rules_mode_ne_requirement():
    rules = [TriggerRule("negotiate", ("negotiate",), requires=("PER",))]
    plain = sent("they negotiate tonight")
    tagged = sent("Simona negotiate tonight",
                  gazetteer=PhraseIndex([(phrase_key("Simona"), "PER")]))
    assert classify_sentence(plain, rules) is None
    assert classify_sentence(tagged, rules) == "negotiate"


# The six-sentence two-class fixture. Counts are small enough to carry the
# whole posterior computation by hand: each class has 9 feature tokens, the
# vocabulary has 14 distinct features, priors are 3/6 each.
TRAIN = [
    (sent("officials negotiate tonight"), "negotiate"),
    (sent("envoys negotiate quietly"), "negotiate"),
    (sent("ministers negotiate again"), "negotiate"),
    (sent("gunmen seize compound"), "start"),
    (sent("rebels seize embassy"), "start"),
    (sent("attackers seize station"), "start"),
]
HELD_OUT = sent("gunmen seize again")


def hand_posteriors():
    # P(f|c) with add-one smoothing: (count + 1) / (9 + 14)
    p_neg = Fraction(1, 2) * Fraction(1, 23) * Fraction(1, 23) * Fraction(2, 23)
    p_start = Fraction(1, 2) * Fraction(2, 23) * Fraction(4, 23) * Fraction(1, 23)
    total = p_neg + p_start
    return {"negotiate": p_neg / total, "start": p_start / total}


def test_classifier_held_out_prediction():
    model = train_classifier(TRAIN, type_order=["negotiate", "start"])
    assert classify_sentence(HELD_OUT, [], model) == "start"


def test_classifier_posteriors_match_hand_computation():
    model = train_classifier(TRAIN, type_order=["negotiate", "start"])
    got = posteriors(model, HELD_OUT)
    expected = hand_posteriors()
    assert expected == {"negotiate": Fraction(1, 5), "start": Fraction(4, 5)}
    assert got["negotiate"] == pytest.approx(0.200000, abs=1e-6)
    assert got["start"] == pytest.approx(0.800000, abs=1e-6)


def test_classifier_memorizes_disjoint_single_examples():
    train = [(sent("alpha beta"), "t1"), (sent("gamma delta"), "t2")]
    model = train_classifier(train, type_order=["t1", "t2"])
    assert classify_sentence(sent("alpha beta"), [], model) == "t1"
    assert classify_sentence(sent("gamma delta"), [], model) == "t2"


def test_classifier_empty_training_set():
    with pytest.raises(EmptyTrainingSet):
        train_classifier([], type_order=["t1"])


def test_classifier_is_order_independent():
    a = train_classifier(TRAIN, type_order=["negotiate", "start"])
    b = train_classifier(list(reversed(TRAIN)), type_order=["negotiate", "start"])
    assert posteriors(a, HELD_OUT) == posteriors(b, HELD_OUT)


def test_classifier_ties_follow_the_type_order_not_the_data():
    """Two classes with the same counts tie: the type order breaks the tie,
    whichever label the data gives first."""
    train = [(sent("alpha beta"), "t1"), (sent("alpha beta"), "t2")]
    for data in (train, train[::-1]):
        for order in (["t1", "t2"], ["t2", "t1"]):
            model = train_classifier(data, type_order=order)
            assert classify_sentence(sent("alpha beta"), [], model) == order[0]


def test_classifier_refuses_a_label_outside_the_type_order():
    with pytest.raises(ValueError, match="'t3'"):
        train_classifier([(sent("alpha beta"), "t1"), (sent("gamma"), "t3")],
                         type_order=["t1", "t2"])


# ---------------------------------------------------------------------------
# stage two: argument filling

def test_fill_arguments_nearest_to_trigger(hostage):
    spec = {m.name: m for m in hostage.message_specs}["negotiate"]
    s = sent("The Italian government negotiated with the captors about the release",
             lexicon=hostage.lexicon)
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    trigger = trigger_span_for(s, {lemma for rule in rules if rule.msg_type == "negotiate"
                                   for lemma in rule.lemmas})
    args = fill_arguments(s, hostage.ontology, spec, trigger)
    assert args == {"entity_1": "Italian_government", "entity_2": "captors",
                    "about": "release"}


def test_fill_arguments_missing_candidate_is_null(hostage):
    spec = {m.name: m for m in hostage.message_specs}["negotiate"]
    s = sent("the captors negotiated", lexicon=hostage.lexicon)
    args = fill_arguments(s, hostage.ontology, spec, (2, 3))
    assert args["entity_1"] == "captors"
    assert args["entity_2"] is None


def test_fill_arguments_equidistant_prefers_leftmost(hostage):
    spec = {m.name: m for m in hostage.message_specs}["negotiate"]
    # captors and Simona both one token away from the trigger
    s = sent("captors negotiated Simona release", lexicon=hostage.lexicon)
    args = fill_arguments(s, hostage.ontology, spec, (1, 2))
    assert args["entity_1"] == "captors"
    assert args["entity_2"] == "Simona"


FILLER = ["the", "and", "said", "of", "in", "reported", "after", "talks"]


@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_fill_arguments_leaves_only_constraints_to_check(request, domain):
    # why extraction validates constraints only: over random sentences of
    # instance phrases and filler, with a random trigger or none, the
    # filled args name exactly the spec's slots, each with a fitting instance
    bundle = request.getfixturevalue(domain)
    phrases = sorted(i.replace("_", " ") for i in bundle.ontology.instances)
    filled = empty = 0
    for seed in range(40):
        rng = random.Random(seed)
        words = [rng.choice(phrases) if rng.random() < 0.6 else rng.choice(FILLER)
                 for _ in range(rng.randint(1, 12))]
        s = sent(" ".join(words), lexicon=bundle.lexicon)
        start = rng.randrange(len(s.tokens))
        trigger = rng.choice([None, (start, start + 1)])
        for spec in bundle.message_specs:
            args = fill_arguments(s, bundle.ontology, spec, trigger)
            assert list(args) == spec.slot_names()
            msg = Message(spec.name, args, TimeAnchor.from_string("2004-09-01"),
                          "src", "d1", 0)
            problem = message_problem_oracle(msg, bundle.message_specs,
                                             bundle.ontology)
            assert problem is None or problem.startswith("constraint violated")
            filled += sum(v is not None for v in args.values())
            empty += sum(v is None for v in args.values())
    assert filled and empty


CONSTRAINT_OPS = ("eq", "neq", "lt", "gt", "const")
# "off" is on no scale; a scale may miss other values or repeat one
VALUES = ("a", "b", "c", "d", "off")


def random_constraint(rng: random.Random, slots: list[str]) -> ConditionAtom:
    op = rng.choice(CONSTRAINT_OPS)
    if op == "const":
        side, slot = rng.choice(("left", "right")), rng.choice(slots)
        return ConditionAtom(op="const", side=side, value=rng.choice(VALUES),
                             left_slot=slot if side == "left" else None,
                             right_slot=slot if side == "right" else None)
    scale = None
    if op in ("lt", "gt"):
        scale = tuple(rng.choice(VALUES[:4]) for _ in range(rng.randint(1, 5)))
    return ConditionAtom(op=op, left_slot=rng.choice(slots),
                         right_slot=rng.choice(slots), scale=scale)


@pytest.mark.parametrize("seed", range(100))
def test_validate_message_matches_constraint_oracle(seed):
    # every op, over null, off-scale and repeated-on-scale values, checked
    # against the literal reading of a constraint, reason string included
    rng = random.Random(seed)
    slots = [f"s{i}" for i in range(rng.randint(1, 4))]
    atoms = tuple(random_constraint(rng, slots) for _ in range(rng.randint(1, 4)))
    spec = MessageTypeSpec("m", tuple((s, "Thing") for s in slots), atoms)
    for _ in range(30):
        args = {s: rng.choice(VALUES + (None,)) for s in slots}
        assert validate_message(spec, args) == validate_message_oracle(spec, args)


# ---------------------------------------------------------------------------
# pipeline

def test_single_trigger_document(hostage):
    doc = next(d for d in hostage.corpus.documents if d.doc_id == "aegean-03")
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    messages = extract_corpus(hostage.corpus._replace(documents=(doc,)),
                              hostage.message_specs, hostage.ontology, rules)
    assert len(messages) == 1
    assert messages[0].source == doc.source == "aegean_news"
    assert messages[0].msg_type == "demand"


def test_yesterday_shifts_message_time(hostage):
    doc = next(d for d in hostage.corpus.documents if d.doc_id == "tribune-01")
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    messages = extract_corpus(hostage.corpus._replace(documents=(doc,)),
                              hostage.message_specs, hostage.ontology, rules)
    assert messages[0].time == TimeAnchor.from_string("2004-09-01")


def test_extraction_respects_cross_slot_constraints(hostage):
    # the same instance filling both Person slots violates entity_1 != entity_2
    from chronicle.corpus import build_corpus, parse_rfc3339
    corpus = build_corpus("t", [(
        "d1", "src", parse_rfc3339("2004-09-10T00:00:00Z"),
        ["the captors negotiated with the captors about the release"])],
        lexicon=hostage.lexicon)
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    messages = extract_corpus(corpus, hostage.message_specs, hostage.ontology,
                              rules)
    assert messages == []


def test_extraction_emits_only_valid_messages(hostage):
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    messages = extract_corpus(hostage.corpus, hostage.message_specs,
                              hostage.ontology, rules)
    assert messages
    for m in messages:
        assert message_problem_oracle(m, hostage.message_specs, hostage.ontology) is None


def test_extraction_deterministic(hostage):
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    runs = [extract_corpus(hostage.corpus, hostage.message_specs,
                           hostage.ontology, rules) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_modes_share_argument_filling(hostage):
    # fixed sentence, fixed predicted type: args must not depend on the mode
    from chronicle.corpus import build_corpus, parse_rfc3339
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    text = "The Italian government negotiated with the captors about the release"
    corpus = build_corpus("t", [(
        "d1", "src", parse_rfc3339("2004-09-10T00:00:00Z"), [text])],
        lexicon=hostage.lexicon)
    model = train_classifier(
        [(sent(text, lexicon=hostage.lexicon), "negotiate"),
         (sent("the captors seized the compound", lexicon=hostage.lexicon),
          "start")], type_order=["negotiate", "start"])
    rules_out = extract_corpus(corpus, hostage.message_specs, hostage.ontology,
                               rules)
    stat_out = extract_corpus(corpus, hostage.message_specs, hostage.ontology,
                              rules, model)
    assert len(rules_out) == len(stat_out) == 1
    assert rules_out[0].msg_type == stat_out[0].msg_type == "negotiate"
    assert rules_out[0].args == stat_out[0].args


# ---------------------------------------------------------------------------
# gold messages

def test_gold_messages_load_and_validate(hostage):
    assert len(hostage.gold) == 39
    for m in hostage.gold:
        assert message_problem_oracle(m, hostage.message_specs, hostage.ontology) is None
        doc = next(d for d in hostage.corpus.documents if d.doc_id == m.doc_id)
        assert m.source == doc.source
        assert m.report_index == doc.report_index


def test_gold_unknown_type(tmp_path, hostage):
    path = tmp_path / "g.jsonl"
    path.write_text('{"doc_id": "aegean-01", "sentence_index": 0, '
                    '"type": "bogus", "args": {}}\n')
    with pytest.raises(UnknownMessageType):
        load_gold_messages(path, hostage.message_specs, hostage.ontology,
                           hostage.corpus)


def test_gold_slot_type_violation(tmp_path, hostage):
    path = tmp_path / "g.jsonl"
    path.write_text('{"doc_id": "aegean-01", "sentence_index": 0, '
                    '"type": "start", "args": {"entity": "occupation"}}\n')
    with pytest.raises(SlotTypeViolation) as err:
        load_gold_messages(path, hostage.message_specs, hostage.ontology,
                           hostage.corpus)
    assert err.value.slot == "entity"


def test_gold_unparsable_anchor(tmp_path, hostage):
    path = tmp_path / "g.jsonl"
    path.write_text('{"doc_id": "aegean-01", "sentence_index": 0, '
                    '"type": "start", "args": {}, "time": "not a time"}\n')
    with pytest.raises(UnparsableAnchor):
        load_gold_messages(path, hostage.message_specs, hostage.ontology,
                           hostage.corpus)


def test_gold_constraint_violation_rejected(tmp_path, hostage):
    path = tmp_path / "g.jsonl"
    path.write_text('{"doc_id": "aegean-02", "sentence_index": 0, '
                    '"type": "negotiate", "args": {"entity_1": "captors", '
                    '"entity_2": "captors", "about": "release"}}\n')
    with pytest.raises(MalformedRecord):
        load_gold_messages(path, hostage.message_specs, hostage.ontology,
                           hostage.corpus)


def test_gold_absent_time_uses_publication_day(hostage):
    by_doc = {m.doc_id: m for m in hostage.gold}
    assert by_doc["aegean-01"].time == TimeAnchor.from_string("2004-09-01")
    assert by_doc["tribune-01"].time == TimeAnchor.from_string("2004-09-01")
