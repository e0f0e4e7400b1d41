"""Two-stage message extraction.

Stage one, ``classify_sentence(sentence, rules, model=None)``, types a
sentence by trigger-lemma rules, or, given a trained ``model``, by a table of
smoothed log-probabilities over lemma and named-entity features. Stage two,
``fill_arguments(sentence, ontology, spec, trigger_span)``, fills the slots of
``spec`` with ontology instances mentioned in the sentence: type-compatible
candidates, least by ``temporal.nearness`` (nearest the trigger, leftmost on
ties), no token reuse. The rules
locate the trigger whichever classifier typed the sentence. ``extract_corpus``
is the one extraction loop, over documents and then sentences; it builds its
spec-name map and each type's trigger-lemma set once per call. Extraction
checks an emitted message against its type's constraints only, since its type
and slots come from the spec and its values from fitting ontology instances;
``load_gold_messages`` checks every invariant on outside input.

Rules-mode typing reads a sentence's lemma and label sets in C-level
passes and tests each rule with two set operations. ``write_messages``
formats each line itself, with the bytes of ``json.dumps(record,
sort_keys=True)``, as ``write_relations`` does.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, Sentence, read_records
from .errors import (EmptyTrainingSet, MalformedRecord, SlotTypeViolation,
                     UnknownMessageType, UnknownSlot, UnparsableAnchor)
from .ontology import (MessageTypeSpec, Ontology, ParsedSpec,
                       constraint_satisfied)
from .temporal import TimeAnchor, message_time, nearness

log = logging.getLogger("chronicle.extract")

# The fields of a token row (``corpus.Token``), read in C-level passes.
_SURFACE, _LEMMA, _LABEL = itemgetter(0), itemgetter(1), itemgetter(2)

NONE_LABEL = "none"


class Message(NamedTuple):
    """A typed incident record, tagged with its source and resolved time."""

    msg_type: str
    args: dict[str, str | None]
    time: TimeAnchor
    source: str
    doc_id: str
    sentence_index: int
    report_index: int = 0

    def key(self) -> tuple[str, int]:
        return (self.doc_id, self.sentence_index)


class TriggerRule(NamedTuple):
    msg_type: str
    lemmas: tuple[str, ...]
    requires: tuple[str, ...] = ()


def load_trigger_rules(spec: str | Path | ParsedSpec,
                       message_specs: list[MessageTypeSpec]) -> list[TriggerRule]:
    """The spec's ``trigger`` lines, in file order."""
    known = {m.name for m in message_specs}
    spec = ParsedSpec.of(spec)
    rules = []
    for st in spec.statements("trigger"):
        msg_type = st.data["msg_type"]
        if msg_type not in known:
            raise UnknownMessageType(
                f"trigger references unknown message type {msg_type!r}",
                spec.path, st.line)
        rules.append(TriggerRule(msg_type, tuple(st.data["lemmas"]),
                                 tuple(st.data["requires"])))
    return rules


# ---------------------------------------------------------------------------
# Stage one: type classification

class ClassifierModel(NamedTuple):
    """A multinomial model with add-one smoothing, computed once by
    ``train_classifier``: the class order (the message types, then ``none``;
    the first wins a tie), each class's log prior, and each class's table of
    smoothed log-likelihoods over the training vocabulary."""

    classes: tuple[str, ...]
    log_priors: dict[str, float]
    log_likelihoods: dict[str, dict[str, float]]

    def log_score(self, cls: str, features: list[str]) -> float:
        """The log prior of ``cls`` plus the table value of each feature in
        the training vocabulary, in sentence order."""
        table = self.log_likelihoods[cls]
        score = self.log_priors[cls]
        for f in features:
            if f in table:
                score += table[f]
        return score


def sentence_features(sentence: Sentence) -> list[str]:
    features = [f"lemma:{t.lemma}" for t in sentence.tokens]
    features += [f"ne:{t.ne}" for t in sentence.tokens if t.ne is not None]
    return features


def train_classifier(labeled: list[tuple[Sentence, str | None]],
                     type_order: list[str]) -> ClassifierModel:
    """Count each class's examples and features once and take their
    smoothed logarithms; None labels stand for the ``none`` class. The order
    of ``labeled`` does not matter. ``type_order`` (normally spec-file order)
    fixes the tie-break order; a label outside it raises ValueError."""
    if not labeled:
        raise EmptyTrainingSet("no labeled sentences")
    examples: Counter[str] = Counter()
    counts: dict[str, Counter[str]] = {}
    for sentence, label in labeled:
        cls = NONE_LABEL if label is None else label
        if cls not in counts:
            if label is not None and label not in type_order:
                raise ValueError(f"label {label!r} is not in the type order")
            counts[cls] = Counter()
        examples[cls] += 1
        counts[cls].update(sentence_features(sentence))
    order = [c for c in type_order if c in counts]
    if NONE_LABEL in counts:
        order.append(NONE_LABEL)
    vocabulary = set().union(*counts.values())
    log_priors, tables = {}, {}
    for cls in order:
        log_priors[cls] = math.log(examples[cls] / len(labeled))
        denom = counts[cls].total() + len(vocabulary)
        tables[cls] = {f: math.log((counts[cls][f] + 1) / denom) for f in vocabulary}
    return ClassifierModel(tuple(order), log_priors, tables)


def classify_sentence(sentence: Sentence, rules: list[TriggerRule],
                      model: ClassifierModel | None = None) -> str | None:
    """Predict the message type of a sentence, or None.

    Without a model: the first rule (spec-file order) whose trigger lemma
    occurs and whose NE requirements are all present wins; the sentence's
    lemma and label sets are built in C-level passes, and each rule is two
    set tests. With a model: argmax smoothed log score; ties break by class
    order with ``none`` last.
    """
    if model is None:
        lemmas = set(map(_LEMMA, sentence.tokens))
        labels = set(map(_LABEL, sentence.tokens))
        for rule in rules:
            if not lemmas.isdisjoint(rule.lemmas) and labels.issuperset(rule.requires):
                return rule.msg_type
        return None
    features = sentence_features(sentence)
    best = max(model.classes, key=lambda cls: model.log_score(cls, features))
    return None if best == NONE_LABEL else best


# ---------------------------------------------------------------------------
# Stage two: argument filling

def _instance_spans(sentence: Sentence, ontology: Ontology) -> list[tuple[str, tuple[int, int]]]:
    """All (instance, token_span) occurrences in the sentence, in the order
    the ontology's ``PhraseIndex.scan`` finds them.

    An instance's surface form is its name with underscores as spaces,
    segmented by the corpus tokenizer and matched case-insensitively.
    """
    folded = list(map(str.lower, map(_SURFACE, sentence.tokens)))
    return [(instance, (start, end)) for start, end, instance
            in ontology.instance_phrases.scan(folded)]


def fill_arguments(sentence: Sentence, ontology: Ontology, spec: MessageTypeSpec,
                   trigger_span: tuple[int, int] | None = None) -> dict[str, str | None]:
    """Heuristic filling of the slots of ``spec``.

    The instance mentions are ranked once: by ``nearness`` to the trigger,
    then the longer span, then the instance name. Each slot, in spec order,
    takes the first ranked mention whose concept is a subtype of the slot
    constraint and whose span overlaps no span already taken; a slot with
    no such mention stays None.
    """
    ancestors, concept_of = ontology.ancestors, ontology.instances
    ranked = sorted((nearness(span, trigger_span), span[0] - span[1], instance, span)
                    for instance, span in _instance_spans(sentence, ontology))
    used: list[tuple[int, int]] = []
    args: dict[str, str | None] = {}
    for slot, concept in spec.slots:
        for _, _, instance, span in ranked:
            if concept in ancestors[concept_of[instance]] and \
                    not any(span[0] < end and start < span[1] for start, end in used):
                used.append(span)
                break
        else:
            instance = None
        args[slot] = instance
    return args


# ---------------------------------------------------------------------------
# Pipeline

def trigger_span_for(sentence: Sentence,
                     lemmas: set[str]) -> tuple[int, int] | None:
    """First token whose lemma is one of ``lemmas``, the trigger lemmas of
    the sentence's type, whichever classifier typed the sentence."""
    for i, lemma in enumerate(map(_LEMMA, sentence.tokens)):
        if lemma in lemmas:
            return (i, i + 1)
    return None


def validate_message(spec: MessageTypeSpec,
                     args: dict[str, str | None]) -> str | None:
    """Why ``args`` break the first cross-slot constraint of ``spec`` they
    break, or None. Extraction checks nothing else: ``fill_arguments``
    fills exactly the spec's slots, each with an instance of its concept."""
    for atom in spec.constraints:
        if not constraint_satisfied(atom, args):
            return f"constraint violated: {atom.op} on " \
                   f"({atom.left_slot}, {atom.right_slot or atom.value})"
    return None


def extract_corpus(corpus: Corpus, specs: list[MessageTypeSpec],
                   ontology: Ontology, rules: list[TriggerRule],
                   model: ClassifierModel | None = None) -> list[Message]:
    """Run both stages over every sentence; at most one message per sentence.

    Sentences are typed by ``model`` when one is given, else by ``rules``.
    Messages that violate their type's cross-slot constraints are discarded
    (with a logged reason), not repaired.
    """
    by_name = {m.name: m for m in specs}
    triggers: dict[str, set[str]] = {name: set() for name in by_name}
    for rule in rules:
        triggers.setdefault(rule.msg_type, set()).update(rule.lemmas)
    out: list[Message] = []
    for document in corpus.documents:
        for sentence in document.sentences:
            msg_type = classify_sentence(sentence, rules, model)
            if msg_type is None:
                continue
            spec = by_name[msg_type]
            trigger = trigger_span_for(sentence, triggers[msg_type])
            args = fill_arguments(sentence, ontology, spec, trigger)
            anchor = message_time(sentence, document.publish_time, trigger)
            reason = validate_message(spec, args)
            if reason is not None:
                log.info("discard %s#%d (%s): %s",
                         document.doc_id, sentence.index, msg_type, reason)
                continue
            out.append(Message(msg_type=msg_type, args=args, time=anchor,
                               source=document.source, doc_id=document.doc_id,
                               sentence_index=sentence.index,
                               report_index=document.report_index))
    return out


# ---------------------------------------------------------------------------
# Gold messages (messages-jsonl-v1)

def load_gold_messages(path: str | Path, specs: list[MessageTypeSpec],
                       ontology: Ontology, corpus: Corpus) -> list[Message]:
    """Load hand-authored messages, validating every message invariant.

    Records: ``doc_id``, ``sentence_index``, ``type``, ``args`` (slot to
    instance or null), optional ``time`` (RFC 3339 day or instant; absent
    means the publication day). One message per sentence, as in extraction.
    Each spec's slot names and each parsed ``time`` string are computed once
    per call; a slot value fits its concept when the concept is among the
    ancestors of the value's own. The type, slot and constraint checks
    depend on a record's ``type`` and ``args`` alone, so they run once per
    distinct pair in a call: a later record with the same pair takes the
    checked slot values of the first, and only its own fields, ``doc_id``,
    ``sentence_index`` and ``time``, are checked again. A pair is kept only
    once it has passed, so errors come in the same order and on the same
    line as when every record is checked. Messages with the same pair
    share one ``args`` dict.
    """
    by_name = {m.name: m for m in specs}
    slot_names = {m.name: set(m.slot_names()) for m in specs}
    docs = {d.doc_id: d for d in corpus.documents}
    anchors: dict[str, TimeAnchor] = {}
    # (type, the slot names, then their values) -> the checked slot values,
    # for each passed pair
    checked: dict[tuple, dict[str, str | None]] = {}
    seen: set[tuple[str, int]] = set()
    messages = []
    for ln, rec in read_records(path):
        try:
            doc_id, sidx, msg_type = rec["doc_id"], rec["sentence_index"], rec["type"]
        except KeyError as exc:
            raise MalformedRecord(f"missing {exc.args[0]}", path, ln) from None
        if not isinstance(doc_id, str):
            raise MalformedRecord("doc_id must be a string", path, ln)
        if not isinstance(msg_type, str):
            raise MalformedRecord("type must be a string", path, ln)
        doc = docs.get(doc_id)
        if doc is None:
            raise MalformedRecord(f"unknown doc_id {doc_id!r}", path, ln)
        if (isinstance(sidx, bool) or not isinstance(sidx, int)
                or not 0 <= sidx < len(doc.sentences)):
            raise MalformedRecord(f"sentence_index {sidx!r} out of range", path, ln)
        count = len(seen)
        seen.add((doc_id, sidx))
        if len(seen) == count:
            raise MalformedRecord(f"second message for sentence {doc_id}#{sidx}",
                                  path, ln)
        raw_args = rec.get("args", {})
        try:
            pair = (msg_type, *raw_args, *raw_args.values())
            args = checked.get(pair)
        except (AttributeError, TypeError):
            # args not an object, or a slot value unhashable: both fail below
            pair = args = None
        fresh = args is None
        if fresh:
            spec = by_name.get(msg_type)
            if spec is None:
                raise UnknownMessageType(f"unknown message type {msg_type!r}", path, ln)
            if not isinstance(raw_args, dict):
                raise MalformedRecord("args must be an object of slot values", path, ln)
            for slot in raw_args:
                if slot not in slot_names[msg_type]:
                    raise UnknownSlot(
                        f"message type {msg_type!r} has no slot {slot!r}", path, ln)
            args = {}
            for slot, concept in spec.slots:
                value = raw_args.get(slot)
                if value is not None:
                    if not isinstance(value, str):
                        raise MalformedRecord(
                            f"slot {slot!r} must be an instance name or null", path, ln)
                    got = ontology.instances.get(value)
                    if got is None or concept not in ontology.ancestors[got]:
                        raise SlotTypeViolation(msg_type, slot, value, concept,
                                                path, ln)
                args[slot] = value
        time = rec.get("time")
        if time is None:
            anchor = TimeAnchor.day(doc.publish_time)
        elif isinstance(time, str) and time in anchors:
            anchor = anchors[time]
        else:
            try:
                # only a string parses, so ``time`` is one from here on
                anchor = anchors[time] = TimeAnchor.from_string(time)
            except UnparsableAnchor as exc:
                raise UnparsableAnchor(exc.value, path, ln) from None
        if fresh:
            reason = validate_message(spec, args)
            if reason is not None:
                raise MalformedRecord(reason, path, ln)
            checked[pair] = args
        messages.append(Message(msg_type=msg_type, args=args, time=anchor,
                                source=doc.source, doc_id=doc.doc_id,
                                sentence_index=sidx, report_index=doc.report_index))
    return messages


# ---------------------------------------------------------------------------
# Messages artifact (same wire format as gold files)

# A message line, keys in sorted order, as ``json.dumps(record,
# sort_keys=True)`` writes it.
_MESSAGE = ('{"args": {%s}, "doc_id": %s, "sentence_index": %d, "time": %s, '
            '"type": %s}\n')


def write_messages(messages: list[Message], path: str | Path) -> None:
    """One line per message, in the order given, with the bytes of
    ``json.dumps(record, sort_keys=True)``: keys ``args`` (slot to instance
    or null, by slot name), ``doc_id``, ``sentence_index``, ``time`` and
    ``type``. Each line is formatted here, its strings escaped by the
    ``json`` module's ASCII escaper, as ``write_relations`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_MESSAGE % (_args_text(m.args), encode_basestring_ascii(m.doc_id),
                                  m.sentence_index,
                                  encode_basestring_ascii(m.time.to_string()),
                                  encode_basestring_ascii(m.msg_type))
                      for m in messages)


def _args_text(args: dict[str, str | None]) -> str:
    """The members of a message's ``args`` object, by slot name."""
    return ", ".join([f"{encode_basestring_ascii(slot)}: "
                      f"{'null' if value is None else encode_basestring_ascii(value)}"
                      for slot, value in sorted(args.items())])
