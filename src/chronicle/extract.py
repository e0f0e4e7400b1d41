"""Two-stage message extraction.

Stage one, ``classify_sentence(sentence, rules, model=None)``, types a
sentence by trigger-lemma rules, or by a smoothed count-based classifier over
lemma and named-entity features when a trained ``model`` is given. Stage two,
``fill_arguments(sentence, ontology, spec, trigger_span)``, fills the slots of
``spec`` with ontology instances mentioned in the sentence: type-compatible
candidates, nearest to the trigger, leftmost on ties, no token reuse. The rules
locate the trigger whichever classifier typed the sentence. ``extract_messages``
and ``extract_corpus`` take the same ``rules`` and ``model``. Extraction checks
an emitted message against its type's constraints only, since its type and
slots come from the spec and its values from fitting ontology instances;
``load_gold_messages`` checks every invariant on outside input.
"""

from __future__ import annotations

import json
import logging
import math
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import Corpus, Document, Sentence, read_records
from .errors import (EmptyTrainingSet, MalformedRecord, SlotTypeViolation,
                     UnknownMessageType, UnknownSlot, UnparsableAnchor)
from .ontology import (MessageTypeSpec, Ontology, ParsedSpec,
                       constraint_satisfied)
from .temporal import TimeAnchor, _span_distance, message_time

log = logging.getLogger("chronicle.extract")

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

class ClassifierModel:
    """Multinomial count model with add-one smoothing over lemma + NE features.

    Classes are the message types plus the reserved ``none`` label; scores
    are smoothed log posteriors. The class order is kept for tie-breaking
    (first match wins, ``none`` always last).
    """

    def __init__(self, classes: list[str], class_counts: dict[str, int],
                 feature_counts: dict[str, dict[str, int]],
                 vocabulary: set[str]):
        self.classes = list(classes)
        self.class_counts = dict(class_counts)
        self.feature_counts = {c: dict(fc) for c, fc in feature_counts.items()}
        self.vocabulary = set(vocabulary)
        self.total_examples = sum(class_counts.values())
        self.feature_totals = {c: sum(fc.values())
                               for c, fc in self.feature_counts.items()}

    def log_score(self, cls: str, features: list[str]) -> float:
        prior = self.class_counts[cls] / self.total_examples
        score = math.log(prior)
        denom = self.feature_totals[cls] + len(self.vocabulary)
        counts = self.feature_counts[cls]
        for f in features:
            if f not in self.vocabulary:
                continue
            score += math.log((counts.get(f, 0) + 1) / denom)
        return score


def sentence_features(sentence: Sentence) -> list[str]:
    features = [f"lemma:{t.lemma}" for t in sentence.tokens]
    features += [f"ne:{t.ne}" for t in sentence.tokens if t.ne is not None]
    return features


def train_classifier(labeled: list[tuple[Sentence, str | None]],
                     type_order: list[str] | None = None) -> ClassifierModel:
    """Train the count model; None labels stand for the ``none`` class.

    Deterministic and order-independent: only feature/class counts matter.
    ``type_order`` (normally spec-file order) fixes the tie-break order;
    by default classes are ordered by first appearance in the data.
    """
    if not labeled:
        raise EmptyTrainingSet("no labeled sentences")
    class_counts: dict[str, int] = {}
    feature_counts: dict[str, dict[str, int]] = {}
    vocabulary: set[str] = set()
    first_seen: list[str] = []
    for sentence, label in labeled:
        cls = NONE_LABEL if label is None else label
        if cls not in class_counts:
            class_counts[cls] = 0
            feature_counts[cls] = {}
            first_seen.append(cls)
        class_counts[cls] += 1
        for f in sentence_features(sentence):
            vocabulary.add(f)
            feature_counts[cls][f] = feature_counts[cls].get(f, 0) + 1

    if type_order is not None:
        order = [c for c in type_order if c in class_counts]
        order += [c for c in first_seen if c not in order and c != NONE_LABEL]
    else:
        order = [c for c in first_seen if c != NONE_LABEL]
    if NONE_LABEL in class_counts:
        order.append(NONE_LABEL)
    return ClassifierModel(order, class_counts, feature_counts, vocabulary)


def classify_sentence(sentence: Sentence, rules: list[TriggerRule],
                      model: ClassifierModel | None = None) -> str | None:
    """Predict the message type of a sentence, or None.

    Without a model: the first rule (spec-file order) whose trigger lemma
    occurs and whose NE requirements are all present wins. With a model:
    argmax smoothed log score; ties break by class order with ``none`` last.
    """
    if model is None:
        lemmas = set(sentence.lemmas())
        labels = sentence.ne_labels()
        for rule in rules:
            if any(l in lemmas for l in rule.lemmas) \
                    and all(r in labels for r in rule.requires):
                return rule.msg_type
        return None
    features = sentence_features(sentence)
    best_cls, best_score = None, None
    for cls in model.classes:
        score = model.log_score(cls, features)
        if best_score is None or score > best_score:
            best_cls, best_score = cls, score
    return None if best_cls == NONE_LABEL else best_cls


# ---------------------------------------------------------------------------
# Stage two: argument filling

def _instance_spans(sentence: Sentence, ontology: Ontology) -> list[tuple[str, tuple[int, int]]]:
    """All (instance, token_span) occurrences in the sentence, sorted.

    An instance's surface form is its name with underscores as spaces,
    segmented by the corpus tokenizer and matched case-insensitively. Every
    occurrence the ontology's ``PhraseIndex.scan`` finds is kept.
    """
    folded = list(map(str.lower, map(itemgetter(0), sentence.tokens)))
    out = [(instance, (start, end)) for start, end, instance
           in ontology.instance_phrases.scan(folded)]
    out.sort()
    return out


def fill_arguments(sentence: Sentence, ontology: Ontology, spec: MessageTypeSpec,
                   trigger_span: tuple[int, int] | None = None) -> dict[str, str | None]:
    """Heuristic filling of the slots of ``spec``.

    Slots are filled in spec order. Candidates are instance mentions whose
    concept is a subtype of the slot constraint; the mention nearest the
    trigger wins (leftmost on ties, longer span preferred at equal start);
    a token span fills at most one slot; unfilled slots stay None.
    """
    ancestors = ontology.ancestors
    mentions = [(instance, span, ancestors[ontology.concept_of(instance)])
                for instance, span in _instance_spans(sentence, ontology)]
    anchor = trigger_span if trigger_span is not None else (0, 0)
    used: list[tuple[int, int]] = []
    args: dict[str, str | None] = {}
    for slot, concept in spec.slots:
        best = None
        for instance, span, above in mentions:
            if concept not in above:
                continue
            if any(span[0] < u[1] and u[0] < span[1] for u in used):
                continue
            key = (_span_distance(span, anchor), span[0], -(span[1] - span[0]), instance)
            if best is None or key < best[0]:
                best = (key, instance, span)
        if best is None:
            args[slot] = None
        else:
            args[slot] = best[1]
            used.append(best[2])
    return args


# ---------------------------------------------------------------------------
# Pipeline

def trigger_span_for(sentence: Sentence, msg_type: str,
                     rules: list[TriggerRule]) -> tuple[int, int] | None:
    """First token whose lemma triggers ``msg_type``, whichever classifier
    typed the sentence."""
    wanted = set()
    for rule in rules:
        if rule.msg_type == msg_type:
            wanted.update(rule.lemmas)
    for i, token in enumerate(sentence.tokens):
        if token.lemma in wanted:
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


def extract_messages(document: Document, specs: list[MessageTypeSpec],
                     ontology: Ontology, rules: list[TriggerRule],
                     model: ClassifierModel | None = None) -> list[Message]:
    """Run both stages over a document; at most one message per sentence.

    Sentences are typed by ``model`` when one is given, else by ``rules``.
    Messages that violate their type's cross-slot constraints are discarded
    (with a logged reason), not repaired.
    """
    by_name = {m.name: m for m in specs}
    out: list[Message] = []
    for sentence in document.sentences:
        msg_type = classify_sentence(sentence, rules, model)
        if msg_type is None:
            continue
        if msg_type not in by_name:
            log.info("skip %s#%d: predicted unknown type %r",
                     document.doc_id, sentence.index, msg_type)
            continue
        spec = by_name[msg_type]
        trigger = trigger_span_for(sentence, msg_type, rules)
        args = fill_arguments(sentence, ontology, spec, trigger)
        anchor = message_time(sentence, document.publish_time, trigger)
        reason = validate_message(spec, args)
        if reason is not None:
            log.info("discard %s#%d (%s): %s",
                     document.doc_id, sentence.index, msg_type, reason)
            continue
        out.append(Message(msg_type=msg_type, args=args, time=anchor,
                           source=document.source, doc_id=document.doc_id,
                           sentence_index=sentence.index, report_index=document.report_index))
    return out


def extract_corpus(corpus: Corpus, specs: list[MessageTypeSpec],
                   ontology: Ontology, rules: list[TriggerRule],
                   model: ClassifierModel | None = None) -> list[Message]:
    messages: list[Message] = []
    for doc in corpus.documents:
        messages.extend(extract_messages(doc, specs, ontology, rules, model))
    return messages


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
            raise MalformedRecord(f"missing {exc.args[0]}", str(path), ln) from None
        if not isinstance(doc_id, str):
            raise MalformedRecord("doc_id must be a string", str(path), ln)
        if not isinstance(msg_type, str):
            raise MalformedRecord("type must be a string", str(path), ln)
        doc = docs.get(doc_id)
        if doc is None:
            raise MalformedRecord(f"unknown doc_id {doc_id!r}", str(path), ln)
        if (isinstance(sidx, bool) or not isinstance(sidx, int)
                or not 0 <= sidx < len(doc.sentences)):
            raise MalformedRecord(f"sentence_index {sidx!r} out of range",
                                  str(path), ln)
        count = len(seen)
        seen.add((doc_id, sidx))
        if len(seen) == count:
            raise MalformedRecord(f"second message for sentence {doc_id}#{sidx}",
                                  str(path), ln)
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
                raise UnknownMessageType(f"unknown message type {msg_type!r}",
                                         str(path), ln)
            if not isinstance(raw_args, dict):
                raise MalformedRecord("args must be an object of slot values",
                                      str(path), ln)
            for slot in raw_args:
                if slot not in slot_names[msg_type]:
                    raise UnknownSlot(
                        f"message type {msg_type!r} has no slot {slot!r}",
                        str(path), ln)
            args = {}
            for slot, concept in spec.slots:
                value = raw_args.get(slot)
                if value is not None:
                    if not isinstance(value, str):
                        raise MalformedRecord(
                            f"slot {slot!r} must be an instance name or null",
                            str(path), ln)
                    got = ontology.concept_of(value)
                    if got is None or concept not in ontology.ancestors[got]:
                        raise SlotTypeViolation(msg_type, slot, value, concept,
                                                str(path), ln)
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
                raise UnparsableAnchor(exc.value, str(path), ln) from None
        if fresh:
            reason = validate_message(spec, args)
            if reason is not None:
                raise MalformedRecord(reason, str(path), ln)
            checked[pair] = args
        messages.append(Message(msg_type=msg_type, args=args, time=anchor,
                                source=doc.source, doc_id=doc.doc_id,
                                sentence_index=sidx, report_index=doc.report_index))
    return messages


# ---------------------------------------------------------------------------
# Messages artifact (same wire format as gold files)

def write_messages(messages: list[Message], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in messages:
            rec = {"doc_id": m.doc_id, "sentence_index": m.sentence_index,
                   "type": m.msg_type, "args": m.args,
                   "time": m.time.to_string()}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
