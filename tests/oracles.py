"""Literal reference definitions of the stages that have a fast
implementation, and the helpers only tests use.

Each oracle follows the definition in the simplest way, pair by pair, so
randomized tests can check the library against it. ``brute_force_oracle``
in ``chronicle.relations`` plays the same part for relation evaluation.
``anchors_compatible`` is the synchronic window test as the
``chronicle.relations`` docstring states it, with no helper shared with
the sweeps it checks.
The three phrase scans after them are the library's scans from before its
phrase indexes, kept as they were: they try every gazetteer entry,
instance or grammar pattern at every token. The artifact writers after
them are the library's writers from before it formatted records itself:
one ``json.dumps``/``json.dump`` call per record or document, and the
JSON-lines reader from before it called the JSON scanner itself.
``token_rows_ok_oracle`` is the corpus reader's token-row check from before
it checked rows column by column: each row's field types as a tuple, looked
up among the accepted ones. ``classify_sentence_rules_oracle`` and
``trigger_span_for_oracle`` are rules-mode typing and trigger search from
before they ran as set tests and a C-level search: a Python test per rule
lemma and a Python step per token. ``fill_arguments_oracle`` and
``message_time_oracle`` are argument filling and message time from before
they shared one nearness key: the first computes a full key for every
fitting mention once per slot and keeps the least, the second sorts its
resolvable candidates and takes the first; both measure with
``_span_distance``, the package's token distance as it was.
``resolve_oracle`` is ``temporal.resolve`` from before it had one
unresolvable path: each rule's branch raises on its own, through
``_day_after`` for the relative ones.
``load_gold_messages_oracle`` is the gold-message loader from before it
took a shortcut: it checks every record's type, slots and constraints,
where the package checks each distinct (type, args) pair once per call.
``render_summary_oracle`` is the summarizer from before it planned every
sentence in one walk over the sorted relation list: it splits the edges by
axis, regroups each axis by name, re-sorts each diachronic pool, and trims
lone sentences through a separate list. It renders through the
summarizer's helpers from before it kept a per-message table:
``instance_key`` builds a coverage key from an instance's messages,
``_pair_context`` builds a relation sentence's placeholder values anew for
every sentence, and ``_render`` substitutes them with ``re.sub`` on every
call, where the package now compiles each template once.
``is_subtype_oracle`` is the subtype test from before each ontology kept
its concepts' ancestor sets: it walks the parent chain on every call.
``message_problem_oracle`` is the whole message predicate extraction
checked every message against before it checked only the constraints its
slot filling cannot guarantee. It and ``load_gold_messages_oracle`` check
constraints with ``validate_message_oracle``, which reads each atom
literally and shares no evaluator with the package. ``posteriors`` is the
classifier's normalized class probabilities, which no stage reads.
``ClassifierModelOracle`` and ``train_classifier_oracle`` are the
statistical classifier from before it was a table of log-probabilities: the
model keeps raw counts and two totals derived from them, and computes each
smoothed log-likelihood anew for every feature it scores. The
evolution and spec-text helpers at the end have no counterpart in the
package: the pipeline classifies linearity inside ``analyze_corpus`` and
never writes a spec file. Last comes the spec line parser from before the
whole-line patterns for ``instance`` and ``concept`` lines: the cursor
alone, as it was.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from datetime import date, datetime, timedelta
from itertools import repeat

from chronicle.corpus import _TOKEN_RE, Sentence, Token, format_rfc3339, to_utc
from chronicle.evolution import LINEAR, NON_LINEAR, fit_linear
from chronicle.errors import (ChronicleError, DslSyntaxError, EmptyTrainingSet,
                              MalformedRecord, MissingTemplate, SlotTypeViolation,
                              UnknownConcept, UnknownMessageType, UnknownSlot,
                              UnparsableAnchor, UnresolvableExpression)
from chronicle.extract import (NONE_LABEL, ClassifierModel, Message,
                               _instance_spans, sentence_features)
from chronicle.ontology import (_INSTANCE_RE, _NAME_RE, DIACHRONIC, SYNCHRONIC,
                                ConditionAtom, MessageTypeSpec, Ontology,
                                RelationSpec, Statement, _parse_atoms)
from chronicle.relations import (RelationInstance, _message_sort_key,
                                 sort_instances)
from chronicle.summarize import (RenderResult, _date_of, _join_sources,
                                 _pretty, _UnionFind)
from chronicle.temporal import (_MONTHS, _WEEKDAYS, GrammarPattern, _decimal,
                                TemporalExpression, TimeAnchor,
                                find_temporal_expressions, load_grammar,
                                resolve)


def _sort_key(m):
    return (m.time.start, m.doc_id, m.sentence_index)


def anchors_compatible(a, b, window) -> bool:
    """Whether the two anchors' extents, each dilated by half the window
    width, overlap; an open end does not reach its endpoint."""
    half = window.width / 2
    s1, e1, open1 = a.extent()
    s2, e2, open2 = b.extent()
    s1, e1, s2, e2 = s1 - half, e1 + half, s2 - half, e2 + half
    return ((s2 < e1 or (s2 == e1 and not open1))
            and (s1 < e2 or (s1 == e2 and not open2)))


def bucket_oracle(messages, window) -> list[tuple[str, list[tuple[str, int]]]]:
    """(label, member keys) per bucket: the connected components of
    ``anchors_compatible`` by a plain union-find, each sorted by anchor,
    in the order of their earliest member."""
    parent = list(range(len(messages)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(messages):
        for j, b in enumerate(messages):
            if anchors_compatible(a.time, b.time, window):
                parent[find(i)] = find(j)
    components: dict[int, list] = {}
    for i, m in enumerate(messages):
        components.setdefault(find(i), []).append(m)
    groups = sorted((sorted(c, key=_sort_key) for c in components.values()),
                    key=lambda c: _sort_key(c[0]))
    return [(g[0].time.start.strftime("%Y-%m-%d"), [m.key() for m in g])
            for g in groups]


def ellipsis_oracle(messages, sources, window) -> list[tuple]:
    """(message key, bucket, silent sources) per message some other source
    never echoes with a window-compatible message of the same type."""
    bucket_of = {key: index
                 for index, (_, keys) in enumerate(bucket_oracle(messages, window))
                 for key in keys}
    reports = []
    for m in sorted(messages, key=_sort_key):
        silent = []
        for source in sorted(sources):
            if source == m.source:
                continue
            if not any(m2.source == source and m2.msg_type == m.msg_type
                       and anchors_compatible(m.time, m2.time, window)
                       for m2 in messages):
                silent.append(source)
        if silent:
            reports.append((m.key(), bucket_of[m.key()], tuple(silent)))
    return reports


def chains_oracle(edges):
    """Maximal same-name paths; each edge lands in exactly one chain. The
    pool-rescanning walk the summarizer used before its adjacency map."""
    chains = []
    by_name = {}
    for e in edges:
        by_name.setdefault(e.name, []).append(e)
    for name in sorted(by_name):
        pool = sort_instances(by_name[name])
        unconsumed = {instance_key(e): e for e in pool}
        incoming = {e.right.key() for e in pool}

        def take_chain(start):
            chain = [start]
            del unconsumed[instance_key(start)]
            cursor = start.right
            while True:
                nxt = None
                for e in pool:
                    if instance_key(e) in unconsumed and e.left.key() == cursor.key():
                        nxt = e
                        break
                if nxt is None:
                    return chain
                chain.append(nxt)
                del unconsumed[instance_key(nxt)]
                cursor = nxt.right

        for e in pool:
            if instance_key(e) in unconsumed and e.left.key() not in incoming:
                chains.append(take_chain(e))
        while unconsumed:
            first = next(e for e in pool if instance_key(e) in unconsumed)
            chains.append(take_chain(first))
    return chains


def tokenize_oracle(text: str,
                    lexicon: dict[str, str] | None = None,
                    ne_gazetteer: dict[str, str] | None = None) -> tuple[Token, ...]:
    """Segment a sentence into tokens with lemmas and NE labels.

    Deterministic: whitespace/punctuation segmentation, lemma = lexicon entry
    for the lowercased surface (default: the lowercased surface itself),
    gazetteer entries matched greedily longest-first with no overlaps.
    """
    lexicon = lexicon or {}
    spans = [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    lemmas = [lexicon.get(s.lower(), s.lower()) for s, _, _ in spans]
    labels: list[str | None] = [None] * len(spans)

    if ne_gazetteer:
        # Pre-segment each gazetteer surface with the same tokenizer so that
        # multi-word entries align with token boundaries.
        entries: list[tuple[tuple[str, ...], str]] = []
        for surface, label in ne_gazetteer.items():
            key = tuple(m.group(0).lower() for m in _TOKEN_RE.finditer(surface))
            if key:
                entries.append((key, label))
        entries.sort(key=lambda e: (-len(e[0]), e[0]))
        folded = [s.lower() for s, _, _ in spans]
        i = 0
        while i < len(folded):
            for key, label in entries:
                if tuple(folded[i:i + len(key)]) == key:
                    for j in range(i, i + len(key)):
                        labels[j] = label
                    i += len(key) - 1
                    break
            i += 1

    return tuple(
        Token(surface=s, lemma=lemmas[k], ne=labels[k], start=a, end=b)
        for k, (s, a, b) in enumerate(spans)
    )


def instance_spans_oracle(sentence: Sentence, ontology: Ontology) -> list[tuple[str, tuple[int, int]]]:
    """All (instance, token_span) occurrences in the sentence.

    An instance's surface form is its name with underscores as spaces,
    segmented by the corpus tokenizer and matched case-insensitively.
    """
    folded = [t.surface.lower() for t in sentence.tokens]
    out = []
    for instance in sorted(ontology.instances):
        surface = instance.replace("_", " ")
        key = tuple(m.group(0).lower() for m in _TOKEN_RE.finditer(surface))
        if not key:
            continue
        for i in range(0, len(folded) - len(key) + 1):
            if tuple(folded[i:i + len(key)]) == key:
                out.append((instance, (i, i + len(key))))
    return out


def _match_element_oracle(element: str, surface: str) -> tuple[str, int | str] | None | bool:
    """Return False (no match), True (literal match) or a (name, value) capture."""
    folded = surface.lower()
    if element == "<num>":
        return ("num", int(folded)) if folded.isdecimal() else False
    if element == "<day>":
        if folded.isdecimal() and len(folded) <= 2 and 1 <= int(folded) <= 31:
            return ("day", int(folded))
        return False
    if element == "<year>":
        return ("year", int(folded)) if folded.isdecimal() and len(folded) == 4 else False
    if element == "<month>":
        return ("month", _MONTHS[folded]) if folded in _MONTHS else False
    if element == "<weekday>":
        return ("weekday", _WEEKDAYS[folded]) if folded in _WEEKDAYS else False
    if element == "<isodate>":
        parts = folded.split("-")
        if len(parts) == 3 and [len(p) for p in parts] == [4, 2, 2] \
                and all(p.isdecimal() for p in parts):
            return ("isodate", folded)
        return False
    return folded == element.lower()


def find_temporal_expressions_oracle(
        sentence: Sentence,
        grammar: tuple[GrammarPattern, ...] | None = None) -> list[TemporalExpression]:
    """Scan a tokenized sentence for grammar matches.

    Matches are non-overlapping; at each position the longest matching
    pattern wins (grammar file order breaks length ties).
    """
    grammar = grammar if grammar is not None else load_grammar()
    ordered = sorted(range(len(grammar)), key=lambda i: (-len(grammar[i].elements), i))
    tokens = sentence.tokens
    found: list[TemporalExpression] = []
    i = 0
    while i < len(tokens):
        hit = None
        for gi in ordered:
            pat = grammar[gi]
            n = len(pat.elements)
            if i + n > len(tokens):
                continue
            captures = []
            ok = True
            for k, el in enumerate(pat.elements):
                res = _match_element_oracle(el, tokens[i + k].surface)
                if res is False:
                    ok = False
                    break
                if res is not True:
                    captures.append(res)
            if ok:
                raw = sentence.text[tokens[i].start:tokens[i + n - 1].end]
                hit = TemporalExpression(
                    sentence_index=sentence.index, token_span=(i, i + n),
                    pattern_id=pat.pattern_id, raw=raw, rule=pat.rule,
                    captures=tuple(captures))
                break
        if hit is not None:
            found.append(hit)
            i = hit.token_span[1]
        else:
            i += 1
    return found


def write_corpus_artifact_oracle(corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"event_id": corpus.event_id}, sort_keys=True) + "\n")
        for d in corpus.documents:
            rec = {
                "doc_id": d.doc_id,
                "source": d.source,
                "publish_time": format_rfc3339(d.publish_time),
                "report_index": d.report_index,
                "sentences": [
                    {
                        "index": s.index,
                        "text": s.text,
                        "tokens": [[t.surface, t.lemma, t.ne, t.start, t.end]
                                   for t in s.tokens],
                    }
                    for s in d.sentences
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_messages_oracle(messages, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in messages:
            rec = {"doc_id": m.doc_id, "sentence_index": m.sentence_index,
                   "type": m.msg_type, "args": m.args,
                   "time": m.time.to_string()}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_records_oracle(path):
    """``read_records`` as it was before it called the JSON scanner."""
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except ValueError as exc:    # JSONDecodeError, or an overlong int
                raise MalformedRecord(f"invalid JSON ({getattr(exc, 'msg', exc)})",
                                      str(path), ln) from None
            if not isinstance(rec, dict):
                raise MalformedRecord("record is not an object", str(path), ln)
            yield ln, rec


# The field types of a token row: surface, lemma, label or null, offsets.
_ROW_TYPES = {(str, str, label, int, int) for label in (str, type(None))}


def token_rows_ok_oracle(rows) -> bool:
    """Whether ``read_corpus_artifact`` takes the decoded ``tokens`` value
    ``rows``: every row iterates to a surface, a lemma, a label or null and
    two offsets, by the exact types."""
    try:
        return _ROW_TYPES.issuperset(map(tuple, map(map, repeat(type), rows)))
    except TypeError:
        return False


def classify_sentence_rules_oracle(sentence: Sentence, rules) -> str | None:
    """The first rule, in spec-file order, whose trigger lemma occurs and
    whose NE requirements are all present."""
    lemmas = {t.lemma for t in sentence.tokens}
    labels = {t.ne for t in sentence.tokens if t.ne is not None}
    for rule in rules:
        if any(l in lemmas for l in rule.lemmas) \
                and all(r in labels for r in rule.requires):
            return rule.msg_type
    return None


def trigger_span_for_oracle(sentence: Sentence, msg_type: str,
                            rules) -> tuple[int, int] | None:
    """The first token whose lemma a rule of ``msg_type`` lists."""
    wanted = set()
    for rule in rules:
        if rule.msg_type == msg_type:
            wanted.update(rule.lemmas)
    for i, token in enumerate(sentence.tokens):
        if token.lemma in wanted:
            return (i, i + 1)
    return None


def _span_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[1] <= b[0]:
        return b[0] - a[1]
    if b[1] <= a[0]:
        return a[0] - b[1]
    return 0


def fill_arguments_oracle(sentence: Sentence, ontology: Ontology, spec: MessageTypeSpec,
                          trigger_span: tuple[int, int] | None = None) -> dict[str, str | None]:
    """Heuristic filling of the slots of ``spec``.

    Slots are filled in spec order. Candidates are instance mentions whose
    concept is a subtype of the slot constraint; the mention nearest the
    trigger wins (leftmost on ties, longer span preferred at equal start);
    a token span fills at most one slot; unfilled slots stay None.
    """
    ancestors = ontology.ancestors
    mentions = [(instance, span, ancestors[ontology.instances[instance]])
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


def message_time_oracle(msg_sentence: Sentence, publish_time: datetime,
                        trigger_span: tuple[int, int] | None = None) -> TimeAnchor:
    """Anchor for a message found in ``msg_sentence``. Never fails once the
    grammar has loaded: an expression ``resolve`` cannot anchor is skipped.

    If the sentence carries at least one resolvable temporal expression the
    anchor of the one nearest the trigger span is used (leftmost on ties,
    leftmost overall when no trigger is known); otherwise the anchor is the
    publication day.
    """
    candidates: list[tuple[int, int, TimeAnchor]] = []
    for expr in find_temporal_expressions(msg_sentence):
        try:
            anchor = resolve(expr, publish_time)
        except UnresolvableExpression:
            continue
        dist = (_span_distance(expr.token_span, trigger_span)
                if trigger_span is not None else expr.token_span[0])
        candidates.append((dist, expr.token_span[0], anchor))
    if not candidates:
        return TimeAnchor.day(publish_time)
    candidates.sort(key=lambda c: (c[0], c[1]))
    return candidates[0][2]


def _day_after(pub: date, days: int, expr: TemporalExpression) -> TimeAnchor:
    """The day ``days`` days after ``pub``; unresolvable when that day is
    outside the ``date`` range."""
    try:
        return TimeAnchor.day(pub + timedelta(days=days))
    except OverflowError:
        raise UnresolvableExpression(expr.raw, expr.pattern_id) from None


def resolve_oracle(expr: TemporalExpression, publish_time: datetime) -> TimeAnchor:
    """Resolve an expression to a day anchor relative to the publication time.

    "last <weekday>" is the latest such weekday strictly before publication;
    "next <weekday>" the earliest strictly after; "on <weekday>" the nearest
    occurrence not after publication.
    """
    pub = to_utc(publish_time).date()
    rule = expr.rule
    if rule.startswith("day-offset:"):
        days = _decimal(rule.split(":", 1)[1])
        if days is None:
            raise UnresolvableExpression(expr.raw, expr.pattern_id)
        return _day_after(pub, days, expr)
    if rule in ("days-ago", "weeks-ago"):
        num = expr.capture("num")
        if num is None:
            raise UnresolvableExpression(expr.raw, expr.pattern_id)
        days = 7 * num if rule == "weeks-ago" else num
        return _day_after(pub, -days, expr)
    if rule == "dmy":
        try:
            d = date(expr.capture("year"), expr.capture("month"), expr.capture("day"))
        except ValueError:
            raise UnresolvableExpression(expr.raw, expr.pattern_id) from None
        return TimeAnchor.day(d)
    if rule == "iso":
        try:
            d = date.fromisoformat(expr.capture("isodate"))
        except ValueError:
            raise UnresolvableExpression(expr.raw, expr.pattern_id) from None
        return TimeAnchor.day(d)
    if rule == "last-weekday":
        back = (pub.weekday() - expr.capture("weekday") - 1) % 7 + 1
        return _day_after(pub, -back, expr)
    if rule == "next-weekday":
        fwd = (expr.capture("weekday") - pub.weekday() - 1) % 7 + 1
        return _day_after(pub, fwd, expr)
    if rule == "on-weekday":
        back = (pub.weekday() - expr.capture("weekday")) % 7
        return _day_after(pub, -back, expr)
    raise UnresolvableExpression(expr.raw, expr.pattern_id)


def load_gold_messages_oracle(path, specs: list[MessageTypeSpec],
                              ontology: Ontology, corpus) -> list[Message]:
    """``load_gold_messages`` as it was before it checked each distinct
    (type, args) pair once: every record's type, slots and constraints are
    checked anew."""
    by_name = {m.name: m for m in specs}
    slot_names = {m.name: set(m.slot_names()) for m in specs}
    docs = {d.doc_id: d for d in corpus.documents}
    anchors: dict[str, TimeAnchor] = {}
    seen: set[tuple[str, int]] = set()
    messages = []
    for ln, rec in read_records_oracle(path):
        for key in ("doc_id", "sentence_index", "type"):
            if key not in rec:
                raise MalformedRecord(f"missing {key}", str(path), ln)
        for key in ("doc_id", "type"):
            if not isinstance(rec[key], str):
                raise MalformedRecord(f"{key} must be a string", str(path), ln)
        doc = docs.get(rec["doc_id"])
        if doc is None:
            raise MalformedRecord(f"unknown doc_id {rec['doc_id']!r}",
                                  str(path), ln)
        sidx = rec["sentence_index"]
        if (isinstance(sidx, bool) or not isinstance(sidx, int)
                or not 0 <= sidx < len(doc.sentences)):
            raise MalformedRecord(f"sentence_index {sidx!r} out of range",
                                  str(path), ln)
        if (doc.doc_id, sidx) in seen:
            raise MalformedRecord(
                f"second message for sentence {doc.doc_id}#{sidx}",
                str(path), ln)
        seen.add((doc.doc_id, sidx))
        msg_type = rec["type"]
        spec = by_name.get(msg_type)
        if spec is None:
            raise UnknownMessageType(f"unknown message type {msg_type!r}",
                                     str(path), ln)
        raw_args = rec.get("args", {})
        if not isinstance(raw_args, dict):
            raise MalformedRecord("args must be an object of slot values",
                                  str(path), ln)
        for slot in raw_args:
            if slot not in slot_names[msg_type]:
                raise UnknownSlot(
                    f"message type {msg_type!r} has no slot {slot!r}",
                    str(path), ln)
        args: dict[str, str | None] = {}
        for slot, concept in spec.slots:
            value = raw_args.get(slot)
            if value is not None:
                if not isinstance(value, str):
                    raise MalformedRecord(
                        f"slot {slot!r} must be an instance name or null",
                        str(path), ln)
                got = ontology.instances.get(value)
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
                anchor = anchors[time] = TimeAnchor.from_string(time)
            except UnparsableAnchor as exc:
                raise UnparsableAnchor(exc.value, str(path), ln) from None
        reason = validate_message_oracle(spec, args)
        if reason is not None:
            raise MalformedRecord(reason, str(path), ln)
        messages.append(Message(msg_type=msg_type, args=args, time=anchor,
                                source=doc.source, doc_id=doc.doc_id,
                                sentence_index=sidx, report_index=doc.report_index))
    return messages


def write_relations_oracle(instances, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in sort_instances(instances):
            rec = {
                "name": r.name,
                "axis": r.axis,
                "left": {"doc_id": r.left.doc_id,
                         "sentence_index": r.left.sentence_index},
                "right": {"doc_id": r.right.doc_id,
                          "sentence_index": r.right.sentence_index},
            }
            if r.axis == "diachronic":
                rec["distance"] = r.distance
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_coverage_oracle(result, path) -> None:
    doc = {
        "sentences": list(result.sentences),
        "consumed": [{"relation": key, "sentence": idx}
                     for key, idx in result.coverage],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_.]+)\}")


def instance_key(r: RelationInstance) -> str:
    return (f"{r.axis}|{r.name}|{r.left.doc_id}#{r.left.sentence_index}"
            f"->{r.right.doc_id}#{r.right.sentence_index}")


def _single_context(m: Message) -> dict[str, str]:
    ctx = {"source": m.source, "sources": m.source, "date": _date_of(m),
           "type": m.msg_type}
    for slot, value in m.args.items():
        ctx[slot] = _pretty(value)
    return ctx


def _pair_context(left, right, sources) -> dict[str, str]:
    ctx = {"sources": _join_sources(sources), "date": _date_of(left)}
    for side, msg in (("left", left), ("right", right)):
        ctx[f"{side}.source"] = msg.source
        ctx[f"{side}.date"] = _date_of(msg)
        ctx[f"{side}.type"] = msg.msg_type
        for slot, value in msg.args.items():
            ctx[f"{side}.{slot}"] = _pretty(value)
    return ctx


def _render(pattern: str, ctx: dict[str, str], template_name: str) -> str:
    def sub(match: re.Match) -> str:
        key = match.group(1)
        if key not in ctx:
            raise ChronicleError(
                f"template {template_name!r}: unresolvable placeholder {{{key}}}")
        return ctx[key]
    return _PLACEHOLDER_RE.sub(sub, pattern)


def _diachronic_chains_oracle(edges: list[RelationInstance]) -> list[list[RelationInstance]]:
    chains: list[list[RelationInstance]] = []
    by_name: dict[str, list[RelationInstance]] = {}
    for e in edges:
        by_name.setdefault(e.name, []).append(e)
    for name in sorted(by_name):
        pool = sort_instances(by_name[name])
        consumed = [False] * len(pool)
        # left message key -> pool positions of its edges, last = first in pool
        leaving: dict[tuple, list[int]] = {}
        for i in reversed(range(len(pool))):
            leaving.setdefault(pool[i].left.key(), []).append(i)
        incoming = {e.right.key() for e in pool}

        def take_chain(i: int | None) -> list[RelationInstance]:
            chain = []
            while i is not None:
                consumed[i] = True
                chain.append(pool[i])
                out = leaving.get(pool[i].right.key(), [])
                while out and consumed[out[-1]]:
                    out.pop()
                i = out[-1] if out else None
            return chain

        for i, e in enumerate(pool):
            if not consumed[i] and e.left.key() not in incoming:
                chains.append(take_chain(i))
        for i in range(len(pool)):
            if not consumed[i]:
                chains.append(take_chain(i))
    return chains


def render_summary_oracle(graph, templates, ellipsis=(), bucket_budget=None) -> RenderResult:
    edges = [RelationInstance(name, axis, graph.nodes[left], graph.nodes[right])
             for axis, name, left, right in graph.edges]
    for name in sorted({e.name for e in edges}):
        if name not in templates:
            raise MissingTemplate(name)
    if ellipsis and "ellipsis" not in templates:
        raise MissingTemplate("ellipsis")

    # (bucket, kind_rank, sort_key) -> rendered text + consumed instances
    planned: list[tuple[tuple, str, list[str]]] = []

    sync_edges = [e for e in edges if e.axis == SYNCHRONIC]
    dia_edges = [e for e in edges if e.axis == DIACHRONIC]
    bucket_of = {m.key(): index for index, members in enumerate(graph.buckets)
                 for m in members}
    by_key = {m.key(): m for m in graph.nodes}

    # --- synchronic: collapse equal-argument groups, attribute variants
    by_name: dict[str, list[RelationInstance]] = {}
    for e in sync_edges:
        by_name.setdefault(e.name, []).append(e)
    for name in sorted(by_name):
        equal, rest = [], []
        for e in by_name[name]:
            same = e.left.msg_type == e.right.msg_type and e.left.args == e.right.args
            (equal if same else rest).append(e)

        uf = _UnionFind()
        for e in equal:
            uf.union(e.left.key(), e.right.key())
        components: dict[tuple, list[RelationInstance]] = {}
        for e in equal:
            components.setdefault(uf.find(e.left.key()), []).append(e)
        for root in sorted(components):
            edges_c = components[root]
            members = {e.left.key() for e in edges_c} | {e.right.key() for e in edges_c}
            msgs = sorted((by_key[k] for k in members), key=_message_sort_key)
            rep = msgs[0]
            ctx = _pair_context(rep, rep, [m.source for m in msgs])
            text = _render(templates[name].pattern, ctx, name)
            order = (bucket_of[rep.key()], 0, name,
                     _message_sort_key(rep))
            planned.append((order, text, [instance_key(e) for e in edges_c]))

        # group remaining directed instances into undirected pairs
        grouped: dict[tuple, list[RelationInstance]] = {}
        for e in rest:
            pair_id = (name,) + tuple(sorted([e.left.key(), e.right.key()]))
            grouped.setdefault(pair_id, []).append(e)
        for pair_id in sorted(grouped):
            edges_p = grouped[pair_id]
            canon = edges_p[0]
            ctx = _pair_context(canon.left, canon.right,
                                [canon.left.source, canon.right.source])
            text = _render(templates[name].pattern, ctx, name)
            order = (bucket_of[canon.left.key()], 0, name,
                     _message_sort_key(canon.left))
            planned.append((order, text, [instance_key(e) for e in edges_p]))

    # --- diachronic: collapse same-name chains into trend sentences
    for chain in _diachronic_chains_oracle(dia_edges):
        name = chain[0].name
        head, tail = chain[0].left, chain[-1].right
        ctx = _pair_context(head, tail, [head.source])
        ctx["date"] = _date_of(tail)
        text = _render(templates[name].pattern, ctx, name)
        order = (bucket_of[tail.key()], 1, name, _message_sort_key(tail))
        planned.append((order, text, [instance_key(e) for e in chain]))

    # --- ellipsis reports
    reported: set[tuple[str, int]] = set()
    for rep in ellipsis:
        reported.add(rep.message.key())
        ctx = _single_context(rep.message)
        ctx["silent"] = _join_sources(rep.silent_sources)
        text = _render(templates["ellipsis"].pattern, ctx, "ellipsis")
        order = (bucket_of[rep.message.key()], 2, "ellipsis",
                 _message_sort_key(rep.message))
        planned.append((order, text, []))

    # --- lone messages: no relation touches them, no ellipsis covers them
    touched = {e.left.key() for e in edges} | \
              {e.right.key() for e in edges} | reported
    lone_sentences: list[tuple[tuple, str]] = []
    for m in graph.nodes:
        if m.key() in touched:
            continue
        tname = f"lone-{m.msg_type}"
        if tname not in templates:
            raise MissingTemplate(tname)
        text = _render(templates[tname].pattern, _single_context(m), tname)
        order = (bucket_of[m.key()], 3, tname, _message_sort_key(m))
        lone_sentences.append((order, text))

    lone_sentences.sort(key=lambda p: p[0])

    # merge, applying the per-bucket budget to lone sentences only
    mandatory = Counter(order[0] for order, _, _ in planned)
    per_bucket: dict[int, int] = {}
    merged: list[tuple[tuple, str, list[str]]] = list(planned)
    for order, text in lone_sentences:
        bucket = order[0]
        used = per_bucket.get(bucket, 0)
        if bucket_budget is None or mandatory[bucket] + used < bucket_budget:
            merged.append((order, text, []))
            per_bucket[bucket] = used + 1
    merged.sort(key=lambda p: p[0])

    sentences = tuple(text for _, text, _ in merged)
    coverage = []
    for idx, (_, _, consumed) in enumerate(merged):
        for key in consumed:
            coverage.append((key, idx))
    seen = [k for k, _ in coverage]
    if not len(seen) == len(set(seen)) == len(graph.edges):
        raise ChronicleError(
            f"every relation instance must be consumed exactly once: "
            f"{len(graph.edges)} instances, {len(seen)} consumed, "
            f"{len(set(seen))} distinct")
    text = "\n".join(sentences) + ("\n" if sentences else "")
    return RenderResult(text=text, sentences=sentences,
                        coverage=tuple(sorted(coverage)))


def is_subtype_oracle(ontology: Ontology, a: str, b: str) -> bool:
    """Reflexive-transitive subtype test over the taxonomy forest."""
    for name in (a, b):
        if name not in ontology.concepts:
            raise UnknownConcept(f"unknown concept {name!r}")
    node: str | None = a
    while node is not None:
        if node == b:
            return True
        node = ontology.parent.get(node)
    return False


def message_problem_oracle(msg: Message, specs: list[MessageTypeSpec],
                           ontology: Ontology) -> str | None:
    """Check a message against its type spec; returns a reason or None."""
    spec = next((m for m in specs if m.name == msg.msg_type), None)
    if spec is None:
        return f"unknown message type {msg.msg_type!r}"
    for slot in msg.args:
        if slot not in spec.slot_names():
            return f"unknown slot {slot!r}"
    for slot, concept in spec.slots:
        value = msg.args.get(slot)
        if value is None:
            continue
        got = ontology.instances.get(value)
        if got is None:
            return f"{slot}: {value!r} is not an ontology instance"
        if not is_subtype_oracle(ontology, got, concept):
            return f"{slot}: {value!r} is not an instance of {concept!r}"
    return validate_message_oracle(spec, msg.args)


def constraint_holds_oracle(atom: ConditionAtom, args: dict) -> bool:
    """A message constraint read literally: it holds when a slot it names is
    null; otherwise ``eq`` and ``neq`` compare the two values, ``lt`` and
    ``gt`` their first places on the scale (a value off the scale fails),
    and ``const`` the slot its side names with the value."""
    if atom.op == "const":
        value = args.get(atom.left_slot if atom.side == "left" else atom.right_slot)
        return value is None or value == atom.value
    lv, rv = args.get(atom.left_slot), args.get(atom.right_slot)
    if lv is None or rv is None:
        return True
    if atom.op == "eq":
        return lv == rv
    if atom.op == "neq":
        return lv != rv
    if lv not in atom.scale or rv not in atom.scale:
        return False
    if atom.op == "lt":
        return atom.scale.index(lv) < atom.scale.index(rv)
    return atom.scale.index(lv) > atom.scale.index(rv)


def validate_message_oracle(spec: MessageTypeSpec, args: dict) -> str | None:
    """``validate_message`` by ``constraint_holds_oracle``: why ``args``
    break the first constraint of ``spec`` they break, or None."""
    for atom in spec.constraints:
        if not constraint_holds_oracle(atom, args):
            return (f"constraint violated: {atom.op} on "
                    f"({atom.left_slot}, {atom.right_slot or atom.value})")
    return None


def posteriors(model: ClassifierModel, sentence: Sentence) -> dict[str, float]:
    features = sentence_features(sentence)
    scores = {c: model.log_score(c, features) for c in model.classes}
    peak = max(scores.values())
    expd = {c: math.exp(s - peak) for c, s in scores.items()}
    norm = sum(expd.values())
    return {c: v / norm for c, v in expd.items()}


class ClassifierModelOracle:
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


def train_classifier_oracle(labeled: list[tuple[Sentence, str | None]],
                            type_order: list[str]) -> ClassifierModelOracle:
    """Train the count model; None labels stand for the ``none`` class.

    Deterministic and order-independent: only feature/class counts matter.
    ``type_order`` (normally spec-file order) fixes the tie-break order; a
    label outside it raises ValueError.
    """
    if not labeled:
        raise EmptyTrainingSet("no labeled sentences")
    class_counts: dict[str, int] = {}
    feature_counts: dict[str, dict[str, int]] = {}
    vocabulary: set[str] = set()
    for sentence, label in labeled:
        cls = NONE_LABEL if label is None else label
        if cls not in class_counts:
            if label is not None and label not in type_order:
                raise ValueError(f"label {label!r} is not in the type order")
            class_counts[cls] = 0
            feature_counts[cls] = {}
        class_counts[cls] += 1
        for f in sentence_features(sentence):
            vocabulary.add(f)
            feature_counts[cls][f] = feature_counts[cls].get(f, 0) + 1

    order = [c for c in type_order if c in class_counts]
    if NONE_LABEL in class_counts:
        order.append(NONE_LABEL)
    return ClassifierModelOracle(order, class_counts, feature_counts, vocabulary)

def classify_linearity(timestamps, residual_threshold: float = 0.1) -> str:
    model = fit_linear(timestamps)
    return LINEAR if model.residual <= residual_threshold else NON_LINEAR


def _atom_text(atom: ConditionAtom, bare: bool = False) -> str:
    def ref(side: str, slot: str) -> str:
        return slot if bare else f"{side}.{slot}"

    if atom.op == "const":
        slot = atom.left_slot if atom.side == "left" else atom.right_slot
        return f'{ref(atom.side, slot)} == "{atom.value}"'
    op = {"eq": "==", "neq": "!=", "lt": "<", "gt": ">"}[atom.op]
    return f"{ref('left', atom.left_slot)} {op} {ref('right', atom.right_slot)}"


def dump_domain(ontology: Ontology,
                message_specs: list[MessageTypeSpec] = (),
                relation_specs: list[RelationSpec] = (),
                triggers=()) -> str:
    """Serialize a loaded domain back to canonical spec-file text, which
    reloads to equal objects.

    ``triggers`` are the rules ``extract.load_trigger_rules`` returns.
    """
    lines: list[str] = []
    parent = dict(ontology.parent)
    emitted: set[str] = set()

    def emit_concept(name: str):
        if name in emitted:
            return
        if name in parent:
            emit_concept(parent[name])
            emitted.add(name)
            lines.append(f"concept {name} < {parent[name]}")
        else:
            emitted.add(name)
            lines.append(f"concept {name}")

    for name in sorted(ontology.concepts):
        emit_concept(name)
    for instance, concept in ontology.instances.items():
        lines.append(f"instance {instance} : {concept}")
    for concept, values in ontology.ordered_scales.items():
        lines.append(f"scale {concept} = " + " < ".join(values))
    for m in message_specs:
        sig = ", ".join(f"{s}: {c}" for s, c in m.slots)
        where = ""
        if m.constraints:
            where = " where " + " && ".join(
                _atom_text(a, bare=True) for a in m.constraints)
        lines.append(f"message {m.name}({sig}){where}")
    for r in relation_specs:
        parts = [f"relation {r.name}", f"axis={r.axis}",
                 f"left={r.left_type}", f"right={r.right_type}"]
        if r.distance is not None:
            parts.append(f"distance{r.distance[0]}{r.distance[1]}")
        if r.symmetric:
            parts.append("symmetric")
        text = " ".join(parts)
        if r.conditions:
            text += " where " + " && ".join(_atom_text(a) for a in r.conditions)
        lines.append(text)
    for t in triggers:
        text = f"trigger {t.msg_type} on [" + ", ".join(t.lemmas) + "]"
        if t.requires:
            text += " requires [" + ", ".join(t.requires) + "]"
        lines.append(text)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The spec line parser before its whole-line patterns

class _Cursor:
    """Single-line scanner that reports 1-based columns on error."""

    def __init__(self, text: str, path: str, line: int):
        self.text = text
        self.pos = 0
        self.path = path
        self.line = line

    def error(self, msg: str, pos: int | None = None):
        raise DslSyntaxError(msg, self.path, self.line,
                             (self.pos if pos is None else pos) + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.error(f"unexpected trailing input {self.text[self.pos:].strip()!r}")

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect_literal(self, literal: str):
        if not self.try_literal(literal):
            self.error(f"expected {literal!r}")

    def name(self, what: str = "name", pattern: re.Pattern = _NAME_RE) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def instance_name(self, what: str = "instance name") -> str:
        return self.name(what, _INSTANCE_RE)

    def quoted(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            self.error("expected quoted value")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            self.error("unterminated quote")
        value = self.text[self.pos + 1:end]
        self.pos = end + 1
        return value

    def integer(self) -> int:
        self.skip_ws()
        m = re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            self.error("expected integer")
        self.pos = m.end()
        return int(m.group(0))


def parse_line_oracle(line: str, ln: int, path: str) -> Statement | None:
    """The spec line parser as it was before the whole-line patterns: the
    cursor alone reads every line. Condition atoms go to the library's
    ``_parse_atoms``, which the patterns left as it was."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    cur = _Cursor(line, path, ln)
    cur.skip_ws()
    keyword = cur.name("statement keyword")

    if keyword == "concept":
        name = cur.name("concept name")
        parent = None
        if cur.try_literal("<"):
            parent = cur.name("parent concept")
        cur.expect_end()
        return Statement("concept", ln, {"name": name, "parent": parent})

    if keyword == "instance":
        name = cur.instance_name()
        cur.expect_literal(":")
        concept = cur.name("concept name")
        cur.expect_end()
        return Statement("instance", ln, {"name": name, "concept": concept})

    if keyword == "scale":
        concept = cur.name("concept name")
        cur.expect_literal("=")
        values = [cur.instance_name("scale value")]
        while cur.try_literal("<"):
            values.append(cur.instance_name("scale value"))
        cur.expect_end()
        return Statement("scale", ln, {"concept": concept, "values": values})

    if keyword == "message":
        name = cur.name("message type name")
        cur.expect_literal("(")
        slots = []
        if not cur.try_literal(")"):
            while True:
                slot = cur.name("slot name")
                cur.expect_literal(":")
                concept = cur.name("concept name")
                slots.append((slot, concept))
                if cur.try_literal(")"):
                    break
                cur.expect_literal(",")
        atoms = _parse_atoms(cur) if cur.try_literal("where") else []
        cur.expect_end()
        return Statement("message", ln, {"name": name, "slots": slots,
                                         "atoms": atoms})

    if keyword == "relation":
        name = cur.name("relation name")
        axis = left = right = None
        distance = None
        symmetric = False
        while True:
            cur.skip_ws()
            pos = cur.pos
            if cur.at_end():
                break
            if cur.try_literal("where"):
                cur.pos = pos
                break
            key = cur.name("relation property")
            if key == "axis":
                cur.expect_literal("=")
                axis = cur.name("axis")
                if axis not in (SYNCHRONIC, DIACHRONIC):
                    cur.error(f"axis must be {SYNCHRONIC} or {DIACHRONIC}", pos)
            elif key == "left":
                cur.expect_literal("=")
                left = cur.name("message type")
            elif key == "right":
                cur.expect_literal("=")
                right = cur.name("message type")
            elif key == "distance":
                if cur.try_literal(">="):
                    distance = (">=", cur.integer())
                elif cur.try_literal("=="):
                    distance = ("==", cur.integer())
                else:
                    cur.error("expected distance==k or distance>=k", pos)
            elif key == "symmetric":
                symmetric = True
            else:
                cur.error(f"unknown relation property {key!r}", pos)
        atoms = _parse_atoms(cur) if cur.try_literal("where") else []
        cur.expect_end()
        for label, value in (("axis", axis), ("left", left), ("right", right)):
            if value is None:
                cur.error(f"relation {name!r} is missing {label}=", 0)
        return Statement("relation", ln, {
            "name": name, "axis": axis, "left": left, "right": right,
            "distance": distance, "symmetric": symmetric, "atoms": atoms})

    if keyword == "trigger":
        msg_type = cur.name("message type")
        cur.expect_literal("on")
        cur.expect_literal("[")
        lemmas = [cur.instance_name("lemma")]
        while cur.try_literal(","):
            lemmas.append(cur.instance_name("lemma"))
        cur.expect_literal("]")
        requires: list[str] = []
        if cur.try_literal("requires"):
            cur.expect_literal("[")
            requires.append(cur.name("NE label"))
            while cur.try_literal(","):
                requires.append(cur.name("NE label"))
            cur.expect_literal("]")
        cur.expect_end()
        return Statement("trigger", ln, {"msg_type": msg_type, "lemmas": lemmas,
                                         "requires": requires})

    cur.error(f"unknown statement {keyword!r}", 0)
    return None
