"""Cross-document relation evaluation over extracted messages.

Synchronic candidates are cross-source message pairs whose time anchors
fall together under a configurable window: each anchor's occupied interval
is dilated by half the window width and the pair is compatible when the
dilated intervals overlap. With width zero and instant anchors this
degenerates to exact time equality. Diachronic candidates are same-source
pairs at strictly increasing anchors, their distance counted in per-source
report steps.

The engine works in the time order alone. Messages are walked once in
``_message_sort_key`` order, and a message is its position in that walk.
Its span is two integers, minutes since the epoch with both ends included:
an instant is one minute, an interval runs from its start to its end, and
a day from 00:00 to 23:59. The window is a whole number of minutes (the
duration grammar reads no finer one), and the span's end is pushed out by
the whole width. Every anchor lies on the minute grid, so two spans
overlap, ``a.start <= b.end and b.start <= a.end``, exactly when the two
anchors' extents, each dilated by half the width, overlap. No date is
computed, so an anchor at either end of the date range and the widest
window the grammar reads relate like any other.

Candidates are found without testing every pair. Synchronic ones come from
a sweep over spans sorted by start: a message can only overlap spans that
start between its own start minus the longest span among the candidates
and its own end, a range two bisections find. Ellipsis runs the same sweep
on per-(type, source) lists. Diachronic ones come from per-source lists in
report order, where a rule's distance is a range of report indices that
two bisections find (``==k`` one index, ``>=k`` every index from ``+k``
on, no distance the whole source). Report order follows publish time, but
anchors come from the text, so each candidate in the range is still tested
for a strictly later span start. Both generators yield (left, right,
distance) triples, the distance None on the synchronic axis.

``evaluate_relations`` runs each rule as a keyed join, since a rule's
conditions are a conjunction of slot equalities plus a few other atoms.
The rule's ``eq`` atoms, in order, give a key over the left message's
slots and one over the right's; its ``const`` atoms filter each side. The
right messages are grouped by key, and the sweep or the report index runs
inside the left message's group only. A message with a null key slot, or
one that fails a ``const`` atom, joins no group, since no atom matches a
null slot. The ``neq``, ``lt`` and ``gt`` atoms are tested on each
candidate. A relation found is the tuple (axis, name, left position, right
position, distance); the set of them, sorted, is in ``sort_instances``
order, since positions follow ``_message_sort_key`` and message keys are
unique. Each is built into a ``RelationInstance`` once.

``brute_force_oracle`` re-implements the whole contract literally and
independently (no shared condition or window helpers) so tests can check
the engine against it on randomized inputs.

A bucket is a run of messages in ``_message_sort_key`` order, the tuple of
its members, and its index is its place in the bucket list. The one walk
that feeds the sweeps also gives each message's bucket.
``read_relations`` gives each record as its instance key
(``RelationInstance.key``): the summarizer needs no more of a relation.

``write_relations`` formats each line itself, escaping strings with the
``json`` module's ASCII escaper, and writes the bytes that
``json.dumps(record, sort_keys=True)`` would (the format in README.md):
a dense relation set has thousands of instances, and a ``json.dumps``
call per record takes about twice as long as the formatted line.
``read_relations`` reads such a line with one compiled pattern, about
three times as fast as the JSON scanner. Any other line, a record in
another JSON encoding (key order, whitespace, escapes, non-ASCII) or no
record at all, goes through the JSON-lines decoder that every artifact
reader uses. Both give a record's name, axis, message keys and distance,
and one check runs on them, so a record reads the same, or fails with
the same error on the same line, whichever way it was read.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import timedelta
from itertools import groupby
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .corpus import minutes_since_epoch, read_records, record_decoder
from .errors import MalformedRecord
from .extract import Message
from .ontology import RelationSpec, SYNCHRONIC, DIACHRONIC, evaluate_atom

_MINUTE = timedelta(minutes=1)


@dataclass(frozen=True)
class WindowPolicy:
    """Synchronic tolerance, a whole number of minutes. Two anchors are
    compatible when their extents, each dilated by width/2, overlap."""

    width: timedelta

    def __post_init__(self):
        if self.width < timedelta(0):
            raise ValueError("window width must be >= 0")
        if self.width % _MINUTE:
            raise ValueError("window width must be a whole number of minutes")


_DURATION_RE = re.compile(r"^(\d+)([dhm])$")


def parse_duration(text: str) -> timedelta:
    """Parse a duration: "0", "36h", "2d", "90m"."""
    text = text.strip()
    if text == "0":
        return timedelta(0)
    m = _DURATION_RE.match(text)
    if not m:
        raise ValueError(f"bad duration {text!r} (expected forms: 0, 12h, 2d, 90m)")
    n, unit = int(m.group(1)), m.group(2)
    return timedelta(**{{"d": "days", "h": "hours", "m": "minutes"}[unit]: n})


def parse_window(text: str) -> WindowPolicy:
    return WindowPolicy(parse_duration(text))


@dataclass(frozen=True)
class RelationInstance:
    name: str
    axis: str
    left: Message
    right: Message
    distance: int | None = None    # diachronic only: report steps

    def key(self):
        return (self.axis, self.name, self.left.key(), self.right.key())


def _message_sort_key(m: Message):
    return (m.time.start, m.doc_id, m.sentence_index)


def sort_instances(instances) -> list[RelationInstance]:
    return sorted(instances, key=lambda r: (
        r.axis, r.name, _message_sort_key(r.left), _message_sort_key(r.right)))


class _Item(NamedTuple):
    """A message at its position in the time order, with its span: minutes
    since the epoch, both ends included, the end pushed out by the window
    width."""

    position: int
    message: Message
    start: int
    end: int
    bucket: int


def _by_extent(messages: list[Message], window: WindowPolicy) -> list[_Item]:
    """An item per message in ``_message_sort_key`` order, which is also the
    order of span starts. A bucket closes at the first span that starts
    after every earlier member's end, so buckets are the connected
    components of the anchor-compatibility graph."""
    widen = window.width // _MINUTE
    items = []
    bucket, reach = -1, None
    for position, m in enumerate(sorted(messages, key=_message_sort_key)):
        start = minutes_since_epoch(m.time.start)
        end = start + 1439 if m.time.kind == "day" else minutes_since_epoch(m.time.end)
        end += widen
        if reach is None or start > reach:
            bucket, reach = bucket + 1, end
        elif end > reach:
            reach = end
        items.append(_Item(position, m, start, end, bucket))
    return items


class _Sweep:
    """Start-sorted spans, for finding the ones that overlap a given span."""

    def __init__(self, items):
        self.items = items              # from _by_extent
        self.starts = [item.start for item in items]
        # a span that starts before s - lookback ends before s
        self.lookback = max((item.end - item.start for item in items), default=0)

    def overlapping(self, start: int, end: int):
        """The items whose spans overlap [start, end], in sort order."""
        lo = bisect_left(self.starts, start - self.lookback)
        hi = bisect_right(self.starts, end)
        for item in self.items[lo:hi]:
            if item.end >= start:
                yield item


def _synchronic_candidates(lefts: list[_Item], rights: list[_Item]):
    """(left, right, None) for each left and each right item of another
    source whose spans overlap."""
    sweep = _Sweep(rights)
    for left in lefts:
        source = left.message.source
        for right in sweep.overlapping(left.start, left.end):
            if right.message.source != source:
                yield left, right, None


def _diachronic_candidates(lefts: list[_Item], rights: list[_Item],
                           distance: tuple[str, int] | None = None):
    """(left, right, report distance) for each left and each right item of
    the same source with a strictly later span start whose report is ``k``
    after the left's for ``("==", k)``, at least ``k`` after for
    ``(">=", k)``, or anywhere for None. Each source's rights are listed in
    report order, so a distance is a range two bisections find."""
    lists: dict[str, list[_Item]] = {}
    for item in sorted(rights, key=lambda item: item.message.report_index):
        lists.setdefault(item.message.source, []).append(item)
    indices = {source: [item.message.report_index for item in items]
               for source, items in lists.items()}
    for left in lefts:
        m = left.message
        items = lists.get(m.source)
        if items is None:
            continue
        lo, hi = 0, len(items)
        if distance is not None:
            op, k = distance
            lo = bisect_left(indices[m.source], m.report_index + k)
            if op == "==":
                hi = bisect_right(indices[m.source], m.report_index + k, lo)
        for right in items[lo:hi]:
            if right.start > left.start:
                yield left, right, right.message.report_index - m.report_index


def synchronic_pairs(messages: list[Message],
                     window: WindowPolicy) -> list[tuple[Message, Message]]:
    """All ordered cross-source pairs with window-compatible anchors."""
    items = _by_extent(messages, window)
    return [(left.message, right.message)
            for left, right, _ in _synchronic_candidates(items, items)]


def diachronic_pairs(messages: list[Message]) -> list[tuple[Message, Message, int]]:
    """All same-source ordered pairs with strictly increasing anchor start,
    with their report distance (later report_index minus earlier)."""
    items = _by_extent(messages, WindowPolicy(timedelta(0)))
    return [(left.message, right.message, distance)
            for left, right, distance in _diachronic_candidates(items, items)]


def _join_plan(spec: RelationSpec):
    """A spec's conditions split for a keyed join: the left and right key
    slots of its ``eq`` atoms in atom order, the (slot, value) pins of its
    ``const`` atoms on each side, and the atoms left to ``evaluate_atom``."""
    left_key, right_key, residual = [], [], []
    pins: dict[str, list[tuple[str, str]]] = {"left": [], "right": []}
    for atom in spec.conditions:
        if atom.op == "eq":
            left_key.append(atom.left_slot)
            right_key.append(atom.right_slot)
        elif atom.op == "const":
            slot = atom.left_slot if atom.side == "left" else atom.right_slot
            pins[atom.side].append((slot, atom.value))
        else:
            residual.append(atom)
    return left_key, right_key, pins["left"], pins["right"], residual


def _key_groups(items, key_slots: list[str], pins: list[tuple[str, str]]):
    """_by_extent items grouped by their message's values in ``key_slots``,
    each group in item order. A message with a null key slot, or one whose
    pinned slot is null or holds another value, joins no group: no atom
    matches a null slot."""
    groups: dict[tuple, list] = {}
    for item in items:
        args = item.message.args
        if any(args.get(slot) is None or args.get(slot) != value
               for slot, value in pins):
            continue
        key = tuple(args.get(slot) for slot in key_slots)
        if None not in key:
            groups.setdefault(key, []).append(item)
    return groups


def evaluate_relations(messages: list[Message], relation_specs: list[RelationSpec],
                       window: WindowPolicy) -> list[RelationInstance]:
    """Match every relation spec against its axis candidates, as a keyed
    join: candidates are drawn only from the right messages that share the
    left message's ``eq`` key and pass the ``const`` pins.

    Symmetric synchronic specs emit both directions. Output is deduplicated
    and deterministically sorted by (axis, name, left anchor, doc, sentence).
    """
    items = _by_extent(messages, window)
    by_type: dict[str, list] = {}
    for item in items:
        by_type.setdefault(item.message.msg_type, []).append(item)
    found: set[tuple] = set()
    for spec in relation_specs:
        if spec.left_type not in by_type or spec.right_type not in by_type:
            continue
        left_key, right_key, left_pins, right_pins, residual = _join_plan(spec)
        right_groups = _key_groups(by_type[spec.right_type], right_key, right_pins)
        for key, lefts in _key_groups(by_type[spec.left_type], left_key,
                                      left_pins).items():
            rights = right_groups.get(key)
            if rights is None:
                continue
            if spec.axis == SYNCHRONIC:
                pairs = _synchronic_candidates(lefts, rights)
            else:
                pairs = _diachronic_candidates(lefts, rights, spec.distance)
            for left, right, distance in pairs:
                if residual and not all(
                        evaluate_atom(a, left.message.args, right.message.args)
                        for a in residual):
                    continue
                found.add((spec.axis, spec.name, left.position, right.position,
                           distance))
                if spec.symmetric and spec.axis == SYNCHRONIC:
                    found.add((SYNCHRONIC, spec.name, right.position,
                               left.position, None))
    return [RelationInstance(name, axis, items[left].message, items[right].message,
                             distance)
            for axis, name, left, right, distance in sorted(found)]


def brute_force_oracle(messages: list[Message], relation_specs: list[RelationSpec],
                       window: WindowPolicy) -> list[RelationInstance]:
    """Reference implementation: every ordered pair against every spec,
    every condition tested literally. Used by tests; shares no evaluation
    helpers with evaluate_relations."""
    half = window.width / 2
    results: dict[tuple, RelationInstance] = {}
    for spec in relation_specs:
        for m1 in messages:
            for m2 in messages:
                if m1.key() == m2.key():
                    continue
                if m1.msg_type != spec.left_type or m2.msg_type != spec.right_type:
                    continue
                if spec.axis == "synchronic":
                    if m1.source == m2.source:
                        continue
                    s1, e1, o1 = m1.time.extent()
                    s2, e2, o2 = m2.time.extent()
                    s1, e1 = s1 - half, e1 + half
                    s2, e2 = s2 - half, e2 + half
                    if not (s2 < e1 or (s2 == e1 and not o1)):
                        continue
                    if not (s1 < e2 or (s1 == e2 and not o2)):
                        continue
                    distance = None
                else:
                    if m1.source != m2.source:
                        continue
                    if not m1.time.start < m2.time.start:
                        continue
                    distance = m2.report_index - m1.report_index
                    if spec.distance is not None:
                        op, k = spec.distance
                        if op == "==" and distance != k:
                            continue
                        if op == ">=" and distance < k:
                            continue
                ok = True
                for atom in spec.conditions:
                    if atom.op == "const":
                        args = m1.args if atom.side == "left" else m2.args
                        slot = atom.left_slot if atom.side == "left" else atom.right_slot
                        if args.get(slot) is None or args.get(slot) != atom.value:
                            ok = False
                            break
                        continue
                    lv = m1.args.get(atom.left_slot)
                    rv = m2.args.get(atom.right_slot)
                    if lv is None or rv is None:
                        ok = False
                        break
                    if atom.op == "eq":
                        ok = lv == rv
                    elif atom.op == "neq":
                        ok = lv != rv
                    else:
                        if lv not in atom.scale or rv not in atom.scale:
                            ok = False
                            break
                        li = atom.scale.index(lv)
                        ri = atom.scale.index(rv)
                        ok = li < ri if atom.op == "lt" else li > ri
                    if not ok:
                        break
                if not ok:
                    continue
                inst = RelationInstance(spec.name, spec.axis, m1, m2,
                                        distance=distance)
                results.setdefault(inst.key(), inst)
                if spec.axis == "synchronic" and spec.symmetric:
                    rev = RelationInstance(spec.name, spec.axis, m2, m1)
                    results.setdefault(rev.key(), rev)
    return sort_instances(results.values())


# ---------------------------------------------------------------------------
# Window-aligned time buckets (shared with the summarizer)

def bucket_messages(messages: list[Message],
                    window: WindowPolicy) -> list[tuple[Message, ...]]:
    """Partition messages into chronological groups of compatible anchors.

    Buckets are the connected components of the anchor-compatibility graph,
    the runs of ``_by_extent``'s walk.
    """
    return [tuple(item.message for item in run)
            for _, run in groupby(_by_extent(messages, window), lambda item: item.bucket)]


def bucket_index_of(message: Message, buckets: list[tuple[Message, ...]]) -> int:
    """Index of the bucket holding ``message``, by a scan of ``buckets``."""
    for index, members in enumerate(buckets):
        for m in members:
            if m.key() == message.key():
                return index
    raise KeyError(message.key())


# ---------------------------------------------------------------------------
# Ellipsis: incidents only one source covers in their window

@dataclass(frozen=True)
class EllipsisReport:
    message: Message
    bucket: int
    silent_sources: tuple[str, ...]


def detect_ellipsis(messages: list[Message], sources: set[str],
                    window: WindowPolicy) -> list[EllipsisReport]:
    """One report per message that some other source never echoes: the
    report lists every source with no window-compatible message of the
    same type."""
    items = _by_extent(messages, window)
    partitions: dict[tuple[str, str], list] = {}
    for item in items:
        partitions.setdefault((item.message.msg_type, item.message.source),
                              []).append(item)
    sweeps = {part: _Sweep(part_items) for part, part_items in partitions.items()}
    ordered_sources = sorted(sources)
    reports = []
    for _, m, start, end, bucket in items:
        silent = []
        for source in ordered_sources:
            if source == m.source:
                continue
            sweep = sweeps.get((m.msg_type, source))
            if sweep is None or next(sweep.overlapping(start, end), None) is None:
                silent.append(source)
        if silent:
            reports.append(EllipsisReport(
                message=m, bucket=bucket,
                silent_sources=tuple(silent)))
    return reports


# ---------------------------------------------------------------------------
# relations-jsonl-v1 artifact

def _message_ref(m: Message) -> str:
    return (f'{{"doc_id": {encode_basestring_ascii(m.doc_id)}, '
            f'"sentence_index": {m.sentence_index:d}}}')


def write_relations(instances: list[RelationInstance], path: str | Path) -> None:
    """One line per instance, in the order given, with the bytes of
    ``json.dumps(record, sort_keys=True)``: keys ``axis``, ``distance``
    (diachronic only), ``left``, ``name`` and ``right``, each message given
    by ``doc_id`` and ``sentence_index``. ``evaluate_relations`` returns
    its instances in ``sort_instances`` order, the artifact's order, so
    they are not sorted again here."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in instances:
            distance = f'"distance": {r.distance:d}, ' if r.axis == DIACHRONIC else ""
            fh.write(f'{{"axis": {encode_basestring_ascii(r.axis)}, {distance}'
                     f'"left": {_message_ref(r.left)}, '
                     f'"name": {encode_basestring_ascii(r.name)}, '
                     f'"right": {_message_ref(r.right)}}}\n')


def _lookup_failure(exc: KeyError) -> str:
    """The reason for a failed field or message lookup in an artifact record."""
    key = exc.args[0]
    return f"missing {key}" if isinstance(key, str) else f"unknown message {key!r}"


def _key_at(ref: dict, path: str | Path, ln: int) -> tuple[str, int]:
    """The message key that a record's ``doc_id`` and ``sentence_index`` give."""
    sidx = ref["sentence_index"]
    if isinstance(sidx, bool) or not isinstance(sidx, int):
        raise MalformedRecord(f"sentence_index {sidx!r} is not an integer",
                              str(path), ln)
    return (ref["doc_id"], sidx)


def _axis_problem(axis: str, has_distance: bool, distance, left: Message,
                  right: Message) -> str | None:
    """Why a relation record on a known axis is not one ``evaluate_relations``
    can emit, or None. A synchronic record relates messages of two sources
    and has no ``distance``; a diachronic one relates two messages of one
    source whose anchors start in order, and its ``distance`` is their
    report distance."""
    if axis == SYNCHRONIC:
        if has_distance:
            return "synchronic relation carries a distance"
        if left.source == right.source:
            return "synchronic relation needs messages from two sources"
        return None
    if left.source != right.source:
        return "diachronic relation needs messages from one source"
    if not left.time.start < right.time.start:
        return "diachronic relation needs a left anchor that starts before the right one"
    expected = right.report_index - left.report_index
    if isinstance(distance, bool) or not isinstance(distance, int) or distance != expected:
        return f"diachronic distance {distance!r} is not the report distance {expected}"
    return None


# A relations line with the bytes ``write_relations`` writes: strings of
# printable ASCII with nothing escaped, integers as ``json.dumps`` writes
# them and at most 18 digits long, which ``int`` reads as the JSON scanner
# does.
_JSON_STR = r'"([ !#-\[\]-~]*)"'
_JSON_INT = r"(-?[1-9][0-9]{0,17}|0)"
_JSON_REF = rf'\{{"doc_id": {_JSON_STR}, "sentence_index": {_JSON_INT}\}}'
_CANONICAL_RELATION = re.compile(
    rf'\{{"axis": {_JSON_STR}, (?:"distance": {_JSON_INT}, )?"left": {_JSON_REF}, '
    rf'"name": {_JSON_STR}, "right": {_JSON_REF}\}}\n?')


def _record_fields(rec: dict, by_key: dict, path: str | Path,
                   ln: int) -> tuple[object, object, tuple, tuple]:
    """The name, axis and left and right message keys of a relation record
    decoded as JSON. A missing field, a ref that is not an object, and a
    ``sentence_index`` that is not an integer raise MalformedRecord, in
    field order: when the right ref is malformed and the left message is
    unknown, the unknown message is named."""
    try:
        name, axis = rec["name"], rec["axis"]
        left_key = _key_at(rec["left"], path, ln)
        try:
            right_key = _key_at(rec["right"], path, ln)
        except (KeyError, TypeError, MalformedRecord):
            by_key[left_key]        # raises first for an unknown left message
            raise
    except KeyError as exc:
        raise MalformedRecord(_lookup_failure(exc), str(path), ln) from None
    except TypeError:
        raise MalformedRecord("record does not have the relations-artifact shape",
                              str(path), ln) from None
    return name, axis, left_key, right_key


def read_relations(path: str | Path, messages: list[Message],
                   relation_specs: list[RelationSpec]) -> list[tuple]:
    """Load a relations artifact as instance keys, ``(axis, name, left
    message key, right message key)`` as ``RelationInstance.key`` gives
    them, in file order. Each instance may occur once. Each must be one
    ``evaluate_relations`` can emit on its axis (see ``_axis_problem``),
    from a rule of ``relation_specs`` with that name and axis between its
    messages' types; a symmetric rule also relates them the other way. A
    rule's conditions and the window are not checked again.

    A line with the bytes ``write_relations`` writes is read with one
    pattern; any other line, in another JSON encoding of a record or not
    JSON at all, goes through ``record_decoder``. Both give the same
    fields, and one check runs on them."""
    # each key maps to its message and to one tuple that every record of
    # the message shares, so a record keeps one new tuple, not three
    by_key = {key: (m, key) for m, key in zip(messages, map(Message.key, messages))}
    rules = {(s.name, s.axis, s.left_type, s.right_type) for s in relation_specs}
    rules.update((s.name, s.axis, s.right_type, s.left_type)
                 for s in relation_specs if s.symmetric)
    canonical = _CANONICAL_RELATION.fullmatch
    decode = record_decoder(path)
    out = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            match = canonical(raw)
            if match is not None:
                axis, distance, left_doc, left_index, name, right_doc, right_index \
                    = match.groups()
                left_key = (left_doc, int(left_index))
                right_key = (right_doc, int(right_index))
                has_distance = distance is not None
                if has_distance:
                    distance = int(distance)
            else:
                rec = decode(raw, ln)
                if rec is None:
                    continue
                name, axis, left_key, right_key = _record_fields(rec, by_key, path, ln)
                has_distance = "distance" in rec
                distance = rec.get("distance")
            try:
                (left, left_key), (right, right_key) = by_key[left_key], by_key[right_key]
            except KeyError as exc:
                raise MalformedRecord(_lookup_failure(exc), str(path), ln) from None
            except TypeError:
                raise MalformedRecord("record does not have the relations-artifact shape",
                                      str(path), ln) from None
            if not isinstance(name, str) or axis not in (SYNCHRONIC, DIACHRONIC):
                raise MalformedRecord("relation needs a string name and a known axis",
                                      str(path), ln)
            if (name, axis, left.msg_type, right.msg_type) not in rules:
                raise MalformedRecord(
                    f"no {axis} rule {name!r} relates a {left.msg_type!r} message "
                    f"to a {right.msg_type!r} one", str(path), ln)
            problem = _axis_problem(axis, has_distance, distance, left, right)
            if problem is not None:
                raise MalformedRecord(problem, str(path), ln)
            key = (axis, name, left_key, right_key)
            count = len(seen)
            seen.add(key)
            if len(seen) == count:
                raise MalformedRecord(f"duplicate relation {key!r}", str(path), ln)
            out.append(key)
    return out


def write_ellipsis(reports: list[EllipsisReport], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            rec = {"doc_id": r.message.doc_id,
                   "sentence_index": r.message.sentence_index,
                   "bucket": r.bucket,
                   "silent_sources": list(r.silent_sources)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_ellipsis(path: str | Path, messages: list[Message],
                  sources: set[str]) -> list[EllipsisReport]:
    """Load an ellipsis artifact; each message may have one report, whose
    silent sources are distinct corpus ``sources`` other than its own."""
    by_key = {m.key(): m for m in messages}
    out = []
    seen = set()
    for ln, rec in read_records(path):
        try:
            message = by_key[_key_at(rec, path, ln)]
            bucket, silent = rec["bucket"], rec["silent_sources"]
        except KeyError as exc:
            raise MalformedRecord(_lookup_failure(exc), str(path), ln) from None
        except TypeError:
            raise MalformedRecord("record does not have the ellipsis-artifact shape",
                                  str(path), ln) from None
        if (isinstance(bucket, bool) or not isinstance(bucket, int)
                or not isinstance(silent, list) or not silent
                or not all(isinstance(s, str) for s in silent)):
            raise MalformedRecord(
                "ellipsis needs an integer bucket and a non-empty list of silent sources",
                str(path), ln)
        for i, source in enumerate(silent):
            if source == message.source:
                problem = "is the reporting source"
            elif source not in sources:
                problem = "has no document in the corpus"
            elif source in silent[:i]:
                problem = "is repeated"
            else:
                continue
            raise MalformedRecord(f"silent source {source!r} {problem}",
                                  str(path), ln)
        if message.key() in seen:
            raise MalformedRecord(f"second ellipsis report for {message.key()!r}",
                                  str(path), ln)
        seen.add(message.key())
        out.append(EllipsisReport(message=message, bucket=bucket,
                                  silent_sources=tuple(silent)))
    return out
