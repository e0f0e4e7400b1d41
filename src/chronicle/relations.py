"""Cross-document relation evaluation over extracted messages.

Synchronic candidates are cross-source message pairs whose time anchors
fall together under a configurable window: each anchor's occupied interval
is dilated by half the window width and the pair is compatible when the
dilated intervals overlap. With width zero and instant anchors this
degenerates to exact time equality. Diachronic candidates are same-source
pairs at strictly increasing anchors, their distance counted in per-source
report steps.

Candidates are found without testing every pair. Synchronic ones come from
a sweep over dilated extents sorted by start: a message can only overlap
extents that start between its own start minus the longest extent among
the candidates and its own end, a range two bisections find. Ellipsis runs
the same sweep on per-(type, source) lists. Diachronic ones come from a
report index: per-source lists in report order, where a rule's distance is
a range of report indices that two bisections find (``==k`` one index,
``>=k`` every index from ``+k`` on, no distance the whole source). Report
order follows publish time, but anchors come from the text, so each
candidate in the range is still tested for a strictly later anchor start.

``evaluate_relations`` runs each rule as a keyed join, since a rule's
conditions are a conjunction of slot equalities plus a few other atoms.
The rule's ``eq`` atoms, in order, give a key over the left message's
slots and one over the right's; its ``const`` atoms filter each side. The
right messages are grouped by key, and the sweep or the report index runs
inside the left message's group only. A message with a null key slot, or
one that fails a ``const`` atom, joins no group, since no atom matches a
null slot. The ``neq``, ``lt`` and ``gt`` atoms are tested on each
candidate.

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

from .corpus import read_records
from .errors import MalformedRecord
from .extract import Message
from .ontology import RelationSpec, SYNCHRONIC, DIACHRONIC, evaluate_atom
from .temporal import TimeAnchor


@dataclass(frozen=True)
class WindowPolicy:
    """Synchronic tolerance. Two anchors are compatible when their extents,
    each dilated by width/2, overlap."""

    width: timedelta

    def __post_init__(self):
        if self.width < timedelta(0):
            raise ValueError("window width must be >= 0")


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


def _dilated(anchor: TimeAnchor, window: WindowPolicy):
    start, end, end_open = anchor.extent()
    half = window.width / 2
    return start - half, end + half, end_open


def _extents_overlap(a, b) -> bool:
    s1, e1, open1 = a
    s2, e2, open2 = b
    left_ok = s2 < e1 or (s2 == e1 and not open1)
    right_ok = s1 < e2 or (s1 == e2 and not open2)
    return left_ok and right_ok


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


def _by_extent(messages: list[Message], window: WindowPolicy):
    """(message, dilated extent, bucket index) triples in
    ``_message_sort_key`` order, which is also the order of dilated starts.
    A bucket closes at the first extent that misses its hull, so buckets are
    the connected components of the anchor-compatibility graph."""
    items = []
    bucket, hull = -1, None
    for m in sorted(messages, key=_message_sort_key):
        ext = _dilated(m.time, window)
        if hull is not None and _extents_overlap(hull, ext):
            # extend the hull end; a closed end outranks an open one
            s, e, o = hull
            if ext[1] > e or (ext[1] == e and o and not ext[2]):
                hull = (s, ext[1], ext[2])
        else:
            bucket, hull = bucket + 1, ext
        items.append((m, ext, bucket))
    return items


class _Sweep:
    """Start-sorted dilated extents, for finding the ones that overlap a
    given extent."""

    def __init__(self, items):
        self.items = items              # from _by_extent
        self.starts = [ext[0] for _, ext, _ in items]
        # an extent that starts before s - lookback ends before s
        self.lookback = max((ext[1] - ext[0] for _, ext, _ in items),
                            default=timedelta(0))

    def overlapping(self, extent):
        """The messages whose extents overlap ``extent``, in sort order."""
        lo = bisect_left(self.starts, extent[0] - self.lookback)
        hi = bisect_right(self.starts, extent[1])
        for j in range(lo, hi):
            m, ext, _ = self.items[j]
            if _extents_overlap(extent, ext):
                yield m


def _synchronic_candidates(lefts, rights: _Sweep):
    """Cross-source (left, right) pairs with overlapping dilated extents;
    ``lefts`` are _by_extent items."""
    for m1, ext, _ in lefts:
        for m2 in rights.overlapping(ext):
            if m2.source != m1.source:
                yield m1, m2


class _Reports:
    """Messages per source in report order, for finding a message's later
    same-source messages at a given report distance."""

    def __init__(self, messages):
        self.lists: dict[str, list[Message]] = {}
        for m in sorted(messages, key=lambda m: m.report_index):
            self.lists.setdefault(m.source, []).append(m)
        self.indices = {source: [m.report_index for m in ms]
                        for source, ms in self.lists.items()}

    def later(self, m: Message, distance: tuple[str, int] | None = None):
        """(m2, report distance) for each same-source m2 with a strictly
        later anchor start whose report is ``k`` after ``m``'s for
        ``("==", k)``, at least ``k`` after for ``(">=", k)``, or anywhere
        for None."""
        ms = self.lists.get(m.source)
        if ms is None:
            return
        lo, hi = 0, len(ms)
        if distance is not None:
            op, k = distance
            indices = self.indices[m.source]
            lo = bisect_left(indices, m.report_index + k)
            if op == "==":
                hi = bisect_right(indices, m.report_index + k, lo)
        for m2 in ms[lo:hi]:
            if m2.time.start > m.time.start:
                yield m2, m2.report_index - m.report_index


def synchronic_pairs(messages: list[Message],
                     window: WindowPolicy) -> list[tuple[Message, Message]]:
    """All ordered cross-source pairs with window-compatible anchors."""
    items = _by_extent(messages, window)
    return list(_synchronic_candidates(items, _Sweep(items)))


def diachronic_pairs(messages: list[Message]) -> list[tuple[Message, Message, int]]:
    """All same-source ordered pairs with strictly increasing anchor start,
    with their report distance (later report_index minus earlier)."""
    reports = _Reports(messages)
    return [(m1, m2, distance) for m1 in sorted(messages, key=_message_sort_key)
            for m2, distance in reports.later(m1)]


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
        args = item[0].args
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
    by_type: dict[str, list] = {}
    for item in _by_extent(messages, window):
        by_type.setdefault(item[0].msg_type, []).append(item)
    found: dict[tuple, RelationInstance] = {}

    def emit(inst: RelationInstance):
        found.setdefault(inst.key(), inst)

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
                for m1, m2 in _synchronic_candidates(lefts, _Sweep(rights)):
                    if not residual or all(evaluate_atom(a, m1.args, m2.args)
                                           for a in residual):
                        emit(RelationInstance(spec.name, SYNCHRONIC, m1, m2))
                        if spec.symmetric:
                            emit(RelationInstance(spec.name, SYNCHRONIC, m2, m1))
                continue
            reports = _Reports(m for m, _, _ in rights)
            for m1, _, _ in lefts:
                for m2, distance in reports.later(m1, spec.distance):
                    if not residual or all(evaluate_atom(a, m1.args, m2.args)
                                           for a in residual):
                        emit(RelationInstance(spec.name, DIACHRONIC, m1, m2,
                                              distance=distance))
    return sort_instances(found.values())


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
    return [tuple(m for m, _, _ in run)
            for _, run in groupby(_by_extent(messages, window), lambda item: item[2])]


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
        partitions.setdefault((item[0].msg_type, item[0].source), []).append(item)
    sweeps = {part: _Sweep(part_items) for part, part_items in partitions.items()}
    ordered_sources = sorted(sources)
    reports = []
    for m, ext, bucket in items:
        silent = []
        for source in ordered_sources:
            if source == m.source:
                continue
            sweep = sweeps.get((m.msg_type, source))
            if sweep is None or next(sweep.overlapping(ext), None) is None:
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


def _axis_problem(rec: dict, left: Message, right: Message) -> str | None:
    """Why a relation record on a known axis is not one ``evaluate_relations``
    can emit, or None. A synchronic record relates messages of two sources
    and has no ``distance``; a diachronic one relates two messages of one
    source whose anchors start in order, and its ``distance`` is their
    report distance."""
    if rec["axis"] == SYNCHRONIC:
        if "distance" in rec:
            return "synchronic relation carries a distance"
        if left.source == right.source:
            return "synchronic relation needs messages from two sources"
        return None
    if left.source != right.source:
        return "diachronic relation needs messages from one source"
    if not left.time.start < right.time.start:
        return "diachronic relation needs a left anchor that starts before the right one"
    distance = rec.get("distance")
    expected = right.report_index - left.report_index
    if isinstance(distance, bool) or not isinstance(distance, int) or distance != expected:
        return f"diachronic distance {distance!r} is not the report distance {expected}"
    return None


def read_relations(path: str | Path, messages: list[Message],
                   relation_specs: list[RelationSpec]) -> list[tuple]:
    """Load a relations artifact as instance keys, ``(axis, name, left
    message key, right message key)`` as ``RelationInstance.key`` gives
    them, in file order. Each instance may occur once. Each must be one
    ``evaluate_relations`` can emit on its axis (see ``_axis_problem``),
    from a rule of ``relation_specs`` with that name and axis between its
    messages' types; a symmetric rule also relates them the other way. A
    rule's conditions and the window are not checked again."""
    by_key = {m.key(): m for m in messages}
    rules = {(s.name, s.axis, s.left_type, s.right_type) for s in relation_specs}
    rules.update((s.name, s.axis, s.right_type, s.left_type)
                 for s in relation_specs if s.symmetric)
    out = []
    seen = set()
    for ln, rec in read_records(path):
        try:
            name, axis = rec["name"], rec["axis"]
            left_key = _key_at(rec["left"], path, ln)
            left = by_key[left_key]
            right_key = _key_at(rec["right"], path, ln)
            right = by_key[right_key]
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
        problem = _axis_problem(rec, left, right)
        if problem is not None:
            raise MalformedRecord(problem, str(path), ln)
        key = (axis, name, left_key, right_key)
        if key in seen:
            raise MalformedRecord(f"duplicate relation {key!r}", str(path), ln)
        seen.add(key)
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
