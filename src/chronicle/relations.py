"""Cross-document relation evaluation over extracted messages.

Synchronic candidates are cross-source message pairs whose time anchors
fall together under a configurable window: each anchor's occupied interval
is dilated by half the window width and the pair is compatible when the
dilated intervals overlap. With width zero and instant anchors this
degenerates to exact time equality. Diachronic candidates are same-source
pairs at strictly increasing anchors, their distance counted in per-source
report steps.

The engine works in the time order alone. ``time_order`` walks the
messages once in ``_message_sort_key`` order, and a message is its
position in that walk. Its span is two integers, minutes since the epoch
with both ends included: an instant is one minute, an interval runs from
its start to its end, and a day from 00:00 to 23:59. The window is a
whole number of minutes (the duration grammar reads no finer one), and
the span's end is pushed out by the whole width. Every anchor lies on the
minute grid, so two spans overlap, ``a.start <= b.end and b.start <=
a.end``, exactly when the two anchors' extents, each dilated by half the
width, overlap. No date is computed, so an anchor at either end of the
date range and the widest window the grammar reads relate like any other.

Candidates are found without testing every pair. Each axis has an index,
and its ``pairs(lefts, distance)`` method yields the (left, right,
distance) triples of the left items given. ``_Sweep.pairs`` sweeps spans
sorted by start: a message can only overlap spans that start between its
own start minus the longest span among the candidates and its own end, a
range two bisections find; the distance is None. Ellipsis is the keyless
synchronic join: the same pairs, drawn per message type, and a source
none of a message's candidates comes from is silent. ``_Reports.pairs``
reads per-source lists in report order, where a rule's distance is a
range of report indices that two bisections find (``==k`` one index,
``>=k`` every index from ``+k`` on, None the whole source). Report order
follows publish time, but anchors come from the text, so each candidate in
the range is still tested for a strictly later span start.

``relation_rows`` runs each rule as a keyed join, since a rule's
conditions are a conjunction of slot equalities plus a few other atoms.
The rule's ``eq`` atoms, in order, give a key over the left message's
slots and one over the right's; its ``const`` atoms filter each side. The
right messages are grouped by key, and the sweep or the report index runs
inside the left message's group only. A message with a null key slot, or
one that fails a ``const`` atom, joins no group, since no atom matches a
null slot. Each side's (message type, key slots, pins) is its plan; the
groups of a plan are built once per call, and so are the sweep and the
report index of each group, whichever rules and sides share them. The
``neq``, ``lt`` and ``gt`` atoms run through ``ontology.atom_test``, the
condition grammar's one evaluator, which compiles each distinct atom once;
a rule's tests are composed into one and run on each candidate. A relation
found is the row (axis, name, left position, right position, distance);
the set of them, sorted, is in ``sort_instances`` order, since positions
follow ``_message_sort_key`` and message keys are unique.

Two cores compute what the rules give from a walk: ``relation_rows``
returns the sorted rows and ``ellipsis_reports`` the ellipsis reports.
``relate`` calls them through ``evaluate_relations``, which turns the rows
into ``RelationInstance``s in one C-level pass, and ``detect_ellipsis``;
each wrapper walks once. ``summarize`` walks once and hands the walk to
both cores and to ``bucket_messages``. The two wrappers are the names
``benchmarks/spans.py`` traces, so each runs once per pipeline.

``brute_force_oracle`` re-implements the whole contract literally and
independently (no shared condition or window helpers) so tests can check
the engine against it on randomized inputs.

A bucket is a run of the walk, the tuple of its members' messages, and
its index is its place in the bucket list: the walk that feeds the sweeps
also gives each message's bucket.

``write_relations`` formats the lines itself, escaping strings with the
``json`` module's ASCII escaper, and writes the bytes that
``json.dumps(record, sort_keys=True)`` would (the format in README.md):
a dense relation set has thousands of instances, and a ``json.dumps``
call per record takes about twice as long as the formatted line. Each
rule's fixed text is formatted once per run of its lines and each message
key's reference once per file; the lines are joined from those pieces in
C-level passes and written a chunk at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import timedelta
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import minutes_since_epoch, parse_duration, write_records
from .extract import Message
from .ontology import RelationSpec, SYNCHRONIC, DIACHRONIC, atom_test

_MINUTE = timedelta(minutes=1)


class _WindowFields(NamedTuple):
    width: timedelta


class WindowPolicy(_WindowFields):
    """Synchronic tolerance, a whole number of minutes. Two anchors are
    compatible when their extents, each dilated by width/2, overlap. The
    checks live in ``__new__``, which ``_replace`` and ``_make`` skip."""

    __slots__ = ()

    def __new__(cls, width: timedelta):
        if width < timedelta(0):
            raise ValueError("window width must be >= 0")
        if width % _MINUTE:
            raise ValueError("window width must be a whole number of minutes")
        return super().__new__(cls, width)


def parse_window(text: str) -> WindowPolicy:
    return WindowPolicy(parse_duration(text))


class RelationInstance(NamedTuple):
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


class TimedMessage(NamedTuple):
    """A message at its position in the time order, with its span: minutes
    since the epoch, both ends included, the end pushed out by the window
    width, and the index of its bucket."""

    position: int
    message: Message
    start: int
    end: int
    bucket: int


def time_order(messages: list[Message], window: WindowPolicy) -> list[TimedMessage]:
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
        items.append(TimedMessage(position, m, start, end, bucket))
    return items


class _Sweep:
    """Start-sorted spans, for finding the cross-source pairs whose spans
    overlap."""

    def __init__(self, items):
        self.items = items              # from time_order
        self.starts = [item.start for item in items]
        # a span that starts before s - lookback ends before s
        self.lookback = max((item.end - item.start for item in items), default=0)

    def pairs(self, lefts: list[TimedMessage], distance: tuple[str, int] | None):
        """(left, right, None) for each left and each item of the sweep from
        another source whose span overlaps the left's, in sort order. The
        loader refuses a distance on a synchronic rule, so none is read."""
        items, starts, lookback = self.items, self.starts, self.lookback
        for left in lefts:
            source, start = left.message.source, left.start
            for right in items[bisect_left(starts, start - lookback):
                               bisect_right(starts, left.end)]:
                if right.end >= start and right.message.source != source:
                    yield left, right, None


_REPORT_INDEX = attrgetter("message.report_index")


class _Reports:
    """Items listed per source in report order, for finding the same-source
    pairs at a report distance."""

    def __init__(self, items):
        self.lists: dict[str, list[TimedMessage]] = {}
        for item in sorted(items, key=_REPORT_INDEX):
            self.lists.setdefault(item.message.source, []).append(item)
        self.indices = {source: [item.message.report_index for item in items]
                        for source, items in self.lists.items()}

    def pairs(self, lefts: list[TimedMessage], distance: tuple[str, int] | None):
        """(left, right, report distance) for each left and each item of its
        source with a strictly later span start, in report order: ``k``
        reports on for ``("==", k)``, ``k`` or more for ``(">=", k)``, any for None."""
        for left in lefts:
            m = left.message
            items = self.lists.get(m.source, ())
            if distance is not None and items:
                op, k = distance
                indices = self.indices[m.source]
                lo = bisect_left(indices, m.report_index + k)
                hi = bisect_right(indices, m.report_index + k, lo) if op == "==" else len(items)
                items = items[lo:hi]
            for right in items:
                if right.start > left.start:
                    yield left, right, right.message.report_index - m.report_index


def synchronic_pairs(messages: list[Message],
                     window: WindowPolicy) -> list[tuple[Message, Message]]:
    """All ordered cross-source pairs with window-compatible anchors."""
    items = time_order(messages, window)
    return [(left.message, right.message)
            for left, right, _ in _Sweep(items).pairs(items, None)]


def diachronic_pairs(messages: list[Message]) -> list[tuple[Message, Message, int]]:
    """All same-source ordered pairs with strictly increasing anchor start,
    with their report distance (later report_index minus earlier)."""
    items = time_order(messages, WindowPolicy(timedelta(0)))
    pairs = _Reports(items).pairs(items, None)
    return [(left.message, right.message, distance) for left, right, distance in pairs]


def _join_plan(spec: RelationSpec):
    """A spec's conditions split for a keyed join: the left and right key
    slots of its ``eq`` atoms in atom order, the (slot, value) pins of its
    ``const`` atoms on each side, all as tuples, and the atoms left to
    ``_residual_test``."""
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
    return (tuple(left_key), tuple(right_key), tuple(pins["left"]),
            tuple(pins["right"]), residual)


def _residual_test(residual):
    """One test of (left args, right args) for a rule's residual atoms, or
    None when it has none."""
    tests = list(map(atom_test, residual))
    if len(tests) < 2:
        return tests[0] if tests else None
    return lambda left, right: all(test(left, right) for test in tests)


def _by_type(items) -> dict[str, list[TimedMessage]]:
    """time_order items per message type, each list in item order."""
    by_type = {}
    for item in items:
        by_type.setdefault(item.message.msg_type, []).append(item)
    return by_type


def _key_groups(items, key_slots: tuple[str, ...], pins: tuple[tuple[str, str], ...]):
    """time_order items grouped by their message's values in ``key_slots``,
    each group in item order. A message with a null key slot, or one whose
    pinned slot does not hold the pinned instance name (a null never does),
    joins no group: no atom matches a null slot."""
    groups: dict[tuple, list] = {}
    for item in items:
        args = item.message.args
        if pins and any(args.get(slot) != value for slot, value in pins):
            continue
        key = tuple(map(args.get, key_slots))
        if None not in key:
            groups.setdefault(key, []).append(item)
    return groups


def relation_rows(order: list[TimedMessage],
                  relation_specs: list[RelationSpec]) -> list[tuple]:
    """Match every relation spec against its axis candidates in ``order``,
    a ``time_order`` walk, as a keyed join: candidates are drawn only from
    the right messages that share the left message's ``eq`` key and pass
    the ``const`` pins.

    Each relation is the row (axis, name, left position, right position,
    distance). Symmetric synchronic specs emit both directions. The rows
    are distinct and sorted, so in ``sort_instances`` order."""
    by_type = _by_type(order)
    plans: dict[tuple, dict] = {}      # (type, key slots, pins) -> key groups
    indexes: dict[tuple, object] = {}  # (axis, plan, key) -> _Sweep or _Reports
    found: set[tuple] = set()
    add = found.add
    for spec in relation_specs:
        if spec.left_type not in by_type or spec.right_type not in by_type:
            continue
        left_key, right_key, left_pins, right_pins, residual = _join_plan(spec)
        left_plan = (spec.left_type, left_key, left_pins)
        right_plan = (spec.right_type, right_key, right_pins)
        for plan in (left_plan, right_plan):
            if plan not in plans:
                msg_type, key_slots, pins = plan
                plans[plan] = _key_groups(by_type[msg_type], key_slots, pins)
        axis, name, test = spec.axis, spec.name, _residual_test(residual)
        index_class = _Sweep if axis == SYNCHRONIC else _Reports
        mirror = spec.symmetric     # the loader refuses a symmetric diachronic rule
        right_groups = plans[right_plan]
        for key, lefts in plans[left_plan].items():
            rights = right_groups.get(key)
            if rights is None:
                continue
            index = indexes.get((axis, right_plan, key))
            if index is None:
                index = indexes[axis, right_plan, key] = index_class(rights)
            for left, right, distance in index.pairs(lefts, spec.distance):
                if test is not None and not test(left.message.args, right.message.args):
                    continue
                add((axis, name, left.position, right.position, distance))
                if mirror:
                    add((axis, name, right.position, left.position, None))
    return sorted(found)


def evaluate_relations(messages: list[Message], relation_specs: list[RelationSpec],
                       window: WindowPolicy) -> list[RelationInstance]:
    """``relation_rows`` as ``RelationInstance``s, for ``relate``: the sorted
    rows become instances in one C-level pass, as corpus._tokens builds
    tokens."""
    order = time_order(messages, window)
    rows = relation_rows(order, relation_specs)
    message_at = [item.message for item in order].__getitem__
    axes, names, lefts, rights, distances = (map(itemgetter(i), rows) for i in range(5))
    return list(map(tuple.__new__, repeat(RelationInstance),
                    zip(names, axes, map(message_at, lefts), map(message_at, rights),
                        distances)))


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

def bucket_messages(order: list[TimedMessage]) -> list[tuple[Message, ...]]:
    """The runs of a ``time_order`` walk, each the tuple of its messages: the
    connected components of the anchor-compatibility graph, in time order."""
    return [tuple(item.message for item in run)
            for _, run in groupby(order, lambda item: item.bucket)]


def bucket_index_of(message: Message, buckets: list[tuple[Message, ...]]) -> int:
    """Index of the bucket holding ``message``, by a scan of ``buckets``."""
    for index, members in enumerate(buckets):
        for m in members:
            if m.key() == message.key():
                return index
    raise KeyError(message.key())


# ---------------------------------------------------------------------------
# Ellipsis: incidents only one source covers in their window

class EllipsisReport(NamedTuple):
    message: Message
    bucket: int
    silent_sources: tuple[str, ...]


def ellipsis_reports(order: list[TimedMessage], sources: set[str]) -> list[EllipsisReport]:
    """One report per message of ``order``, a ``time_order`` walk, that some
    other source never echoes, in walk order: the report lists, in name
    order, every source with no window-compatible message of the same type.
    A message is heard from its own source and from the sources of its
    synchronic candidates among its type."""
    heard = [{item.message.source} for item in order]
    for typed in _by_type(order).values():
        for left, right, _ in _Sweep(typed).pairs(typed, None):
            heard[left.position].add(right.message.source)
    ordered_sources = sorted(sources)
    reports = []
    for item, item_heard in zip(order, heard):
        silent = tuple(source for source in ordered_sources if source not in item_heard)
        if silent:
            reports.append(EllipsisReport(item.message, item.bucket, silent))
    return reports


def detect_ellipsis(messages: list[Message], sources: set[str],
                    window: WindowPolicy) -> list[EllipsisReport]:
    """``ellipsis_reports``, for ``relate`` (see the module docstring)."""
    # relate walks twice, here and in evaluate_relations: the benchmark traces
    # both and replays the latter's arguments, so one walk waits (ROADMAP 13)
    return ellipsis_reports(time_order(messages, window), sources)


# ---------------------------------------------------------------------------
# relations-jsonl-v1 artifact

class _References(dict):
    """Message key -> the message's ``{"doc_id": ..., "sentence_index": ...}``
    reference, formatted on first use."""

    def __missing__(self, key: tuple[str, int]) -> str:
        doc_id, sentence_index = key
        ref = self[key] = (f'{{"doc_id": {encode_basestring_ascii(doc_id)}, '
                           f'"sentence_index": {sentence_index:d}}}')
        return ref


_RULE = attrgetter("axis", "name")
_LEFT_KEY = attrgetter("left.doc_id", "left.sentence_index")
_RIGHT_KEY = attrgetter("right.doc_id", "right.sentence_index")
_DISTANCE = attrgetter("distance")
_CHUNK = 4096       # lines joined and written at a time


def write_relations(instances: list[RelationInstance], path: str | Path) -> None:
    """One line per instance, in the order given, with the bytes of
    ``json.dumps(record, sort_keys=True)``: keys ``axis``, ``distance``
    (diachronic only), ``left``, ``name`` and ``right``, each message given
    by ``doc_id`` and ``sentence_index``. ``evaluate_relations`` returns
    its instances in ``sort_instances`` order, the artifact's order, so
    they are not sorted again here.

    A line is its rule's fixed text around the distance and the two
    message references. Each distinct message key's reference is formatted
    once, and the lines are joined and written ``_CHUNK`` at a time, so the
    file is never held whole."""
    refs = _References()
    with open(path, "w", encoding="utf-8") as fh:
        for (axis, name), run in groupby(instances, _RULE):
            head = f'{{"axis": {encode_basestring_ascii(axis)}, '
            middle = f', "name": {encode_basestring_ascii(name)}, "right": '
            while chunk := list(islice(run, _CHUNK)):
                left_refs = map(refs.__getitem__, map(_LEFT_KEY, chunk))
                right_refs = map(refs.__getitem__, map(_RIGHT_KEY, chunk))
                if axis == DIACHRONIC:
                    # int.__repr__ writes what the format code "d" writes
                    parts = (repeat(head + '"distance": '),
                             map(int.__repr__, map(_DISTANCE, chunk)),
                             repeat(', "left": '), left_refs)
                else:
                    parts = (repeat(head + '"left": '), left_refs)
                fh.write("".join(chain.from_iterable(
                    zip(*parts, repeat(middle), right_refs, repeat("}\n")))))


def write_ellipsis(reports: list[EllipsisReport], path: str | Path) -> None:
    write_records(path, ({"doc_id": r.message.doc_id,
                          "sentence_index": r.message.sentence_index,
                          "bucket": r.bucket,
                          "silent_sources": list(r.silent_sources)} for r in reports))

