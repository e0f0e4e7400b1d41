from __future__ import annotations

import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from chronicle.extract import Message
from chronicle.ontology import ConditionAtom, RelationSpec
from chronicle.relations import (WindowPolicy, brute_force_oracle,
                                 bucket_messages, detect_ellipsis,
                                 diachronic_pairs, evaluate_relations,
                                 parse_window, synchronic_pairs)
from chronicle.temporal import TimeAnchor
from tests.oracles import anchors_compatible, bucket_oracle, ellipsis_oracle

UTC = timezone.utc


def day(d, month=9, year=2004):
    return TimeAnchor.day(datetime(year, month, d))


def msg(msg_type="performance", source="A", doc="d", sentence=0, anchor=None,
        report_index=0, **args):
    return Message(msg_type=msg_type, args=args, time=anchor or day(9),
                   source=source, doc_id=doc, sentence_index=sentence,
                   report_index=report_index)


def keys(instances):
    return {r.key() for r in instances}


# ---------------------------------------------------------------------------
# candidate generators

def test_synchronic_same_day_cross_source_both_orders():
    m1 = msg(source="A", doc="a0")
    m2 = msg(source="B", doc="b0")
    pairs = synchronic_pairs([m1, m2], WindowPolicy(timedelta(0)))
    assert {(a.doc_id, b.doc_id) for a, b in pairs} == {("a0", "b0"), ("b0", "a0")}


def test_synchronic_same_source_excluded():
    m1 = msg(source="A", doc="a0")
    m2 = msg(source="A", doc="a1")
    assert synchronic_pairs([m1, m2], WindowPolicy(timedelta(0))) == []


def test_window_widens_compatibility():
    a, b = day(9), day(10)
    assert not anchors_compatible(a, b, WindowPolicy(timedelta(0)))
    assert anchors_compatible(a, b, WindowPolicy(timedelta(days=2)))


def test_diachronic_consecutive_reports_distance_one():
    m1 = msg(source="A", doc="a0", anchor=day(9), report_index=0)
    m2 = msg(source="A", doc="a1", anchor=day(10), report_index=1)
    pairs = diachronic_pairs([m1, m2])
    assert [(a.doc_id, b.doc_id, d) for a, b, d in pairs] == [("a0", "a1", 1)]


def test_diachronic_equal_anchors_no_pair():
    m1 = msg(source="A", doc="a0", anchor=day(9), report_index=0)
    m2 = msg(source="A", doc="a1", anchor=day(9), report_index=1)
    assert diachronic_pairs([m1, m2]) == []


def test_diachronic_distance_counts_report_steps():
    m1 = msg(source="A", doc="a0", anchor=day(9), report_index=0)
    m2 = msg(source="A", doc="a3", anchor=day(20), report_index=3)
    pairs = diachronic_pairs([m1, m2])
    assert pairs[0][2] == 3


# ---------------------------------------------------------------------------
# rule evaluation on the worked examples

def eq(slot):
    return ConditionAtom(op="eq", left_slot=slot, right_slot=slot)


DEGREES = ("poor", "mediocre", "good", "excellent")
AGREEMENT = RelationSpec(
    name="agreement", axis="synchronic", left_type="performance",
    right_type="performance", symmetric=True,
    conditions=(eq("entity"), eq("in_what"), eq("time_span"), eq("value")))
POSITIVE = RelationSpec(
    name="positive_graduation", axis="diachronic", left_type="performance",
    right_type="performance", distance=("==", 1),
    conditions=(eq("entity"), eq("in_what"), eq("time_span"),
                ConditionAtom(op="lt", left_slot="value", right_slot="value",
                              scale=DEGREES)))
TERMINATION = RelationSpec(
    name="termination", axis="diachronic", left_type="start",
    right_type="end", distance=(">=", 1),
    conditions=(eq("entity"), eq("activity")))


def perf(source, doc, anchor, value, report_index=0):
    return msg(source=source, doc=doc, anchor=anchor, report_index=report_index,
               entity="Alpha_United", in_what="attack", time_span="full_match",
               value=value)


def test_identical_messages_agree_both_directions():
    m1 = perf("A", "a0", day(9), "good")
    m2 = perf("B", "b0", day(9), "good")
    out = evaluate_relations([m1, m2], [AGREEMENT], WindowPolicy(timedelta(0)))
    assert keys(out) == {
        ("synchronic", "agreement", ("a0", 0), ("b0", 0)),
        ("synchronic", "agreement", ("b0", 0), ("a0", 0))}


def test_positive_graduation_on_consecutive_reports():
    m1 = perf("A", "a0", day(9), "poor", report_index=0)
    m2 = perf("A", "a1", day(10), "good", report_index=1)
    out = evaluate_relations([m1, m2], [POSITIVE], WindowPolicy(timedelta(0)))
    assert [(r.name, r.distance) for r in out] == [("positive_graduation", 1)]
    # direction is past -> future
    assert out[0].left.doc_id == "a0" and out[0].right.doc_id == "a1"


def test_termination_at_distance_two():
    m1 = msg(msg_type="start", source="A", doc="a0", anchor=day(1),
             report_index=0, entity="captors", activity="occupation")
    m2 = msg(msg_type="end", source="A", doc="a2", anchor=day(9),
             report_index=2, entity="captors", activity="occupation")
    out = evaluate_relations([m1, m2], [TERMINATION], WindowPolicy(timedelta(0)))
    assert [(r.name, r.distance) for r in out] == [("termination", 2)]


def test_null_slots_never_match():
    m1 = perf("A", "a0", day(9), None)
    m2 = perf("B", "b0", day(9), None)
    out = evaluate_relations([m1, m2], [AGREEMENT], WindowPolicy(timedelta(0)))
    assert out == []


def test_football_fixture_relation_counts(football):
    out = evaluate_relations(football.gold, football.relation_specs,
                             WindowPolicy(timedelta(0)))
    by_name = {}
    for r in out:
        by_name[r.name] = by_name.get(r.name, 0) + 1
    assert by_name == {"agreement": 20, "disagreement": 4,
                       "positive_graduation": 6, "negative_graduation": 1,
                       "stability": 3}


# ---------------------------------------------------------------------------
# ellipsis

def test_ellipsis_names_the_silent_source():
    m = msg(source="A", doc="a0")
    reports = detect_ellipsis([m], {"A", "B"}, WindowPolicy(timedelta(0)))
    assert len(reports) == 1
    assert reports[0].silent_sources == ("B",)


def test_ellipsis_absent_when_both_sources_report():
    m1 = msg(source="A", doc="a0")
    m2 = msg(source="B", doc="b0")
    assert detect_ellipsis([m1, m2], {"A", "B"},
                           WindowPolicy(timedelta(0))) == []


def test_late_starter_reported_silent(hostage):
    window = WindowPolicy(timedelta(0))
    reports = detect_ellipsis(hostage.gold, hostage.corpus.sources, window)
    early = [r for r in reports
             if r.message.time.start < datetime(2004, 9, 13, tzinfo=UTC)]
    assert early
    assert all("late_wire" in r.silent_sources for r in early)


# ---------------------------------------------------------------------------
# buckets

def test_buckets_partition_by_anchor():
    ms = [msg(doc="a0", anchor=day(1)), msg(doc="a1", anchor=day(1)),
          msg(doc="a2", anchor=day(3), source="B")]
    buckets = bucket_messages(ms, WindowPolicy(timedelta(0)))
    assert [[m.doc_id for m in b] for b in buckets] == [["a0", "a1"], ["a2"]]


def test_buckets_merge_under_wide_window():
    ms = [msg(doc="a0", anchor=day(1)), msg(doc="a1", anchor=day(2), source="B")]
    assert len(bucket_messages(ms, WindowPolicy(timedelta(0)))) == 2
    assert len(bucket_messages(ms, WindowPolicy(timedelta(days=2)))) == 1


# ---------------------------------------------------------------------------
# randomized equivalence with the literal oracles

def random_rules(rng: random.Random):
    """(types, slots per type, instances, sources, relation specs) of a
    random domain."""
    types = [f"t{i}" for i in range(rng.randint(1, 5))]
    slots = {t: [f"s{j}" for j in range(rng.randint(1, 3))] for t in types}
    scale = tuple(f"v{j}" for j in range(4))
    instances = list(scale) + [f"i{j}" for j in range(rng.randint(1, 16))]
    sources = [f"src{j}" for j in range(rng.randint(2, 5))]
    specs = []
    for k in range(rng.randint(1, 10)):
        lt, rt = rng.choice(types), rng.choice(types)
        axis = rng.choice(["synchronic", "diachronic"])
        conds = []
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(["eq", "neq", "lt", "gt", "const"])
            ls, rs = rng.choice(slots[lt]), rng.choice(slots[rt])
            if op == "const":
                side = rng.choice(["left", "right"])
                conds.append(ConditionAtom(
                    op="const", side=side,
                    left_slot=ls if side == "left" else None,
                    right_slot=rs if side == "right" else None,
                    value=rng.choice(instances)))
            elif op in ("lt", "gt"):
                conds.append(ConditionAtom(op=op, left_slot=ls, right_slot=rs,
                                           scale=scale))
            else:
                conds.append(ConditionAtom(op=op, left_slot=ls, right_slot=rs))
        distance = None
        symmetric = False
        if axis == "diachronic":
            if rng.random() < 0.6:
                distance = (rng.choice(["==", ">="]), rng.randint(0, 3))
        else:
            symmetric = rng.random() < 0.5
        specs.append(RelationSpec(name=f"r{k}", axis=axis, left_type=lt,
                                  right_type=rt, conditions=tuple(conds),
                                  distance=distance, symmetric=symmetric))
    return types, slots, instances, sources, specs


def random_trial(seed: int, max_messages=60):
    rng = random.Random(seed)
    types, slots, instances, sources, specs = random_rules(rng)
    base = datetime(2004, 9, 1, tzinfo=UTC)
    messages = []
    counters = {}
    for _ in range(rng.randint(2, max_messages)):
        source = rng.choice(sources)
        ridx = counters.get(source, 0)
        counters[source] = ridx + 1
        t = rng.choice(types)
        offset = rng.randint(0, 18)
        kind = rng.random()
        if kind < 1 / 3:
            anchor = TimeAnchor.day(base + timedelta(days=offset))
        elif kind < 2 / 3:
            anchor = TimeAnchor.instant(
                base + timedelta(days=offset, hours=rng.randint(0, 23),
                                 minutes=rng.randint(0, 59)))
        else:
            # a few long extents among short ones: an overlap sweep that
            # looks back too little loses exactly these pairs
            start = base + timedelta(days=offset, hours=rng.randint(0, 23))
            anchor = TimeAnchor.interval(
                start, start + timedelta(hours=rng.randint(1, 240)))
        args = {s: (rng.choice(instances) if rng.random() < 0.85 else None)
                for s in slots[t]}
        messages.append(Message(
            msg_type=t, args=args, time=anchor, source=source,
            doc_id=f"{source}-{ridx}", sentence_index=0, report_index=ridx))
    width = rng.choice([timedelta(0), timedelta(hours=12), timedelta(days=1),
                        timedelta(days=2), timedelta(days=7)])
    return messages, specs, WindowPolicy(width)


@pytest.mark.parametrize("seed", range(0, 120))
def test_engine_matches_oracle(seed):
    messages, specs, window = random_trial(seed)
    engine = evaluate_relations(messages, specs, window)
    oracle = brute_force_oracle(messages, specs, window)
    assert keys(engine) == keys(oracle)


MINUTE_WINDOWS = ["0", "1m", "7m", "90m"]


def minute_trial(seed: int, days=4, max_messages=50):
    """Rules and messages at minute granularity around midnights, all within
    ``days`` + 1 days from 2004-09-01 00:00: day anchors, instants at 23:59,
    00:00 and 00:01 or a few minutes or hours either side of a midnight,
    and intervals that end at a midnight, at 23:59 or near a midnight. Ends
    a minute or a few minutes apart are where an open day end, or a
    dilation by half a minute, decides whether two anchors are compatible."""
    rng = random.Random(seed)
    types, slots, instances, sources, specs = random_rules(rng)
    base = datetime(2004, 9, 1, tzinfo=UTC)
    last = base + timedelta(days=days + 1) - timedelta(minutes=1)
    near = [-90, -7, -1, 0, 1, 7, 90]
    messages = []
    counters: dict[str, int] = {}
    for _ in range(rng.randint(2, max_messages)):
        source = rng.choice(sources)
        ridx = counters.get(source, 0)
        counters[source] = ridx + 1
        midnight = base + timedelta(days=rng.randint(1, days))
        kind = rng.random()
        if kind < 0.3:
            anchor = TimeAnchor.day(base + timedelta(days=rng.randint(0, days)))
        elif kind < 0.65:
            anchor = TimeAnchor.instant(
                midnight + timedelta(minutes=rng.choice(near)))
        else:
            end = rng.choice([midnight, midnight - timedelta(minutes=1),
                              midnight + timedelta(minutes=rng.choice(near))])
            start = end - timedelta(minutes=rng.choice([0, 1, 7, 90, 1439, 1440,
                                                        rng.randint(0, 3000)]))
            anchor = TimeAnchor.interval(max(start, base), min(end, last))
        t = rng.choice(types)
        args = {s: (rng.choice(instances) if rng.random() < 0.85 else None)
                for s in slots[t]}
        messages.append(Message(
            msg_type=t, args=args, time=anchor, source=source,
            doc_id=f"{source}-{ridx}", sentence_index=0, report_index=ridx))
    return messages, specs, set(sources)


def engine_outputs(messages, specs, sources, window):
    """What the engine gives on both axes, by message key: relations with
    their distances, ellipsis reports and buckets."""
    relations = evaluate_relations(messages, specs, window)
    return ([(*r.key(), r.distance) for r in relations],
            [(r.message.key(), r.bucket, r.silent_sources)
             for r in detect_ellipsis(messages, sources, window)],
            [[m.key() for m in b] for b in bucket_messages(messages, window)])


def assert_matches_oracles(messages, specs, sources, window):
    relations, reports, buckets = engine_outputs(messages, specs, sources, window)
    assert relations == [(*r.key(), r.distance)
                         for r in brute_force_oracle(messages, specs, window)]
    assert reports == ellipsis_oracle(messages, sources, window)
    assert buckets == [keys for _, keys in bucket_oracle(messages, window)]


@pytest.mark.parametrize("window", MINUTE_WINDOWS)
@pytest.mark.parametrize("seed", range(30_000, 30_040))
def test_minute_spans_match_oracles(seed, window):
    messages, specs, sources = minute_trial(seed)
    assert_matches_oracles(messages, specs, sources, parse_window(window))


def shifted(messages, delta: timedelta):
    return [replace(m, time=TimeAnchor(m.time.kind, m.time.start + delta,
                                       m.time.end + delta))
            for m in messages]


@pytest.mark.parametrize("seed", range(31_000, 31_020))
def test_date_range_ends_relate_as_2004(seed):
    """The same messages moved from 2004 to the first and to the last days
    of the date range give the same relations, ellipsis reports and
    buckets; the 2004 ones are checked against the oracles, which compute
    with dates and so cannot run at the range ends. The widest window the
    grammar reads relates these few days as a century does."""
    days = 4
    messages, specs, sources = minute_trial(seed, days=days)
    base = datetime(2004, 9, 1, tzinfo=UTC)
    first = datetime(1, 1, 1, tzinfo=UTC)
    last = datetime(9999, 12, 31, tzinfo=UTC) - timedelta(days=days)
    for window in [*MINUTE_WINDOWS, "1d", "36500d"]:
        window = parse_window(window)
        assert_matches_oracles(messages, specs, sources, window)
        expected = engine_outputs(messages, specs, sources, window)
        for start in (first, last):
            moved = shifted(messages, start - base)
            assert engine_outputs(moved, specs, sources, window) == expected
    century = engine_outputs(messages, specs, sources, parse_window("36500d"))
    for start in (base, first, last):
        moved = shifted(messages, start - base)
        assert engine_outputs(moved, specs, sources,
                              parse_window("999999999d")) == century


def test_window_must_be_whole_minutes():
    assert WindowPolicy(timedelta(hours=36)).width == timedelta(hours=36)
    for width in (timedelta(seconds=30), timedelta(minutes=1, microseconds=1)):
        with pytest.raises(ValueError, match="whole number of minutes"):
            WindowPolicy(width)


def keyed_trial(seed: int, max_messages=50):
    """Rules and messages aimed at the keyed join: few instance values, so
    key groups are large; a slot used by two ``eq`` atoms; ``const`` and
    ``eq`` mixed; rules with no ``eq`` atom; messages whose every slot is
    null; several same-source messages at one report index, with anchors
    drawn regardless of report order, for ``distance==k`` lookups."""
    rng = random.Random(seed)
    types = ["t0", "t1"][:rng.randint(1, 2)]
    slot_names = ["s0", "s1", "s2"]
    values = tuple(f"i{j}" for j in range(rng.randint(2, 3)))
    sources = [f"src{j}" for j in range(rng.randint(1, 3))]

    def eq(ls, rs):
        return ConditionAtom(op="eq", left_slot=ls, right_slot=rs)

    specs = []
    for k in range(rng.randint(2, 8)):
        lt, rt = rng.choice(types), rng.choice(types)
        axis = rng.choice(["synchronic", "diachronic"])
        shape = rng.choice(["eq", "shared", "const_eq", "no_eq"])
        conds = []
        if shape != "no_eq":
            conds += [eq(rng.choice(slot_names), rng.choice(slot_names))
                      for _ in range(rng.randint(1, 3))]
        if shape == "shared":
            shared = rng.choice(slot_names)
            conds += [eq(shared, rng.choice(slot_names)),
                      eq(shared, rng.choice(slot_names))]
        if shape in ("const_eq", "no_eq"):
            for _ in range(rng.randint(1, 2)):
                side, slot = rng.choice(["left", "right"]), rng.choice(slot_names)
                conds.append(ConditionAtom(
                    op="const", side=side, value=rng.choice(values),
                    left_slot=slot if side == "left" else None,
                    right_slot=slot if side == "right" else None))
        if rng.random() < 0.3:
            conds.append(ConditionAtom(
                op=rng.choice(["neq", "lt", "gt"]), left_slot=rng.choice(slot_names),
                right_slot=rng.choice(slot_names), scale=values))
        rng.shuffle(conds)
        distance = None
        if axis == "diachronic":
            distance = rng.choice([None, ("==", rng.randint(0, 2)),
                                   ("==", rng.randint(0, 2)),
                                   (">=", rng.randint(0, 2))])
        specs.append(RelationSpec(
            name=f"k{k}", axis=axis, left_type=lt, right_type=rt,
            conditions=tuple(conds), distance=distance,
            symmetric=axis == "synchronic" and rng.random() < 0.5))
    base = datetime(2004, 9, 1, tzinfo=UTC)
    messages = []
    report = {s: 0 for s in sources}
    sentences: dict[str, int] = {}
    for _ in range(rng.randint(2, max_messages)):
        source = rng.choice(sources)
        if rng.random() < 0.4:
            report[source] += 1
        doc = f"{source}-{report[source]}-{rng.choice('ab')}"
        sentences[doc] = sentences.get(doc, -1) + 1
        offset = timedelta(days=rng.randint(0, 6))
        if rng.random() < 0.5:
            anchor = TimeAnchor.day(base + offset)
        else:
            anchor = TimeAnchor.instant(
                base + offset + timedelta(hours=rng.choice([0, 12])))
        null_all = rng.random() < 0.15
        args = {s: None if null_all or rng.random() < 0.15 else rng.choice(values)
                for s in slot_names}
        messages.append(Message(
            msg_type=rng.choice(types), args=args, time=anchor, source=source,
            doc_id=doc, sentence_index=sentences[doc],
            report_index=report[source]))
    width = rng.choice([timedelta(0), timedelta(hours=12), timedelta(days=2)])
    return messages, specs, WindowPolicy(width)


@pytest.mark.parametrize("seed", range(20_000, 20_200))
def test_keyed_join_matches_oracle(seed):
    messages, specs, window = keyed_trial(seed)
    engine = evaluate_relations(messages, specs, window)
    oracle = brute_force_oracle(messages, specs, window)
    assert keys(engine) == keys(oracle)
    assert [r.distance for r in engine] == [r.distance for r in oracle]


def candidate_oracle(messages, window):
    """Both axes' candidate sets by a literal double loop, as sorted key
    lists: cross-source pairs with window-compatible anchors, and
    same-source pairs at a strictly later anchor start with their report
    distance."""
    sync, dia = [], []
    for m1 in messages:
        for m2 in messages:
            if m1.source != m2.source:
                if anchors_compatible(m1.time, m2.time, window):
                    sync.append((m1.key(), m2.key()))
            elif m1.time.start < m2.time.start:
                dia.append((m1.key(), m2.key(),
                            m2.report_index - m1.report_index))
    return sorted(sync), sorted(dia)


@pytest.mark.parametrize("seed", [*range(0, 100), *range(20_000, 20_100)])
def test_candidate_pairs_match_double_loop(seed):
    trial = random_trial if seed < 20_000 else keyed_trial
    messages, _, window = trial(seed)
    sync, dia = candidate_oracle(messages, window)
    assert sorted((m1.key(), m2.key())
                  for m1, m2 in synchronic_pairs(messages, window)) == sync
    assert sorted((m1.key(), m2.key(), distance)
                  for m1, m2, distance in diachronic_pairs(messages)) == dia


@pytest.mark.parametrize("seed", range(0, 60))
def test_buckets_match_oracle(seed):
    messages, _, window = random_trial(seed)
    buckets = bucket_messages(messages, window)
    assert [[m.key() for m in b] for b in buckets] == \
        [keys for _, keys in bucket_oracle(messages, window)]


@pytest.mark.parametrize("seed", range(0, 60))
def test_ellipsis_matches_oracle(seed):
    messages, _, window = random_trial(seed)
    sources = {m.source for m in messages}
    if len(sources) < 2 or seed % 2:
        sources.add("silent_wire")
    reports = detect_ellipsis(messages, sources, window)
    assert [(r.message.key(), r.bucket, r.silent_sources) for r in reports] == \
        ellipsis_oracle(messages, sources, window)


@pytest.mark.parametrize("seed", range(0, 40))
def test_axis_invariants_hold(seed):
    messages, specs, window = random_trial(seed)
    for r in evaluate_relations(messages, specs, window):
        if r.axis == "synchronic":
            assert r.left.source != r.right.source
            assert anchors_compatible(r.left.time, r.right.time, window)
        else:
            assert r.left.source == r.right.source
            assert r.left.time.start < r.right.time.start


@pytest.mark.parametrize("seed", range(0, 25))
def test_window_monotonicity(seed):
    messages, specs, _ = random_trial(seed, max_messages=40)
    widths = [timedelta(0), timedelta(days=1), timedelta(days=2),
              timedelta(days=7)]
    previous: set = set()
    for width in widths:
        current = keys(evaluate_relations(messages, specs, WindowPolicy(width)))
        sync_prev = {k for k in previous if k[0] == "synchronic"}
        sync_cur = {k for k in current if k[0] == "synchronic"}
        assert sync_prev <= sync_cur
        previous = current


@pytest.mark.parametrize("seed", range(0, 25))
def test_symmetric_specs_emit_both_directions(seed):
    messages, specs, window = random_trial(seed, max_messages=40)
    symmetric_names = {s.name for s in specs if s.symmetric}
    out = evaluate_relations(messages, specs, window)
    emitted = keys(out)
    for r in out:
        if r.name in symmetric_names and r.axis == "synchronic":
            assert ("synchronic", r.name, r.right.key(), r.left.key()) in emitted


def test_exact_time_degeneracy():
    t = datetime(2004, 9, 9, 10, 0, tzinfo=UTC)
    m1 = perf("A", "a0", TimeAnchor.instant(t), "good")
    m2 = perf("B", "b0", TimeAnchor.instant(t), "good")
    m3 = perf("C", "c0", TimeAnchor.instant(t + timedelta(minutes=1)), "good")
    out = evaluate_relations([m1, m2, m3], [AGREEMENT],
                             WindowPolicy(timedelta(0)))
    assert keys(out) == {
        ("synchronic", "agreement", ("a0", 0), ("b0", 0)),
        ("synchronic", "agreement", ("b0", 0), ("a0", 0))}


def test_window_parsing():
    assert parse_window("0").width == timedelta(0)
    assert parse_window("48h").width == timedelta(hours=48)
    assert parse_window("2d").width == timedelta(days=2)
    assert parse_window("90m").width == timedelta(minutes=90)
    with pytest.raises(ValueError):
        parse_window("two days")
