from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from chronicle.corpus import Sentence, tokenize
from chronicle.errors import UnresolvableExpression
from chronicle.temporal import (TimeAnchor, find_temporal_expressions,
                                message_time, resolve)

UTC = timezone.utc


def sent(text, index=0):
    return Sentence(index=index, text=text, tokens=tokenize(text))


def pub(y, m, d, hh=8, mm=30):
    return datetime(y, m, d, hh, mm, tzinfo=UTC)


def test_relative_day_expression_found():
    exprs = find_temporal_expressions(sent("they freed the hostage yesterday"))
    assert len(exprs) == 1
    assert exprs[0].pattern_id == "relative-day"
    assert exprs[0].raw == "yesterday"
    assert exprs[0].token_span == (4, 5)


def test_no_temporal_tokens():
    assert find_temporal_expressions(sent("talks resume")) == []


def test_absolute_date_found():
    exprs = find_temporal_expressions(
        sent("on 21 September 2004 the group issued a deadline"))
    assert len(exprs) == 1
    assert exprs[0].pattern_id == "absolute-date"
    assert exprs[0].raw == "21 September 2004"


def test_longest_match_wins():
    # "on <weekday>" must not shadow a following absolute date; here the
    # absolute date (3 tokens) outranks any 1-token pattern at its position
    exprs = find_temporal_expressions(sent("seen 21 September 2004 today"))
    assert [(e.pattern_id, e.raw) for e in exprs] == [
        ("absolute-date", "21 September 2004"), ("relative-day", "today")]


def test_resolve_yesterday():
    e = find_temporal_expressions(sent("it happened yesterday"))[0]
    assert resolve(e, pub(2004, 9, 10)) == TimeAnchor.day(datetime(2004, 9, 9))


def test_resolve_two_days_ago():
    e = find_temporal_expressions(sent("it happened 2 days ago"))[0]
    assert resolve(e, pub(2004, 9, 10)) == TimeAnchor.day(datetime(2004, 9, 8))


def test_resolve_last_tuesday():
    # 2004-09-10 is a Friday; the latest Tuesday strictly before is 09-07
    e = find_temporal_expressions(sent("talks broke down last Tuesday"))[0]
    assert resolve(e, pub(2004, 9, 10)) == TimeAnchor.day(datetime(2004, 9, 7))


def test_unresolvable_expression():
    e = find_temporal_expressions(sent("violence escalated recently"))[0]
    assert e.pattern_id == "vague"
    with pytest.raises(UnresolvableExpression):
        resolve(e, pub(2004, 9, 10))


def test_message_time_defaults_to_publication_day():
    anchor = message_time(sent("talks resume"), pub(2004, 9, 10))
    assert anchor == TimeAnchor.day(datetime(2004, 9, 10))


def test_message_time_survives_unresolvable():
    anchor = message_time(sent("violence escalated recently"), pub(2004, 9, 10))
    assert anchor == TimeAnchor.day(datetime(2004, 9, 10))


def test_superscript_digit_is_no_number():
    # "²" passes str.isdigit but int() refuses it; no class matches it
    s = sent("the captors seized a 2 km² compound yesterday")
    assert [e.raw for e in find_temporal_expressions(s)] == ["yesterday"]
    assert message_time(s, pub(2004, 9, 10)) == \
        TimeAnchor.day(datetime(2004, 9, 9))


def test_non_ascii_decimal_digit_is_a_number():
    e = find_temporal_expressions(sent("it began ٣ days ago"))[0]
    assert e.captures == (("num", 3),)
    assert resolve(e, pub(2004, 9, 10)) == TimeAnchor.day(datetime(2004, 9, 7))


def test_non_ascii_digit_run_is_one_number():
    # "١٣" is 13 in Arabic-Indic digits, one token as "13" is
    s = sent("talks began ١٣ days ago")
    assert [e.captures for e in find_temporal_expressions(s)] == [(("num", 13),)]
    assert message_time(s, pub(2004, 9, 10)) == \
        TimeAnchor.day(datetime(2004, 8, 28))


HUGE = "1" + "0" * 5000   # more digits than int() reads by default


@pytest.mark.parametrize("text", [
    "it began 1000000 days ago", "it began 200000 weeks ago",
    "it began 1000000000 days ago", f"it began {HUGE} days ago",
    f"it began {HUGE} weeks ago",
], ids=["days", "weeks", "past-timedelta", "huge-days", "huge-weeks"])
def test_ago_outside_the_date_range_is_unresolvable(text):
    e = find_temporal_expressions(sent(text))[0]
    assert e.rule in ("days-ago", "weeks-ago")
    with pytest.raises(UnresolvableExpression):
        resolve(e, pub(2004, 9, 10))
    assert message_time(sent(text), pub(2004, 9, 10)) == \
        TimeAnchor.day(datetime(2004, 9, 10))
    # the next resolvable expression anchors the message instead
    assert message_time(sent(text + " and talks began 3 days ago"),
                        pub(2004, 9, 10)) == TimeAnchor.day(datetime(2004, 9, 7))


@pytest.mark.parametrize("text, publish", [
    ("talks resume next Monday", datetime(9999, 12, 31, tzinfo=UTC)),
    ("talks resume tomorrow", datetime(9999, 12, 31, tzinfo=UTC)),
    ("talks began last Monday", datetime(1, 1, 1, tzinfo=UTC)),
    ("talks began on Sunday", datetime(1, 1, 1, tzinfo=UTC)),
    ("talks began yesterday", datetime(1, 1, 1, tzinfo=UTC)),
], ids=["next-weekday", "tomorrow", "last-weekday", "on-weekday", "yesterday"])
def test_relative_day_past_the_date_range_is_unresolvable(text, publish):
    # 0001-01-01 is a Monday, so "on Sunday" reaches back past date.min
    e = find_temporal_expressions(sent(text))[0]
    with pytest.raises(UnresolvableExpression):
        resolve(e, publish)
    assert message_time(sent(text), publish) == TimeAnchor.day(publish)


def test_message_time_reanchors_to_earlier_day():
    # a later report whose sentence points at the earlier day: its anchor
    # must equal the earlier report's publication day so the two align
    early = message_time(sent("the captors seized the compound"),
                         pub(2004, 9, 1, 0, 0))
    late = message_time(sent("the captors seized the compound yesterday"),
                        pub(2004, 9, 2, 0, 0))
    assert early == late == TimeAnchor.day(datetime(2004, 9, 1))


def test_message_time_picks_expression_nearest_trigger():
    s = sent("on 2004-09-03 talks began but the group struck today")
    trigger = None
    for i, t in enumerate(s.tokens):
        if t.surface == "struck":
            trigger = (i, i + 1)
    far = message_time(s, pub(2004, 9, 10), trigger_span=(2, 3))
    near = message_time(s, pub(2004, 9, 10), trigger_span=trigger)
    assert far == TimeAnchor.day(datetime(2004, 9, 3))
    assert near == TimeAnchor.day(datetime(2004, 9, 10))


def test_past_referring_anchors_never_after_publication():
    rng = random.Random(7)
    texts = ["it happened yesterday", "it happened 5 days ago",
             "it happened 2 weeks ago", "it happened last Monday",
             "it happened last Sunday", "seen on Thursday"]
    for _ in range(200):
        publish = datetime(2004, 1, 1, tzinfo=UTC) + \
            timedelta(days=rng.randint(0, 400), hours=rng.randint(0, 23))
        text = rng.choice(texts)
        e = find_temporal_expressions(sent(text))[0]
        anchor = resolve(e, publish)
        assert anchor.start.date() <= publish.date()


def test_determinism():
    s = sent("the captors demanded a ransom 3 days ago")
    p = pub(2004, 9, 20)
    assert message_time(s, p) == message_time(s, p)


def test_day_anchor_extent_covers_whole_day():
    a = TimeAnchor.day(datetime(2004, 9, 9))
    start, end, end_open = a.extent()
    assert end - start == timedelta(days=1)
    assert end_open
    assert a.start == a.end


def test_anchor_kind_must_be_known():
    t = pub(2004, 9, 9)
    with pytest.raises(ValueError) as info:
        TimeAnchor("week", t, t)
    assert str(info.value) == "bad anchor kind 'week'"


def test_anchor_start_must_not_follow_end():
    t = pub(2004, 9, 9)
    assert TimeAnchor("interval", t, t).end == t
    with pytest.raises(ValueError) as info:
        TimeAnchor(kind="interval", start=t + timedelta(minutes=1), end=t)
    assert str(info.value) == "anchor start after end"


@pytest.mark.parametrize("year", [1, 999, 1000, 2004, 9999])
def test_anchor_strings_have_four_digit_years(year):
    """glibc's strftime("%Y") writes year 999 as "999", which
    ``from_string`` cannot read back; the anchor strings pad it."""
    t = datetime(year, 9, 18, 10, 0, tzinfo=UTC)
    day, instant = TimeAnchor.day(t), TimeAnchor.instant(t)
    interval = TimeAnchor.interval(t, t + timedelta(hours=1))
    assert day.to_string() == f"{year:04d}-09-18"
    assert instant.to_string() == f"{year:04d}-09-18T10:00:00Z"
    assert interval.to_string() == \
        f"{year:04d}-09-18T10:00:00Z/{year:04d}-09-18T11:00:00Z"
    for anchor in (day, instant, interval):
        assert TimeAnchor.from_string(anchor.to_string()) == anchor
