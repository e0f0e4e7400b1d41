from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chronicle import cli, temporal
from chronicle.corpus import Sentence, tokenize
from chronicle.errors import DslSyntaxError, UnresolvableExpression
from chronicle.temporal import (TimeAnchor, find_temporal_expressions,
                                load_grammar, message_time, resolve)
from tests.conftest import FIXTURES
from tests.oracles import resolve_oracle

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


# ---------------------------------------------------------------------------
# the grammar file: each rule is one that ``resolve`` reads


def load_grammar_text(tmp_path, text):
    """``load_grammar`` run past its cache on ``text``, written where it
    looks for the package's grammar file."""
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    (data / "temporal_patterns.txt").write_text(text, encoding="utf-8")
    with mock.patch.object(temporal, "__file__", str(tmp_path / "temporal.py")):
        return load_grammar.__wrapped__()


@pytest.mark.parametrize("pattern, rule", [
    ("the", "day-offset:x"), ("the", "dmy:junk"), ("the", "vague:1"),
    ("the", "day-offset"), ("the", "day-offset:"), ("the", "day-offset:-"),
    ("the", "day-offset:+1"), ("the", "day-offset:1.5"), ("the", "day-offset:٣"),
    ("the", "DMY"), ("the", "dmy"), ("<day> <month>", "dmy"),
    ("<num> days", "iso"), ("last", "last-weekday"), ("<num>", "on-weekday")])
def test_grammar_refuses_a_rule_resolve_cannot_read(tmp_path, pattern, rule):
    text = f"# header\nok\ttoday\tday-offset:0\nodd\t{pattern}\t{rule}\n"
    with pytest.raises(DslSyntaxError) as err:
        load_grammar_text(tmp_path, text)
    assert (err.value.path, err.value.line) == ("temporal_patterns.txt", 3)
    assert str(err.value).startswith("temporal_patterns.txt:3: ")


def test_grammar_refuses_an_unknown_pattern_element(tmp_path):
    text = "ok\ttoday\tday-offset:0\nodd\tlast <weekday2>\tlast-weekday\n"
    with pytest.raises(DslSyntaxError) as err:
        load_grammar_text(tmp_path, text)
    assert (err.value.path, err.value.line, err.value.column) == \
        ("temporal_patterns.txt", 2, 10)
    assert str(err.value) == \
        "temporal_patterns.txt:2:10: unknown pattern element '<weekday2>'"


def test_extract_names_the_grammar_line_it_refuses(tmp_path, monkeypatch, capsys):
    root = FIXTURES / "hostage"
    out = ["--out-dir", str(tmp_path / "out")]
    assert cli.main(["ingest", "--corpus", str(root / "corpus.jsonl"),
                     "--lexicon", str(root / "lexicon.tsv"), *out]) == 0
    data = tmp_path / "data"
    data.mkdir()
    (data / "temporal_patterns.txt").write_text("odd\tthe\tday-offset:x\n",
                                                encoding="utf-8")
    monkeypatch.setattr(temporal, "__file__", str(tmp_path / "temporal.py"))
    load_grammar.cache_clear()
    try:
        code = cli.main(["extract", "--ontology", str(root / "domain.spec"), *out])
    finally:
        load_grammar.cache_clear()
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "DslSyntaxError"
    assert error["detail"].startswith("temporal_patterns.txt:1: ")


# Per pattern element, tokens that it matches, at the edges of what
# ``resolve`` can read: non-ASCII and over-long numbers, impossible dates.
TOKENS = {"<num>": ["0", "3", "٣", "9" * 5000], "<day>": ["1", "29", "31"],
          "<year>": ["0000", "2004", "9999"], "<month>": ["february", "sept"],
          "<weekday>": ["mon", "sunday"],
          "<isodate>": ["2004-02-29", "2004-02-31", "0000-01-01"],
          "the": ["the"], "ago": ["ago"]}
RULE = (st.sampled_from(["dmy", "iso", "days-ago", "weeks-ago", "last-weekday",
                         "next-weekday", "on-weekday", "vague", "day-offset:x",
                         "day-offset:" + "9" * 5000, "day-offset:-" + "9" * 5000])
        | st.integers().map("day-offset:{}".format)
        | st.text("day-offset:0123456789+x٣", max_size=14))


@settings(derandomize=True, deadline=None, max_examples=300, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(elements=st.lists(st.sampled_from(sorted(TOKENS)), min_size=1, max_size=4),
       rule=RULE, publish=st.sampled_from([datetime(1, 1, 1, tzinfo=UTC),
                                           pub(2004, 9, 10),
                                           datetime(9999, 12, 31, 23, 59, tzinfo=UTC)]),
       data=st.data())
def test_every_admitted_rule_resolves_or_is_unresolvable(tmp_path, elements, rule,
                                                         publish, data):
    try:
        grammar = load_grammar_text(tmp_path, f"p\t{' '.join(elements)}\t{rule}\n")
    except DslSyntaxError:
        return
    text = " ".join(data.draw(st.sampled_from(TOKENS[el])) for el in elements)
    found = find_temporal_expressions(sent(text), grammar)
    assert [e.token_span for e in found] == [(0, len(elements))]
    try:
        assert isinstance(resolve(found[0], publish), TimeAnchor)
    except UnresolvableExpression:
        pass


# Captures per element class, the matcher's own values and the edges
# ``resolve`` reads: a ``None`` number has more digits than ``int`` reads.
CAPTURES = {"num": st.sampled_from([None, 0, 1, 3, 10**9, 10**20])
            | st.integers(0, 10**6),
            "day": st.integers(1, 31), "month": st.integers(1, 12),
            "year": st.sampled_from([0, 1, 2004, 9999]) | st.integers(0, 9999),
            "weekday": st.integers(0, 6),
            "isodate": st.sampled_from(["2004-02-29", "2004-02-31", "0000-01-01",
                                        "9999-12-31", "2004-13-01", "٢٠٠٤-01-01"])}
RESOLVE_RULES = (st.sampled_from([*temporal._RULES, "day-offset:0", "day-offset:1",
                                  "day-offset:-1", "day-offset:" + "9" * 5000,
                                  "day-offset:-" + "9" * 5000, "day-offset",
                                  "dmy:x", "nosuch"])
                 | st.integers(-4 * 10**6, 4 * 10**6).map("day-offset:{}".format))


def resolve_outcome(resolver, expr, publish):
    try:
        return resolver(expr, publish)
    except Exception as exc:
        return type(exc), exc.args


@settings(derandomize=True, deadline=None, max_examples=1500, database=None)
@given(rule=RESOLVE_RULES,
       classes=st.lists(st.sampled_from(sorted(CAPTURES)), max_size=4),
       drop=st.booleans() | st.just(False),
       publish=st.sampled_from([datetime(1, 1, 1, tzinfo=UTC),
                                datetime(9999, 12, 31, 23, 59, tzinfo=UTC),
                                datetime(2004, 9, 10, 23, 30),
                                pub(2004, 2, 29)]),
       data=st.data())
def test_resolve_agrees_with_its_oracle(rule, classes, drop, publish, data):
    """``resolve`` gives the anchor, or raises the exception, that
    ``resolve_oracle`` does, on every rule the grammar admits and some it
    refuses, with the rule's own captures, others it does not read, and,
    when ``drop`` is drawn, without the ones it reads."""
    own = sorted(c.strip("<>") for c in temporal._RULES.get(rule, ()))
    names = classes if drop else own + classes
    captures = tuple((name, data.draw(CAPTURES[name])) for name in names)
    expr = temporal.TemporalExpression(0, (0, 1), "p", "raw text", rule, captures)
    assert resolve_outcome(resolve, expr, publish) == \
        resolve_outcome(resolve_oracle, expr, publish)
