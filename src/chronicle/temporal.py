"""Temporal expression spotting and resolution against publication time.

The pattern grammar is data, not code: each grammar line pairs a token
pattern with a resolution rule id, so new domains or languages extend the
set without touching this module. The loader admits exactly the rules
``resolve`` reads, each only in a pattern with the element classes whose
captures it reads. A pattern element is a literal word,
matched case-insensitively, or an element class matching one token:

- ``<num>``: decimal digits (``str.isdecimal``, so "²" is no number and
  "٣" is 3);
- ``<day>``: one or two decimal digits from 1 to 31;
- ``<year>``: four decimal digits;
- ``<month>`` and ``<weekday>``: a name or abbreviation from ``_MONTHS``
  or ``_WEEKDAYS``;
- ``<isodate>``: YYYY-MM-DD in decimal digits.

So a pattern can start only at a token equal to its literal first word,
at a month or weekday name, or at a token whose first character is a
decimal digit; spotting tries no pattern anywhere else. It folds a
sentence's surfaces in one C-level pass and builds each match with
``tuple.__new__``. The token walk itself stays a Python loop: with the
dozen tokens of a typical sentence, setting up C-level passes to find the
openers costs more than the loop they would replace.

Resolution is day-granular. An expression whose date is out of range
("31 February 2004", "1000000 days ago") is unresolvable, like "recently".
A message anchors to its resolvable expression least by ``nearness``, the
one nearest the trigger, leftmost on ties, and falls back to the
publication day when it has none. ``nearness`` orders argument candidates
in ``extract`` too.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta, timezone
from functools import cache
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import Sentence, format_rfc3339, read_timestamp, to_utc
from .errors import DslSyntaxError, UnparsableAnchor, UnresolvableExpression

UTC = timezone.utc

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}
_WEEKDAYS = {
    "monday": 0, "tuesday": 1, "wednesday": 2, "thursday": 3, "friday": 4,
    "saturday": 5, "sunday": 6,
    "mon": 0, "tue": 1, "wed": 2, "thu": 3, "fri": 4, "sat": 5, "sun": 6,
}

# Resolution rule -> the element classes whose captures ``resolve`` reads.
_RULES = {"dmy": {"<day>", "<month>", "<year>"}, "iso": {"<isodate>"},
          "days-ago": {"<num>"}, "weeks-ago": {"<num>"},
          "last-weekday": {"<weekday>"}, "next-weekday": {"<weekday>"},
          "on-weekday": {"<weekday>"}, "vague": set()}
# Exactly the rules ``resolve`` reads: a rule name, or a day offset in ASCII
# digits.
_RULE = re.compile("|".join(_RULES) + "|day-offset:-?[0-9]+")


class _AnchorFields(NamedTuple):
    kind: str            # "instant" | "day" | "interval"
    start: datetime
    end: datetime


class TimeAnchor(_AnchorFields):
    """A resolved point or span on the timeline.

    ``day`` anchors keep start == end (midnight UTC); the day they denote
    covers [00:00, 24:00), which is what :meth:`extent` reports. The
    constructors store UTC-aware times and read naive ones as UTC. The
    checks live in ``__new__``, which ``_replace`` and ``_make`` skip.
    """

    __slots__ = ()

    def __new__(cls, kind: str, start: datetime, end: datetime):
        if kind not in ("instant", "day", "interval"):
            raise ValueError(f"bad anchor kind {kind!r}")
        if start > end:
            raise ValueError("anchor start after end")
        return super().__new__(cls, kind, start, end)

    @classmethod
    def instant(cls, t: datetime) -> "TimeAnchor":
        t = to_utc(t).replace(second=0, microsecond=0)
        return cls("instant", t, t)

    @classmethod
    def day(cls, d) -> "TimeAnchor":
        if isinstance(d, datetime):
            d = to_utc(d).date()
        midnight = datetime(d.year, d.month, d.day, tzinfo=UTC)
        return cls("day", midnight, midnight)

    @classmethod
    def interval(cls, start: datetime, end: datetime) -> "TimeAnchor":
        return cls("interval",
                   to_utc(start).replace(second=0, microsecond=0),
                   to_utc(end).replace(second=0, microsecond=0))

    def extent(self) -> tuple[datetime, datetime, bool]:
        """Occupied interval as (start, end, end_is_exclusive)."""
        if self.kind == "day":
            return self.start, self.start + timedelta(days=1), True
        return self.start, self.end, False

    def to_string(self) -> str:
        if self.kind == "day":
            return self.start.date().isoformat()
        if self.kind == "instant":
            return format_rfc3339(self.start)
        return f"{format_rfc3339(self.start)}/{format_rfc3339(self.end)}"

    @classmethod
    def from_string(cls, value: str) -> "TimeAnchor":
        """A day, an instant, or an interval: two of them joined by "/",
        the first not after the second; each read by ``read_timestamp``."""
        if not isinstance(value, str) or not value.strip():
            raise UnparsableAnchor(repr(value))
        ends = list(map(read_timestamp, value.split("/")))
        if None in ends or len(ends) > 2 or ends[0][0] > ends[-1][0]:
            raise UnparsableAnchor(value)
        if len(ends) == 2:
            return cls.interval(ends[0][0], ends[1][0])
        moment, timed = ends[0]
        return cls.instant(moment) if timed else cls.day(moment)


class TemporalExpression(NamedTuple):
    sentence_index: int
    token_span: tuple[int, int]   # [start, end) token indices
    pattern_id: str
    raw: str
    rule: str
    captures: tuple[tuple[str, int | str | None], ...] = ()

    def capture(self, name: str):
        for key, val in self.captures:
            if key == name:
                return val
        raise KeyError(name)


class GrammarPattern(NamedTuple):
    pattern_id: str
    elements: tuple[str, ...]
    rule: str


@cache
def load_grammar() -> tuple[GrammarPattern, ...]:
    """The pattern grammar shipped as package data, read once per process.
    It is read beside this file, not through ``importlib.resources``, which
    imports ``inspect`` from Python 3.12 on."""
    name = "temporal_patterns.txt"
    text = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    patterns = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in raw.split("\t") if p.strip()]
        if len(parts) != 3:
            raise DslSyntaxError("expected pattern_id<TAB>tokens<TAB>rule", name, ln)
        pattern_id, tokens, rule = parts
        elements = tuple(tokens.split())
        for el in elements:
            if el.startswith("<") and el not in _MATCHERS:
                raise DslSyntaxError(f"unknown pattern element {el!r}", name, ln,
                                     raw.index(el) + 1)
        if not _RULE.fullmatch(rule):
            raise DslSyntaxError(f"unknown resolution rule {rule!r}", name, ln)
        missing = _RULES.get(rule, set()).difference(elements)
        if missing:
            raise DslSyntaxError(f"rule {rule!r} reads {min(missing)}, which "
                                 "the pattern lacks", name, ln)
        patterns.append(GrammarPattern(pattern_id, elements, rule))
    return tuple(patterns)


def _decimal(folded: str) -> int | None:
    """The value of a string of decimal digits, signed or not, or None when
    it has more digits than ``int`` reads (``sys.get_int_max_str_digits``)."""
    try:
        return int(folded)
    except ValueError:
        return None


def _match_num(folded: str) -> tuple[str, int | None] | None:
    return ("num", _decimal(folded)) if folded.isdecimal() else None


def _match_day(folded: str) -> tuple[str, int] | None:
    if folded.isdecimal() and len(folded) <= 2 and 1 <= int(folded) <= 31:
        return ("day", int(folded))
    return None


def _match_year(folded: str) -> tuple[str, int] | None:
    return ("year", int(folded)) if folded.isdecimal() and len(folded) == 4 else None


def _match_month(folded: str) -> tuple[str, int] | None:
    return ("month", _MONTHS[folded]) if folded in _MONTHS else None


def _match_weekday(folded: str) -> tuple[str, int] | None:
    return ("weekday", _WEEKDAYS[folded]) if folded in _WEEKDAYS else None


def _match_isodate(folded: str) -> tuple[str, str] | None:
    parts = folded.split("-")
    if len(parts) == 3 and [len(p) for p in parts] == [4, 2, 2] \
            and all(p.isdecimal() for p in parts):
        return ("isodate", folded)
    return None


# Element class -> matcher: a lowercased token surface to its capture, or
# None. The digit classes match only a token whose first character is a
# decimal digit; the name classes only a key of _MONTHS or _WEEKDAYS.
_MATCHERS = {"<num>": _match_num, "<day>": _match_day, "<year>": _match_year,
             "<isodate>": _match_isodate, "<month>": _match_month,
             "<weekday>": _match_weekday}
_DIGIT_CLASSES = {"<num>", "<day>", "<year>", "<isodate>"}
_NAMES = {"<month>": _MONTHS, "<weekday>": _WEEKDAYS}
_SURFACE = itemgetter(0)

# A pattern with each literal element folded and each class its matcher.
_Compiled = tuple[GrammarPattern, tuple]
_GrammarIndex = tuple[dict[str, list[_Compiled]], list[_Compiled]]


@cache
def _index_grammar(grammar: tuple[GrammarPattern, ...]) -> _GrammarIndex:
    """Compiled patterns by the tokens they can start at, each list in match
    priority: longest first, then grammar file order; built once per grammar
    in a process.

    The dict maps a folded literal first element, and each month or weekday
    name when a pattern opens with that class, to exactly the patterns
    whose first element matches that token. The list holds the patterns
    opened by a digit class, the candidates at any other token that starts
    with a decimal digit. No pattern can start at any other token.
    """
    ordered = sorted(grammar, key=lambda p: -len(p.elements))
    compiled = [(p, tuple(_MATCHERS.get(el, el.lower()) for el in p.elements))
                for p in ordered]

    def first_matches(elements: tuple, token: str) -> bool:
        first = elements[0]
        return first == token if isinstance(first, str) else first(token) is not None

    keys: set[str] = set()
    for p in ordered:
        first = p.elements[0]
        if first not in _MATCHERS:
            keys.add(first.lower())
        keys.update(_NAMES.get(first, ()))
    by_token = {k: [c for c in compiled if first_matches(c[1], k)] for k in keys}
    return by_token, [c for c in compiled if c[0].elements[0] in _DIGIT_CLASSES]


def find_temporal_expressions(
        sentence: Sentence,
        grammar: tuple[GrammarPattern, ...] | None = None) -> list[TemporalExpression]:
    """Scan a tokenized sentence for grammar matches.

    Matches are non-overlapping; at each position the longest matching
    pattern wins (grammar file order breaks length ties). Surfaces are
    folded in one C-level pass, and each match is built with
    ``tuple.__new__``, with no Python frame of its own.
    """
    by_token, by_digit = _index_grammar(load_grammar() if grammar is None else grammar)
    tokens = sentence.tokens
    folded = list(map(str.lower, map(_SURFACE, tokens)))
    found: list[TemporalExpression] = []
    end = 0  # tokens before ``end`` lie inside a match
    for i, token in enumerate(folded):
        if i < end:
            continue
        candidates = by_token.get(token)
        if candidates is None:
            if not token[:1].isdecimal():
                continue
            candidates = by_digit
        for pat, elements in candidates:
            n = len(elements)
            if i + n > len(folded):
                continue
            captures = []
            for el, tok in zip(elements, folded[i:i + n]):
                if isinstance(el, str):
                    if el != tok:
                        break
                else:
                    capture = el(tok)
                    if capture is None:
                        break
                    captures.append(capture)
            else:
                end = i + n
                found.append(tuple.__new__(TemporalExpression, (
                    sentence.index, (i, end), pat.pattern_id,
                    sentence.text[tokens[i].start:tokens[end - 1].end],
                    pat.rule, tuple(captures))))
                break
    return found


def resolve(expr: TemporalExpression, publish_time: datetime) -> TimeAnchor:
    """Resolve an expression to a day anchor relative to the publication time.

    "last <weekday>" is the latest such weekday strictly before publication;
    "next <weekday>" the earliest strictly after; "on <weekday>" the nearest
    occurrence not after publication.

    Unresolvable: a rule none of these, a number or day offset of more
    digits than ``int`` reads, and a date impossible or outside the ``date``
    range. A capture the rule reads and the expression lacks is a KeyError.
    """
    pub = to_utc(publish_time).date()
    rule = expr.rule
    try:
        if rule.startswith("day-offset:"):
            d = pub + timedelta(days=int(rule.split(":", 1)[1]))
        elif rule in ("days-ago", "weeks-ago"):
            num = expr.capture("num")
            if num is None:
                raise ValueError("more digits than int reads")
            d = pub - timedelta(days=7 * num if rule == "weeks-ago" else num)
        elif rule == "dmy":
            d = date(expr.capture("year"), expr.capture("month"), expr.capture("day"))
        elif rule == "iso":
            d = date.fromisoformat(expr.capture("isodate"))
        elif rule == "last-weekday":
            d = pub - timedelta(days=(pub.weekday() - expr.capture("weekday") - 1) % 7 + 1)
        elif rule == "next-weekday":
            d = pub + timedelta(days=(expr.capture("weekday") - pub.weekday() - 1) % 7 + 1)
        elif rule == "on-weekday":
            d = pub - timedelta(days=(pub.weekday() - expr.capture("weekday")) % 7)
        else:
            raise ValueError(f"no resolution rule {rule!r}")
    except (ValueError, OverflowError):
        raise UnresolvableExpression(expr.raw, expr.pattern_id) from None
    return TimeAnchor.day(d)


def nearness(span: tuple[int, int],
             trigger: tuple[int, int] | None) -> tuple[int, int]:
    """The key a message orders its candidate spans by, nearest first: the
    token distance from ``span`` to the trigger span, measured from (0, 0)
    when no trigger is known, then the start, so leftmost on ties."""
    start, end = span
    t_start, t_end = trigger or (0, 0)
    return max(t_start - end, start - t_end, 0), start


def message_time(msg_sentence: Sentence, publish_time: datetime,
                 trigger_span: tuple[int, int] | None = None) -> TimeAnchor:
    """Anchor for a message found in ``msg_sentence``. Never fails once the
    grammar has loaded: an expression ``resolve`` cannot anchor is skipped.

    If the sentence carries at least one resolvable temporal expression the
    anchor of the least by ``nearness`` to the trigger span is used;
    otherwise the anchor is the publication day.
    """
    candidates: list[tuple[tuple[int, int], TimeAnchor]] = []
    for expr in find_temporal_expressions(msg_sentence):
        try:
            anchor = resolve(expr, publish_time)
        except UnresolvableExpression:
            continue
        candidates.append((nearness(expr.token_span, trigger_span), anchor))
    if not candidates:
        return TimeAnchor.day(publish_time)
    return min(candidates, key=itemgetter(0))[1]
