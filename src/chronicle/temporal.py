"""Temporal expression spotting and resolution against publication time.

The pattern grammar is data, not code: each grammar line pairs a token
pattern with a resolution rule id, so new domains or languages extend the
set without touching this module. Resolution is day-granular; a message
with no resolvable expression falls back to the publication day.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from importlib import resources

from .corpus import Sentence, format_rfc3339, parse_rfc3339, to_utc
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

_ELEMENT_CLASSES = {"<num>", "<day>", "<year>", "<month>", "<weekday>", "<isodate>"}

_RULES = {"dmy", "iso", "days-ago", "weeks-ago",
          "last-weekday", "next-weekday", "on-weekday", "vague"}


@dataclass(frozen=True)
class TimeAnchor:
    """A resolved point or span on the timeline.

    ``day`` anchors keep start == end (midnight UTC); the day they denote
    covers [00:00, 24:00), which is what :meth:`extent` reports. The
    constructors store UTC-aware times and read naive ones as UTC.
    """

    kind: str            # "instant" | "day" | "interval"
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.kind not in ("instant", "day", "interval"):
            raise ValueError(f"bad anchor kind {self.kind!r}")
        if self.start > self.end:
            raise ValueError("anchor start after end")

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
        if not isinstance(value, str) or not value.strip():
            raise UnparsableAnchor(repr(value))
        text = value.strip()
        try:
            if "/" in text:
                a, b = text.split("/", 1)
                return cls.interval(parse_rfc3339(a), parse_rfc3339(b))
            if "T" in text or " " in text:
                return cls.instant(parse_rfc3339(text))
            return cls.day(date.fromisoformat(text))
        except Exception:
            raise UnparsableAnchor(value) from None


@dataclass(frozen=True)
class TemporalExpression:
    sentence_index: int
    token_span: tuple[int, int]   # [start, end) token indices
    pattern_id: str
    raw: str
    rule: str
    captures: tuple[tuple[str, int | str], ...] = ()

    def capture(self, name: str):
        for key, val in self.captures:
            if key == name:
                return val
        raise KeyError(name)


@dataclass(frozen=True)
class GrammarPattern:
    pattern_id: str
    elements: tuple[str, ...]
    rule: str


def load_grammar() -> tuple[GrammarPattern, ...]:
    """Load the pattern grammar shipped as package data."""
    name = "temporal_patterns.txt"
    text = resources.files("chronicle").joinpath(f"data/{name}").read_text(
        encoding="utf-8")
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
            if el.startswith("<") and el not in _ELEMENT_CLASSES:
                raise DslSyntaxError(f"unknown pattern element {el!r}", name, ln,
                                     raw.index(el) + 1)
        base = rule.split(":", 1)[0]
        if base not in _RULES and base != "day-offset":
            raise DslSyntaxError(f"unknown resolution rule {rule!r}", name, ln)
        patterns.append(GrammarPattern(pattern_id, elements, rule))
    return tuple(patterns)


_GrammarIndex = tuple[dict[str, list[GrammarPattern]], list[GrammarPattern]]


def _index_grammar(grammar: tuple[GrammarPattern, ...]) -> _GrammarIndex:
    """Patterns by first element, each list in match priority: longest
    first, then grammar file order.

    The dict maps a folded literal first element to the patterns that can
    start at a token equal to it: those that open with the literal plus
    those that open with an element class. The list holds the class-opened
    patterns alone, the candidates at any other token.
    """
    ordered = sorted(grammar, key=lambda p: -len(p.elements))

    def opener(p: GrammarPattern) -> str | None:
        first = p.elements[0]
        return None if first in _ELEMENT_CLASSES else first.lower()

    by_literal = {opener(p): [q for q in ordered if opener(q) in (None, opener(p))]
                  for p in ordered if opener(p) is not None}
    return by_literal, [p for p in ordered if opener(p) is None]


_DEFAULT_GRAMMAR: tuple[GrammarPattern, ...] | None = None
_DEFAULT_INDEX: _GrammarIndex | None = None


def default_grammar() -> tuple[GrammarPattern, ...]:
    global _DEFAULT_GRAMMAR, _DEFAULT_INDEX
    if _DEFAULT_GRAMMAR is None:
        _DEFAULT_GRAMMAR = load_grammar()
        _DEFAULT_INDEX = _index_grammar(_DEFAULT_GRAMMAR)
    return _DEFAULT_GRAMMAR


def _match_element(element: str, folded: str) -> tuple[str, int | str] | None | bool:
    """Return False (no match), True (literal match) or a (name, value)
    capture, for a lowercased token surface."""
    if element == "<num>":
        return ("num", int(folded)) if folded.isdigit() else False
    if element == "<day>":
        if folded.isdigit() and len(folded) <= 2 and 1 <= int(folded) <= 31:
            return ("day", int(folded))
        return False
    if element == "<year>":
        return ("year", int(folded)) if folded.isdigit() and len(folded) == 4 else False
    if element == "<month>":
        return ("month", _MONTHS[folded]) if folded in _MONTHS else False
    if element == "<weekday>":
        return ("weekday", _WEEKDAYS[folded]) if folded in _WEEKDAYS else False
    if element == "<isodate>":
        parts = folded.split("-")
        if len(parts) == 3 and [len(p) for p in parts] == [4, 2, 2] \
                and all(p.isdigit() for p in parts):
            return ("isodate", folded)
        return False
    return folded == element.lower()


def find_temporal_expressions(
        sentence: Sentence,
        grammar: tuple[GrammarPattern, ...] | None = None) -> list[TemporalExpression]:
    """Scan a tokenized sentence for grammar matches.

    Matches are non-overlapping; at each position the longest matching
    pattern wins (grammar file order breaks length ties).
    """
    if grammar is None:
        grammar = default_grammar()
    by_literal, by_class = (_DEFAULT_INDEX if grammar is _DEFAULT_GRAMMAR
                            else _index_grammar(grammar))
    tokens = sentence.tokens
    folded = [t.surface.lower() for t in tokens]
    found: list[TemporalExpression] = []
    i = 0
    while i < len(tokens):
        hit = None
        for pat in by_literal.get(folded[i], by_class):
            n = len(pat.elements)
            if i + n > len(tokens):
                continue
            captures = []
            ok = True
            for k, el in enumerate(pat.elements):
                res = _match_element(el, folded[i + k])
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


def resolve(expr: TemporalExpression, publish_time: datetime) -> TimeAnchor:
    """Resolve an expression to a day anchor relative to the publication time.

    "last <weekday>" is the latest such weekday strictly before publication;
    "next <weekday>" the earliest strictly after; "on <weekday>" the nearest
    occurrence not after publication.
    """
    pub = to_utc(publish_time).date()
    rule = expr.rule
    if rule.startswith("day-offset:"):
        return TimeAnchor.day(pub + timedelta(days=int(rule.split(":", 1)[1])))
    if rule == "days-ago":
        return TimeAnchor.day(pub - timedelta(days=expr.capture("num")))
    if rule == "weeks-ago":
        return TimeAnchor.day(pub - timedelta(weeks=expr.capture("num")))
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
        return TimeAnchor.day(pub - timedelta(days=back))
    if rule == "next-weekday":
        fwd = (expr.capture("weekday") - pub.weekday() - 1) % 7 + 1
        return TimeAnchor.day(pub + timedelta(days=fwd))
    if rule == "on-weekday":
        back = (pub.weekday() - expr.capture("weekday")) % 7
        return TimeAnchor.day(pub - timedelta(days=back))
    raise UnresolvableExpression(expr.raw, expr.pattern_id)


def _span_distance(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[1] <= b[0]:
        return b[0] - a[1]
    if b[1] <= a[0]:
        return a[0] - b[1]
    return 0


def message_time(msg_sentence: Sentence, publish_time: datetime,
                 trigger_span: tuple[int, int] | None = None) -> TimeAnchor:
    """Anchor for a message found in ``msg_sentence``. Never fails.

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
