"""Corpus ingestion: raw multi-source news reports to a canonical document model.

The canonical model is immutable. Within each source, documents are ranked
chronologically (``report_index``); this rank is what diachronic relation
rules count distance in. Tokenization is rule-based: whitespace/punctuation
segmentation, lemmas from a plain-text lexicon, named-entity labels from a
gazetteer matched greedily longest-first. Gazetteer tagging and instance
spotting share one phrase scan, ``PhraseIndex.scan``, and the work per token
runs in C-level loops: ``map`` over parallel lists, not a Python frame per
token.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from itertools import compress, count, repeat
from json.scanner import make_scanner
from pathlib import Path
import re
from re import Match
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import DuplicateDocId, MalformedRecord, UnparsableTimestamp

UTC = timezone.utc
_EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
_MINUTE = timedelta(minutes=1)

# A token is a maximal run of word characters (hyphens/apostrophes allowed
# inside, so "Al-Jazeera" stays whole) or a single punctuation character.
# Word characters are ASCII letters and decimal digits of any script (``\d``
# is what ``str.isdecimal`` accepts), so "١٣" is one number, not two.
_TOKEN_RE = re.compile(r"[A-Za-z\d]+(?:[-'][A-Za-z\d]+)*|[^\sA-Za-z\d]")


class Token(NamedTuple):
    """One token. A named tuple, under the records rule in README's Layout
    section, and one on the hot path: ingest and extract build every token
    of the corpus, and ``_tokens`` builds a whole sentence's tokens with
    ``tuple.__new__``, in C."""

    surface: str
    lemma: str
    ne: str | None = None
    start: int = 0   # character offsets into the sentence text
    end: int = 0


class Sentence(NamedTuple):
    index: int
    text: str
    tokens: tuple[Token, ...]

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]

    def ne_labels(self) -> set[str]:
        return {t.ne for t in self.tokens if t.ne is not None}


class Document(NamedTuple):
    doc_id: str
    source: str
    publish_time: datetime
    sentences: tuple[Sentence, ...]
    report_index: int = 0


class Corpus(NamedTuple):
    event_id: str
    documents: tuple[Document, ...]

    @property
    def sources(self) -> set[str]:
        return {d.source for d in self.documents}


def to_utc(dt: datetime) -> datetime:
    """The same moment in UTC; a naive datetime is taken as UTC, never as
    host-local time."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=UTC)
    return dt.astimezone(UTC)


def minutes_since_epoch(t: datetime) -> int:
    """Whole minutes from 1970-01-01T00:00Z to an aware ``t``, rounded down;
    exact over the whole date range."""
    return (t - _EPOCH) // _MINUTE


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


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 date-time, normalized to UTC at minute precision.

    Naive timestamps are taken as UTC. Raises UnparsableTimestamp.
    """
    if not isinstance(value, str):
        raise UnparsableTimestamp(repr(value))
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise UnparsableTimestamp(value) from None
    return to_utc(dt).replace(second=0, microsecond=0)


def format_rfc3339(dt: datetime) -> str:
    """UTC, to the second, with a four-digit year: glibc's ``strftime("%Y")``
    writes year 999 as ``999``, which no parser here reads back."""
    return to_utc(dt).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


class PhraseIndex:
    """Phrases segmented by the corpus tokenizer, filed under their first
    folded token.

    Each list holds (folded tokens, value) longest first; phrases of equal
    length are ordered by their tokens, then by input order. Build it once
    per gazetteer or ontology, not once per sentence.
    """

    def __init__(self, phrases: Iterable[tuple[str, str]]):
        entries: list[tuple[list[str], str]] = []
        for surface, value in phrases:
            key = list(map(str.lower, _TOKEN_RE.findall(surface)))
            if key:
                entries.append((key, value))
        entries.sort(key=lambda e: (-len(e[0]), e[0]))
        self._by_first: dict[str, list[tuple[list[str], str]]] = {}
        for entry in entries:
            self._by_first.setdefault(entry[0][0], []).append(entry)

    def scan(self, folded: list[str]) -> list[tuple[int, int, str]]:
        """(start, end, value) for every phrase occurring in the folded
        tokens, by start, and at one start in index order. Only positions
        whose token opens a phrase are visited; they are found in C."""
        found = []
        for i in compress(count(), map(self._by_first.__contains__, folded)):
            for key, value in self._by_first[folded[i]]:
                end = i + len(key)
                if folded[i:end] == key:
                    found.append((i, end, value))
        return found


def record_decoder(path: str | Path) -> Callable[[str, int], dict | None]:
    """The decoder ``read_records`` applies to each line of the JSON-lines
    file ``path``: given a line and its number, the record on it, or None
    for a blank line.

    A line that is not valid JSON, holds an integer longer than ``int``
    reads, or is not a JSON object, raises MalformedRecord naming the file
    and line. Each line goes straight to the JSON scanner, without
    ``json.loads``' per-call checks; a line that the scanner does not read
    whole, up to JSON whitespace, goes to ``json.loads``, so blank lines and
    decoding errors read as they did.
    """
    scan = make_scanner(json.JSONDecoder())

    def decode(raw: str, ln: int) -> dict | None:
        try:
            rec, end = scan(raw, 0)
        except (StopIteration, ValueError):
            end = -1
        if end < 0 or raw[end:].strip(" \t\n\r"):
            if not raw.strip():
                return None
            try:
                rec = json.loads(raw)
            except ValueError as exc:    # JSONDecodeError, or an overlong int
                raise MalformedRecord(f"invalid JSON ({getattr(exc, 'msg', exc)})",
                                      str(path), ln) from None
        if not isinstance(rec, dict):
            raise MalformedRecord("record is not an object", str(path), ln)
        return rec
    return decode


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSON-lines file,
    each line read by ``record_decoder``."""
    decode = record_decoder(path)
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            rec = decode(raw, ln)
            if rec is not None:
                yield ln, rec


def load_lexicon(path: str | Path) -> dict[str, str]:
    """Load a surface<TAB>lemma table. Surfaces are folded to lower case at
    load, since ``tokenize`` looks up the folded surface; among surfaces
    equal after folding, the last in file order wins."""
    return {surface.lower(): lemma for surface, lemma in _tsv_rows(path)}


def load_gazetteer(path: str | Path) -> dict[str, str]:
    """Load a surface<TAB>NE-label table; multi-word surfaces are allowed.
    Surfaces are folded at load as ``tokenize`` folds a sentence, token by
    token; among surfaces equal after folding, the last in file order wins,
    under its own spelling. (Folding a surface whole could tokenize it
    otherwise: ``"ΣΑΣ".lower()`` ends in a final sigma.)"""
    last = {tuple(map(str.lower, _TOKEN_RE.findall(surface))): (surface, label)
            for surface, label in _tsv_rows(path)}
    return dict(last.values())


def _tsv_rows(path: str | Path) -> Iterator[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise MalformedRecord("expected surface<TAB>value", str(path), ln)
            yield parts[0].strip(), parts[1].strip()


def _tokens(rows: Iterable[Iterable]) -> tuple[Token, ...]:
    """Tokens from (surface, lemma, ne, start, end) rows of the right
    length, built in one C-level pass: ``tuple.__new__`` runs no Python
    frame per token, as ``Token(...)`` would."""
    return tuple(map(tuple.__new__, repeat(Token), rows))


def tokenize(text: str,
             lexicon: dict[str, str] | None = None,
             ne_gazetteer: PhraseIndex | None = None) -> tuple[Token, ...]:
    """Segment a sentence into tokens with lemmas and NE labels.

    Deterministic: whitespace/punctuation segmentation, lemma = lexicon entry
    for the lowercased surface (default: the lowercased surface itself),
    gazetteer entries matched in any case, greedily longest-first with no
    overlaps. ``load_lexicon`` and ``load_gazetteer`` keep one entry per
    surface equal after folding, the last in the file; of index entries that
    fold to the same tokens, the first wins. Build the gazetteer's
    ``PhraseIndex`` once and pass it for every sentence.

    The work per token runs in C: surfaces, folded forms, lemmas and
    offsets are parallel lists built by ``map`` over the regex matches; the
    gazetteer's ``scan`` visits only the tokens that open a phrase, and the
    first occurrence starting at or past the end of the last one taken is
    kept; the tokens are built from the zipped lists by ``_tokens``.
    """
    matches = list(_TOKEN_RE.finditer(text))
    surfaces = list(map(Match.group, matches))
    folded = list(map(str.lower, surfaces))
    lemmas = list(map(lexicon.get, folded, folded)) if lexicon else folded
    labels: list[str | None] = [None] * len(matches)
    if ne_gazetteer is not None:
        taken = 0
        for start, end, label in ne_gazetteer.scan(folded):
            if start >= taken:
                labels[start:end] = [label] * (end - start)
                taken = end
    return _tokens(zip(surfaces, lemmas, labels, map(Match.start, matches),
                       map(Match.end, matches)))


def _split_sentences(text) -> list[str]:
    if isinstance(text, list) and all(isinstance(s, str) for s in text):
        parts = text
    elif isinstance(text, str):
        parts = text.split("\n")
    else:
        raise TypeError("text must be a string or a list of sentences")
    return [p.strip() for p in parts if p.strip()]


def load_corpus(path: str | Path,
                lexicon: dict[str, str] | None = None,
                gazetteer: dict[str, str] | None = None) -> Corpus:
    """Load a raw jsonl-v1 corpus file into the canonical model.

    One JSON record per line with fields ``doc_id``, ``source``,
    ``publish_time`` (RFC 3339) and ``text`` (a list of sentence strings, or
    raw text split one sentence per line). The event id is the file's stem. Records
    with missing ids, sources or timestamps are rejected, not skipped, and so
    is a ``doc_id`` holding ``#``, which message references use as a separator.
    """
    path = Path(path)
    raw_docs: list[tuple[str, str, datetime, list[str]]] = []
    seen_ids: set[str] = set()
    for ln, rec in read_records(path):
        doc_id = rec.get("doc_id")
        if not doc_id or not isinstance(doc_id, str):
            raise MalformedRecord("missing doc_id", str(path), ln)
        if "#" in doc_id:
            raise MalformedRecord(f"doc_id {doc_id!r} contains '#'", str(path), ln)
        if doc_id in seen_ids:
            raise DuplicateDocId(doc_id)
        seen_ids.add(doc_id)
        source = rec.get("source")
        if not source or not isinstance(source, str):
            raise MalformedRecord(f"document {doc_id!r} has no source", str(path), ln)
        if "publish_time" not in rec or rec["publish_time"] in (None, ""):
            raise MalformedRecord(f"document {doc_id!r} has no publish_time", str(path), ln)
        publish_time = parse_rfc3339(rec["publish_time"])
        try:
            sentences = _split_sentences(rec.get("text"))
        except TypeError as exc:
            raise MalformedRecord(str(exc), str(path), ln) from None
        if not sentences:
            raise MalformedRecord(f"document {doc_id!r} has no sentences", str(path), ln)
        raw_docs.append((doc_id, source, publish_time, sentences))

    return build_corpus(path.stem, raw_docs, lexicon=lexicon, gazetteer=gazetteer)


def build_corpus(event_id: str,
                 raw_docs: list[tuple[str, str, datetime, list[str]]],
                 lexicon: dict[str, str] | None = None,
                 gazetteer: dict[str, str] | None = None) -> Corpus:
    """Assemble a Corpus from (doc_id, source, publish_time, sentences) rows.

    Computes per-source report_index (chronological, ties broken by doc_id)
    and sorts documents by (source, publish_time, doc_id).
    """
    phrases = PhraseIndex(gazetteer.items()) if gazetteer else None
    documents = []
    by_source: dict[str, list[tuple[datetime, str]]] = {}
    for doc_id, source, publish_time, _ in raw_docs:
        by_source.setdefault(source, []).append((publish_time, doc_id))
    rank: dict[str, int] = {}
    for source, rows in by_source.items():
        for i, (_, doc_id) in enumerate(sorted(rows)):
            rank[doc_id] = i
    for doc_id, source, publish_time, sentence_texts in raw_docs:
        sentences = tuple(
            Sentence(index=i, text=t, tokens=tokenize(t, lexicon, phrases))
            for i, t in enumerate(sentence_texts))
        documents.append(Document(
            doc_id=doc_id, source=source, publish_time=publish_time,
            sentences=sentences, report_index=rank[doc_id]))
    documents.sort(key=lambda d: (d.source, d.publish_time, d.doc_id))
    return Corpus(event_id=event_id, documents=tuple(documents))


# ---------------------------------------------------------------------------
# Normalized corpus artifact (the ingest stage output): carries tokens so
# downstream stages do not need the lexicon/gazetteer again.

def write_corpus_artifact(corpus: Corpus, path: str | Path) -> None:
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
                        "tokens": s.tokens,   # each Token a JSON list
                    }
                    for s in d.sentences
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _TokensNotRead:
    """The tokens of a sentence read without them. Any use raises, so a
    stage that needs tokens cannot mistake them for an empty sentence."""

    def _fail(self, *args):
        raise RuntimeError("the corpus artifact was read without tokens")

    __iter__ = __len__ = __getitem__ = __bool__ = __contains__ = _fail


_TOKENS_NOT_READ = _TokensNotRead()


# The field types of a token row: surface, lemma, label or null, offsets.
_ROW_TYPES = {(str, str, label, int, int) for label in (str, type(None))}


def _sentence(rec, tokens: bool) -> Sentence:
    """A sentence from its record; a non-int ``index``, a non-str ``text`` or
    (with tokens) a token row that is not an array of a surface, a lemma, a
    label or null and two offsets raises TypeError. The rows are checked and
    built in C-level passes, with no Python frame per token."""
    index, text = rec["index"], rec["text"]
    if type(index) is not int or type(text) is not str:
        raise TypeError
    if not tokens:
        return Sentence(index=index, text=text, tokens=_TOKENS_NOT_READ)
    rows = rec["tokens"]
    if not _ROW_TYPES.issuperset(map(tuple, map(map, repeat(type), rows))):
        raise TypeError
    return Sentence(index=index, text=text, tokens=_tokens(rows))


def read_corpus_artifact(path: str | Path, tokens: bool = True) -> Corpus:
    """Load the ingest stage's artifact.

    ``tokens=False`` is for the stages that read only document metadata and
    sentence counts: no ``Token`` is built or checked, and any use of a
    sentence's ``tokens`` raises RuntimeError. Either way a record that lacks
    ``doc_id``, ``source``, ``publish_time``, ``report_index`` or
    ``sentences``, or a sentence's ``index`` or ``text``, or holds one of the
    wrong type, or a ``doc_id`` holding ``#``, raises MalformedRecord with
    the line; with tokens, so does a token row that is not an array of a
    surface and a lemma (strings), a label (a string or null) and two
    integer offsets.
    """
    documents = []
    event_id = Path(path).stem
    for ln, rec in read_records(path):
        if "event_id" in rec and "doc_id" not in rec:
            event_id = rec["event_id"]
            continue
        try:
            doc_id, source = rec["doc_id"], rec["source"]
            publish_time, report_index = rec["publish_time"], rec["report_index"]
            if (not isinstance(doc_id, str) or not isinstance(source, str)
                    or not isinstance(publish_time, str)
                    or isinstance(report_index, bool)
                    or not isinstance(report_index, int)
                    or not isinstance(rec["sentences"], list)):
                raise TypeError
            if "#" in doc_id:
                raise MalformedRecord(f"doc_id {doc_id!r} contains '#'", str(path), ln)
            sentences = tuple(_sentence(s, tokens) for s in rec["sentences"])
        except KeyError as exc:
            raise MalformedRecord(f"missing {exc.args[0]}", str(path), ln) from None
        except TypeError:
            raise MalformedRecord("record does not have the corpus-artifact shape",
                                  str(path), ln) from None
        documents.append(Document(
            doc_id=doc_id, source=source,
            publish_time=parse_rfc3339(publish_time),
            sentences=sentences, report_index=report_index))
    return Corpus(event_id=event_id, documents=tuple(documents))
