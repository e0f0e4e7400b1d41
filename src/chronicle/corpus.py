"""Corpus ingestion: raw multi-source news reports to a canonical document model.

The canonical model is immutable. Within each source, documents are ranked
chronologically (``report_index``); this rank is what diachronic relation
rules count distance in. Tokenization is rule-based: whitespace/punctuation
segmentation, lemmas from a plain-text lexicon, named-entity labels from a
gazetteer matched greedily longest-first. Gazetteer tagging and instance
spotting share one phrase scan, ``PhraseIndex.scan``, and the work per token
runs in C-level loops: ``map`` over parallel lists, not a Python frame per
token. ``phrase_key`` folds each gazetteer surface and instance name once,
and the index takes the folded keys. ``read_timestamp`` reads every input
timestamp through one pattern, the same on every supported Python.

The ingest artifact carries every token as a JSON row. Its writer formats
each document line itself, a sentence's rows column by column, with the
bytes ``json.dumps(record, sort_keys=True)`` writes; its reader checks the
rows column by column too, in C-level passes over the row lengths and the
columns' field types. ``write_records`` encodes each record of a
JSON-lines file with one encoder per file.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, count, groupby, repeat
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
import re
from re import Match
from typing import Iterable, Iterator, NamedTuple

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


# A day, YYYY-MM-DD, then optionally "T", "t" or a space and HH:MM, with
# optional :SS and a 3- or 6-digit fraction, then "Z", "z", ±HH:MM or no
# zone (UTC). ASCII digits only, and every time field in range.
_TIMESTAMP = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})"
    r"(?:[Tt ]((?:[01][0-9]|2[0-3]):[0-5][0-9])(?::[0-5][0-9](?:\.[0-9]{3}(?:[0-9]{3})?)?)?"
    r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?)?")


def read_timestamp(text: str) -> tuple[datetime, bool] | None:
    """The package's one reader of input timestamps: (the UTC minute, whether
    a time of day is given) for ``text`` in the ``_TIMESTAMP`` form, outer
    whitespace aside. None for other text, a day that does not exist or a
    moment outside the date range in UTC. ``fromisoformat`` sees only
    ``YYYY-MM-DDTHH:MM±HH:MM``, which every supported Python reads alike."""
    m = _TIMESTAMP.fullmatch(text.strip())
    if m is None:
        return None
    day, minute, zone = m.groups()
    offset = "+00:00" if zone is None or zone in "Zz" else zone
    try:
        moment = datetime.fromisoformat(f"{day}T{minute or '00:00'}{offset}")
        return moment.astimezone(UTC), minute is not None
    except (ValueError, OverflowError):
        return None


def parse_rfc3339(value: str) -> datetime:
    """A day or an instant in ``read_timestamp``'s form, normalized to UTC at
    minute precision; a day is its midnight. Raises UnparsableTimestamp."""
    found = read_timestamp(value) if isinstance(value, str) else None
    if found is None:
        raise UnparsableTimestamp(value if isinstance(value, str) else repr(value))
    return found[0]


def format_rfc3339(dt: datetime) -> str:
    """UTC, to the second, with a four-digit year: glibc's ``strftime("%Y")``
    writes year 999 as ``999``, which no parser here reads back."""
    return to_utc(dt).replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def phrase_key(surface: str) -> tuple[str, ...]:
    """A phrase surface folded as ``tokenize`` folds a sentence: segmented by
    the corpus tokenizer, each token lowered. The one place a gazetteer
    surface or an instance name is folded. (Folding a surface whole could
    segment it otherwise: ``"ΣΑΣ".lower()`` ends in a final sigma.)"""
    return tuple(map(str.lower, _TOKEN_RE.findall(surface)))


class PhraseIndex:
    """(key, value) pairs, keys made by ``phrase_key``, filed under their
    first token; an empty key is left out, and a key that is a string
    raises TypeError. Each list holds (key as a list, value) longest first,
    equal lengths by their tokens, equal keys in input order, none dropped.
    Build it once per gazetteer or ontology."""

    def __init__(self, phrases: Iterable[tuple[tuple[str, ...], str]]):
        entries = []
        for key, value in phrases:
            if isinstance(key, str):
                # list(key) would be a key of single characters
                raise TypeError(f"phrase key {key!r} is a string, not a "
                                f"sequence of tokens folded by phrase_key")
            if key:
                entries.append((list(key), value))
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


def read_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSON-lines file.

    A line that is not valid JSON, holds an integer longer than ``int``
    reads, or is not a JSON object, raises MalformedRecord naming the file
    and line. Each line goes straight to the JSON scanner, without
    ``json.loads``' per-call checks; a line that the scanner does not read
    whole, up to JSON whitespace, goes to ``json.loads``, so blank lines and
    decoding errors read as they did.
    """
    scan = make_scanner(json.JSONDecoder())
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            try:
                rec, end = scan(raw, 0)
            except (StopIteration, ValueError):
                end = -1
            if end < 0 or raw[end:].strip(" \t\n\r"):
                if not raw.strip():
                    continue
                try:
                    rec = json.loads(raw)
                except ValueError as exc:    # JSONDecodeError, or an overlong int
                    raise MalformedRecord(f"invalid JSON ({getattr(exc, 'msg', exc)})",
                                          path, ln) from None
            if not isinstance(rec, dict):
                raise MalformedRecord("record is not an object", path, ln)
            yield ln, rec


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write a JSON-lines file, one line per record with the bytes of
    ``json.dumps(record, sort_keys=True)``: the encoding ``read_records``
    reads back. One encoder serves every record of the file, where each
    ``json.dumps`` call with ``sort_keys`` would build its own."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(encode(rec) + "\n")


def load_lexicon(path: str | Path) -> dict[str, str]:
    """Load a surface<TAB>lemma table. Surfaces are folded to lower case at
    load, since ``tokenize`` looks up the folded surface; among surfaces
    equal after folding, the last in file order wins."""
    return {surface.lower(): lemma for surface, lemma in _tsv_rows(path)}


def load_gazetteer(path: str | Path) -> dict[tuple[str, ...], str]:
    """Load a surface<TAB>NE-label table; multi-word surfaces are allowed.
    Each surface is folded once, by ``phrase_key``, into the key that
    ``PhraseIndex`` takes; among lines with equal keys, the last in file
    order wins, as in the lexicon."""
    return {phrase_key(surface): label for surface, label in _tsv_rows(path)}


def _tsv_rows(path: str | Path) -> Iterator[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise MalformedRecord("expected surface<TAB>value", path, ln)
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
    surface equal after folding, the last in the file; of index entries with
    equal keys, the first wins. Build the gazetteer's ``PhraseIndex`` once
    and pass it for every sentence.

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
                gazetteer: dict[tuple[str, ...], str] | None = None) -> Corpus:
    """Load a raw jsonl-v1 corpus file into the canonical model.

    One JSON record per line with fields ``doc_id``, ``source``,
    ``publish_time`` (a day or an instant) and ``text`` (a list of sentence
    strings, or raw text split one sentence per line). The event id is the
    file's stem. Records with missing ids, sources or timestamps are
    rejected, not skipped, and so is a ``doc_id`` holding ``#``, which
    message references use as a separator.
    """
    path = Path(path)
    raw_docs: list[tuple[str, str, datetime, list[str]]] = []
    seen_ids: set[str] = set()
    for ln, rec in read_records(path):
        doc_id = rec.get("doc_id")
        if not doc_id or not isinstance(doc_id, str):
            raise MalformedRecord("missing doc_id", path, ln)
        if "#" in doc_id:
            raise MalformedRecord(f"doc_id {doc_id!r} contains '#'", path, ln)
        if doc_id in seen_ids:
            raise DuplicateDocId(doc_id, path, ln)
        seen_ids.add(doc_id)
        source = rec.get("source")
        if not source or not isinstance(source, str):
            raise MalformedRecord(f"document {doc_id!r} has no source", path, ln)
        if "publish_time" not in rec or rec["publish_time"] in (None, ""):
            raise MalformedRecord(f"document {doc_id!r} has no publish_time", path, ln)
        try:
            publish_time = parse_rfc3339(rec["publish_time"])
            sentences = _split_sentences(rec.get("text"))
        except UnparsableTimestamp as exc:
            raise UnparsableTimestamp(exc.value, path, ln) from None
        except TypeError as exc:
            raise MalformedRecord(str(exc), path, ln) from None
        if not sentences:
            raise MalformedRecord(f"document {doc_id!r} has no sentences", path, ln)
        raw_docs.append((doc_id, source, publish_time, sentences))

    return build_corpus(path.stem, raw_docs, lexicon=lexicon, gazetteer=gazetteer)


def build_corpus(event_id: str,
                 raw_docs: list[tuple[str, str, datetime, list[str]]],
                 lexicon: dict[str, str] | None = None,
                 gazetteer: dict[tuple[str, ...], str] | None = None) -> Corpus:
    """Assemble a Corpus from (doc_id, source, publish_time, sentences) rows;
    ``gazetteer`` is keyed as ``load_gazetteer`` keys it.

    The rows are sorted once, by (source, publish_time, doc_id), and each
    source's documents are numbered in that order: report_index is
    chronological within a source, ties broken by doc_id.
    """
    phrases = PhraseIndex(gazetteer.items()) if gazetteer else None
    documents = []
    for _, rows in groupby(sorted(raw_docs, key=itemgetter(1, 2, 0)), itemgetter(1)):
        for report_index, (doc_id, source, publish_time, sentence_texts) in enumerate(rows):
            sentences = tuple(
                Sentence(index=i, text=t, tokens=tokenize(t, lexicon, phrases))
                for i, t in enumerate(sentence_texts))
            documents.append(Document(
                doc_id=doc_id, source=source, publish_time=publish_time,
                sentences=sentences, report_index=report_index))
    return Corpus(event_id=event_id, documents=tuple(documents))


# ---------------------------------------------------------------------------
# Normalized corpus artifact (the ingest stage output): carries tokens so
# downstream stages do not need the lexicon/gazetteer again.

# A document line of the artifact and its parts, keys in sorted order, as
# ``json.dumps(record, sort_keys=True)`` writes them.
_DOCUMENT = ('{"doc_id": %s, "publish_time": %s, "report_index": %d, '
             '"sentences": [%s], "source": %s}\n')
_SENTENCE = '{"index": %d, "text": %s, "tokens": [%s]}'
_ROW = "[%s, %s, %s, %d, %d]"


def write_corpus_artifact(corpus: Corpus, path: str | Path) -> None:
    """Write the ingest stage's artifact: an ``event_id`` line, then one
    line per document with the bytes of ``json.dumps(record,
    sort_keys=True)``, each token a row [surface, lemma, label or null,
    start, end].

    A sentence's tokens are encoded column by column: the string columns by
    ``encode_basestring_ascii`` in C-level passes, each distinct label once
    per file, and the rows by one ``%``-format per sentence."""
    labels: dict[str | None, str] = {None: "null"}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"event_id": corpus.event_id}, sort_keys=True) + "\n")
        for d in corpus.documents:
            sentences = []
            for s in d.sentences:
                rows = ""
                if s.tokens:
                    surfaces, lemmas, ne, starts, ends = zip(*s.tokens)
                    for label in set(ne).difference(labels):
                        labels[label] = encode_basestring_ascii(label)
                    fields = chain.from_iterable(zip(
                        map(encode_basestring_ascii, surfaces),
                        map(encode_basestring_ascii, lemmas),
                        map(labels.__getitem__, ne), starts, ends))
                    rows = ", ".join(repeat(_ROW, len(surfaces))) % tuple(fields)
                sentences.append(_SENTENCE % (s.index, encode_basestring_ascii(s.text),
                                              rows))
            fh.write(_DOCUMENT % (
                encode_basestring_ascii(d.doc_id),
                encode_basestring_ascii(format_rfc3339(d.publish_time)),
                d.report_index, ", ".join(sentences),
                encode_basestring_ascii(d.source)))


class _TokensNotRead:
    """The tokens of a sentence read without them. Any use raises, so a
    stage that needs tokens cannot mistake them for an empty sentence."""

    def _fail(self, *args):
        raise RuntimeError("the corpus artifact was read without tokens")

    __iter__ = __len__ = __getitem__ = __bool__ = __contains__ = _fail


_TOKENS_NOT_READ = _TokensNotRead()


# A token row: surface, lemma, label or null, and two offsets.
_ROW_LENGTH = {5}
_LABEL_TYPES = {str, type(None)}
_OFFSET_TYPES = {int}


def _sentence(rec, tokens: bool) -> Sentence:
    """A sentence from its record; a non-int ``index``, a non-str ``text`` or
    (with tokens) a token row that is not an array of a surface, a lemma, a
    label or null and two offsets raises TypeError. The rows are checked
    column by column, each check a C-level pass: one over the row lengths,
    then one over the surface and lemma columns, one over the labels and
    one over the offsets. They are built in one more."""
    index, text = rec["index"], rec["text"]
    if type(index) is not int or type(text) is not str:
        raise TypeError
    if not tokens:
        return Sentence(index=index, text=text, tokens=_TOKENS_NOT_READ)
    rows = rec["tokens"]
    if not _ROW_LENGTH.issuperset(map(len, rows)):
        raise TypeError
    if rows:
        surfaces, lemmas, labels, starts, ends = zip(*rows)
        "".join(surfaces + lemmas)    # a TypeError unless all are strings
        if not (_LABEL_TYPES.issuperset(map(type, labels))
                and _OFFSET_TYPES.issuperset(map(type, starts + ends))):
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
                raise MalformedRecord(f"doc_id {doc_id!r} contains '#'", path, ln)
            sentences = tuple(_sentence(s, tokens) for s in rec["sentences"])
            publish_time = parse_rfc3339(publish_time)
        except KeyError as exc:
            raise MalformedRecord(f"missing {exc.args[0]}", path, ln) from None
        except TypeError:
            raise MalformedRecord("record does not have the corpus-artifact shape",
                                  path, ln) from None
        except UnparsableTimestamp as exc:
            raise UnparsableTimestamp(exc.value, path, ln) from None
        documents.append(Document(
            doc_id=doc_id, source=source, publish_time=publish_time,
            sentences=sentences, report_index=report_index))
    return Corpus(event_id=event_id, documents=tuple(documents))
