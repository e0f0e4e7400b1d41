"""Relation-driven summary rendering.

The relation names carry the pragmatic content, so rendering is organized
around them: the document plan is a chronological walk over window-aligned
buckets; within a bucket, same-type messages connected by symmetric
equal-argument relations collapse into one sentence crediting all
concurring sources, differing variants render with per-source attribution,
diachronic chains of one relation collapse into a single trend sentence in
the bucket where they land, ellipsis reports call out the lone source, and
messages no relation touches fall back to per-type templates. Every
relation instance is consumed by exactly one sentence and the consumption
is reported as a coverage trace next to the text. ``write_coverage``
formats that trace itself, with the bytes of ``json.dump(doc, indent=2,
sort_keys=True)`` plus a newline; an indented ``json.dump`` always runs the
encoder's pure-Python path.

Within the graph a message is its position in the time-ordered nodes. An
edge is a relation instance as (axis, name, left position, right
position): ``build_graph`` resolves each instance key once, and holds the
edges in ``sort_instances`` order, so grouping them by (axis, name) yields
each relation's pool with no regrouping or re-sort. A bucket is a run of
consecutive nodes, its index its place in the bucket list. Sentences are
planned in one walk over the edges. ``render_summary`` keeps one table per
call, indexed by node position: each message's bucket, its ``DOC#I``
reference, its date, its row (the source, date, type and prettified slot
values a template reads) and, for a message some relation names, an
integer class shared by the messages of one type with equal arguments. A
relation instance then costs lookups in that table: its coverage key joins
two references, and the synchronic equal-argument test compares two
classes.

Each template is compiled once per call into one ``str.format`` string
over three tables: the sentence's own, read by ``{X}``, and its left and
right message rows, read by ``{left.X}`` and ``{right.X}``. A relation
sentence's own table holds ``sources`` and ``date``, and its side tables
are the rows of its two messages. A lone sentence's own table is its
message's row with ``sources``, the message's source, and an ellipsis
sentence's adds ``silent``, the silent sources; both have empty side
tables. Any other placeholder is unresolvable.

Each planned sentence is ordered by (bucket, kind rank, name, message
position); lone sentences rank last in their bucket, so after one sort a
single filter applies the budget. A chain walk finds its next edge through
an adjacency map from left message to the unconsumed edges leaving it, so
rendering stays near-linear in messages plus relation instances.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ChronicleError, DslSyntaxError, MissingTemplate
from .extract import Message
from .ontology import DIACHRONIC
from .relations import EllipsisReport, WindowPolicy, bucket_messages
from .relations import bucket_index_of  # noqa: F401  (re-exported)

_TEMPLATE_RE = re.compile(r'^template\s+([A-Za-z_][A-Za-z0-9_-]*)\s*:\s*"(.*)"\s*$')
_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_.]+)\}")


class SummaryTemplate(NamedTuple):
    name: str          # relation name, "lone-<message type>", or "ellipsis"
    pattern: str


def load_templates(path: str | Path) -> dict[str, SummaryTemplate]:
    templates: dict[str, SummaryTemplate] = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = _TEMPLATE_RE.match(line)
            if not m:
                raise DslSyntaxError('expected: template <name>: "<pattern>"',
                                     path, ln, 1)
            name, pattern = m.group(1), m.group(2)
            if name in templates:
                raise DslSyntaxError(f"template {name!r} redeclared", path, ln)
            templates[name] = SummaryTemplate(name, pattern)
    return templates


class RelationGraph(NamedTuple):
    nodes: tuple[Message, ...]
    edges: tuple[tuple[str, str, int, int], ...]  # (axis, name, left, right position)
    buckets: tuple[tuple[Message, ...], ...]      # runs of consecutive nodes


def build_graph(messages: list[Message], relations: Iterable[tuple],
                window: WindowPolicy) -> RelationGraph:
    """Messages in time order, and relations, given as instance keys
    (``RelationInstance.key``), as edges between node positions in
    ``sort_instances`` order, so that no summary depends on the order its
    artifacts were read in.

    ``nodes`` joins the buckets, runs of the order ``sort_instances``
    compares messages by; as message keys are unique, sorting the edges by
    (axis, name, left position, right position) gives that order."""
    buckets = tuple(bucket_messages(messages, window))
    nodes = tuple(m for members in buckets for m in members)
    position = {m.key(): i for i, m in enumerate(nodes)}
    edges = sorted((axis, name, position[left], position[right])
                   for axis, name, left, right in relations)
    return RelationGraph(nodes=nodes, edges=tuple(edges), buckets=buckets)


class RenderResult(NamedTuple):
    text: str
    sentences: tuple[str, ...]
    coverage: tuple[tuple[str, int], ...]   # (relation instance key, sentence)


def _pretty(value: str | None) -> str:
    return "unspecified" if value is None else value.replace("_", " ")


def _date_of(m: Message) -> str:
    return m.time.start.date().isoformat()


def _join_sources(sources) -> str:
    items = sorted(set(sources))
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _row(m: Message, date: str) -> dict[str, str]:
    """What a template reads of a message: its source, date, type and
    prettified slot values; a slot of one of those names wins."""
    row = {"source": m.source, "date": date, "type": m.msg_type}
    for slot, value in m.args.items():
        row[slot] = _pretty(value)
    return row


_NO_VALUES: dict[str, str] = {}


def _compile(pattern: str, template_name: str) -> Callable[..., str]:
    """A template pattern as a ``str.format`` string that looks every
    placeholder up itself, every other brace doubled, wrapped in a function
    of three tables: the sentence's own, and its left and right message
    rows (see ``_row``), which default to tables with no values.
    ``{left.X}`` becomes ``{1[X]}``, ``{right.X}`` ``{2[X]}`` and any other
    ``{name}`` ``{0[name]}``. ``str.format`` reads a key of digits alone as
    a list index and has no field for an empty key, so such a key is looked
    up before formatting and passed as one more argument. The first
    placeholder, in pattern order, with no value raises ChronicleError."""
    parts = _PLACEHOLDER_RE.split(pattern)
    names = parts[1::2]
    lookups = []                     # (table index, key)
    extras = []                      # lookups passed as extra arguments
    fields = []
    for name in names:
        side, dot, key = name.partition(".")
        i = 1 if side == "left" else 2 if side == "right" else 0
        if not (dot and i):
            i, key = 0, name
        lookups.append((i, key))
        if not key or key.isdigit():
            fields.append(f"{{{3 + len(extras)}}}")
            extras.append((i, key))
        else:
            fields.append(f"{{{i}[{key}]}}")
    fmt = "".join(literal.replace("{", "{{").replace("}", "}}") + field
                  for literal, field in zip(parts[::2], fields + [""]))

    def render(own: dict[str, str], left: dict[str, str] = _NO_VALUES,
               right: dict[str, str] = _NO_VALUES) -> str:
        tables = (own, left, right)
        try:
            if extras:
                return fmt.format(*tables, *[tables[i][key] for i, key in extras])
            return fmt.format(own, left, right)
        except KeyError:
            name = next(name for name, (i, key) in zip(names, lookups)
                        if key not in tables[i])
            raise ChronicleError(f"template {template_name!r}: unresolvable "
                                 f"placeholder {{{name}}}") from None
    return render


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _diachronic_chains(ends: Sequence[tuple]) -> list[list[int]]:
    """Maximal paths through one relation's edges, each given as a tuple
    whose last two items are its left and right messages, in
    ``sort_instances`` order; each edge's index lands in exactly one chain.

    Chains start at edges whose left message no edge enters, in pool order;
    edges left over start further chains, again in pool order. A walk always
    continues with the first unconsumed edge (in pool order) leaving the
    message it reached, found through an adjacency map from left message to
    pool positions.
    """
    chains: list[list[int]] = []
    consumed = [False] * len(ends)
    # left message -> pool positions of its edges, last = first in pool
    leaving: dict = {}
    for i in reversed(range(len(ends))):
        leaving.setdefault(ends[i][-2], []).append(i)
    incoming = {end[-1] for end in ends}

    def take_chain(i: int | None) -> list[int]:
        chain = []
        while i is not None:
            consumed[i] = True
            chain.append(i)
            out = leaving.get(ends[i][-1], [])
            while out and consumed[out[-1]]:
                out.pop()
            i = out[-1] if out else None
        return chain

    for i, end in enumerate(ends):
        if not consumed[i] and end[-2] not in incoming:
            chains.append(take_chain(i))
    for i in range(len(ends)):
        if not consumed[i]:
            chains.append(take_chain(i))
    return chains


def render_summary(graph: RelationGraph,
                   templates: dict[str, SummaryTemplate],
                   ellipsis: list[EllipsisReport] = (),
                   bucket_budget: int | None = None) -> RenderResult:
    """Deterministic template rendering over the graph.

    Raises MissingTemplate (never skips silently) when a relation name, the
    "ellipsis" template, or a needed "lone-<type>" template is absent. The
    per-bucket budget only trims lone-message sentences; relation-driven
    and ellipsis sentences always render so coverage stays exact. Raises
    ValueError for a negative budget, and ChronicleError when an ellipsis
    report's bucket is not the one the graph's window puts its message in
    (the relate window differed), or when a template names a placeholder
    its sentence has no value for.
    """
    if bucket_budget is not None and bucket_budget < 0:
        raise ValueError(f"bucket budget must be at least 0, got {bucket_budget}")
    for name in sorted({name for _, name, _, _ in graph.edges}):
        if name not in templates:
            raise MissingTemplate(name)
    if ellipsis and "ellipsis" not in templates:
        raise MissingTemplate("ellipsis")

    # the per-message table, indexed by position in graph.nodes
    nodes = graph.nodes
    keys = [m.key() for m in nodes]
    bucket = [b for b, members in enumerate(graph.buckets) for _ in members]
    ref = [f"{doc_id}#{sentence_index}" for doc_id, sentence_index in keys]
    date = [_date_of(m) for m in nodes]
    touched = bytearray(len(nodes))
    for _, _, left, right in graph.edges:
        touched[left] = touched[right] = 1
    # every message's row, which no sentence changes, and the classes of the
    # messages relation sentences name; messages of one class have the same
    # type and equal arguments
    rows = [_row(m, d) for m, d in zip(nodes, date)]
    classes: dict[tuple, int] = {}
    kind = [classes.setdefault((m.msg_type, frozenset(m.args.items())), len(classes))
            if t else None for m, t in zip(nodes, touched)]

    compiled = {name: _compile(t.pattern, name) for name, t in templates.items()}

    # (bucket, kind rank, template name, message position, text, consumed),
    # ordered by the first four, stably, so that sentences which tie there
    # keep plan order
    planned: list[tuple] = []

    for (axis, name), group in groupby(graph.edges, key=itemgetter(0, 1)):
        pool = list(group)              # (axis, name, left, right) edges
        covered = [f"{axis}|{name}|{ref[left]}->{ref[right]}"
                   for _, _, left, right in pool]
        render = compiled[name]
        if axis == DIACHRONIC:
            # one trend sentence per chain, in the bucket where it lands
            for chain in _diachronic_chains(pool):
                head, tail = pool[chain[0]][2], pool[chain[-1]][3]
                text = render({"sources": nodes[head].source, "date": date[tail]},
                              rows[head], rows[tail])
                planned.append((bucket[tail], 1, name, tail, text,
                                list(map(covered.__getitem__, chain))))
            continue

        # synchronic: collapse equal-argument groups, attribute variants
        uf = _UnionFind()
        equal: list[int] = []
        # undirected message-key pairs of the remaining directed instances;
        # pairs with the same left message tie in plan order, so they keep
        # the order of their message keys, not of their positions
        pairs: dict[tuple, list[int]] = {}
        for c, (_, _, left, right) in enumerate(pool):
            if kind[left] == kind[right]:
                equal.append(c)
                uf.union(left, right)
            else:
                ka, kb = keys[left], keys[right]
                pairs.setdefault((ka, kb) if ka < kb else (kb, ka), []).append(c)
        components: dict[int, list[int]] = {}
        for c in equal:
            components.setdefault(uf.find(pool[c][2]), []).append(c)
        for root in sorted(components):
            members = sorted({i for c in components[root] for i in pool[c][2:]})
            first = members[0]
            own = {"sources": _join_sources([nodes[i].source for i in members]),
                   "date": date[first]}
            text = render(own, rows[first], rows[first])
            planned.append((bucket[first], 0, name, first, text,
                            [covered[c] for c in components[root]]))
        for pair in sorted(pairs):
            _, _, left, right = pool[pairs[pair][0]]
            own = {"sources": _join_sources([nodes[left].source, nodes[right].source]),
                   "date": date[left]}
            text = render(own, rows[left], rows[right])
            planned.append((bucket[left], 0, name, left, text,
                            [covered[c] for c in pairs[pair]]))

    position = {k: i for i, k in enumerate(keys)}
    for rep in ellipsis:
        i = position.get(rep.message.key())
        if i is None or bucket[i] != rep.bucket:
            raise ChronicleError(
                f"ellipsis report for {rep.message.doc_id}#"
                f"{rep.message.sentence_index} names bucket {rep.bucket}, "
                f"which is not its bucket under this window")
        touched[i] = 1
        own = {"sources": nodes[i].source, **rows[i],
               "silent": _join_sources(rep.silent_sources)}
        planned.append((bucket[i], 2, "ellipsis", i, compiled["ellipsis"](own), ()))

    # lone messages: no relation touches them, no ellipsis covers them
    for i, m in enumerate(nodes):
        if not touched[i]:
            tname = f"lone-{m.msg_type}"
            if tname not in templates:
                raise MissingTemplate(tname)
            own = {"sources": m.source, **rows[i]}
            planned.append((bucket[i], 3, tname, i, compiled[tname](own), ()))

    planned.sort(key=itemgetter(0, 1, 2, 3))
    if bucket_budget is not None:
        # lone sentences sort last in their bucket, so the budget is one
        # filter: a lone sentence stays while its bucket has room
        kept: Counter = Counter()
        trimmed = []
        for entry in planned:
            bucket_index, rank = entry[0], entry[1]
            if rank != 3 or kept[bucket_index] < bucket_budget:
                kept[bucket_index] += 1
                trimmed.append(entry)
        planned = trimmed
    sentences = [entry[4] for entry in planned]
    coverage = [(key, n) for n, entry in enumerate(planned) for key in entry[5]]
    distinct = len({key for key, _ in coverage})
    if not len(coverage) == distinct == len(graph.edges):
        raise ChronicleError(
            f"every relation instance must be consumed exactly once: "
            f"{len(graph.edges)} instances, {len(coverage)} consumed, "
            f"{distinct} distinct")
    text = "\n".join(sentences) + ("\n" if sentences else "")
    # the keys are distinct, so they alone give the order of the pairs
    return RenderResult(text=text, sentences=tuple(sentences),
                        coverage=tuple(sorted(coverage, key=itemgetter(0))))


def _write_json_list(fh, items: Iterable[str]) -> None:
    """Write already-encoded items as a JSON list indented like a top-level
    value of ``json.dump(..., indent=2)``, one write per item."""
    first = True
    for item in items:
        fh.write(("[\n    " if first else ",\n    ") + item)
        first = False
    fh.write("[]" if first else "\n  ]")


def write_coverage(result: RenderResult, path: str | Path) -> None:
    """Write the coverage trace with the bytes of ``json.dump(doc, indent=2,
    sort_keys=True)`` plus a newline, where ``doc`` holds ``consumed`` (one
    ``{"relation": key, "sentence": index}`` per consumed instance) and
    ``sentences``. Records are formatted directly, strings escaped by the
    encoder's own ASCII escaper, and written one at a time, as ``json.dump``
    writes, so the document is never held in memory whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "consumed": ')
        _write_json_list(fh, (f'{{\n      "relation": {encode_basestring_ascii(key)},\n'
                              f'      "sentence": {idx:d}\n    }}'
                              for key, idx in result.coverage))
        fh.write(',\n  "sentences": ')
        _write_json_list(fh, map(encode_basestring_ascii, result.sentences))
        fh.write("\n}\n")

