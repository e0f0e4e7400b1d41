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

Sentences are planned in one walk over the graph's edges, which
``build_graph`` holds in ``sort_instances`` order, so grouping them by
(axis, name) yields each relation's pool with no regrouping or re-sort.
Each planned sentence is ordered by (bucket, kind rank, name, message);
lone sentences rank last in their bucket, so after one sort a single filter
applies the budget. A chain walk finds its next edge through an adjacency
map from left message to the unconsumed edges leaving it, and bucket
lookups go through one message-to-bucket map, so rendering stays
near-linear in messages plus relation instances.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .errors import ChronicleError, DslSyntaxError, MissingTemplate
from .extract import Message
from .ontology import DIACHRONIC
from .relations import (Bucket, EllipsisReport, RelationInstance, WindowPolicy,
                        bucket_indices, bucket_messages, sort_instances,
                        _message_sort_key)
from .relations import bucket_index_of  # noqa: F401  (re-exported)

_TEMPLATE_RE = re.compile(r'^template\s+([A-Za-z_][A-Za-z0-9_-]*)\s*:\s*"(.*)"\s*$')
_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_.]+)\}")


@dataclass(frozen=True)
class SummaryTemplate:
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
                                     str(path), ln, 1)
            name, pattern = m.group(1), m.group(2)
            if name in templates:
                raise DslSyntaxError(f"template {name!r} redeclared", str(path), ln)
            templates[name] = SummaryTemplate(name, pattern)
    return templates


@dataclass(frozen=True)
class RelationGraph:
    nodes: tuple[Message, ...]
    edges: tuple[RelationInstance, ...]
    buckets: tuple[Bucket, ...]


def build_graph(messages: list[Message], relations: list[RelationInstance],
                window: WindowPolicy) -> RelationGraph:
    """Messages in time order and relations in ``sort_instances`` order, so
    that no summary depends on the order its artifacts were read in."""
    nodes = tuple(sorted(messages, key=_message_sort_key))
    return RelationGraph(
        nodes=nodes, edges=tuple(sort_instances(relations)),
        buckets=tuple(bucket_messages(list(nodes), window)))


@dataclass(frozen=True)
class RenderResult:
    text: str
    sentences: tuple[str, ...]
    coverage: tuple[tuple[str, int], ...]   # (relation instance key, sentence)


def instance_key(r: RelationInstance) -> str:
    return (f"{r.axis}|{r.name}|{r.left.doc_id}#{r.left.sentence_index}"
            f"->{r.right.doc_id}#{r.right.sentence_index}")


def _pretty(value: str | None) -> str:
    return "unspecified" if value is None else value.replace("_", " ")


def _date_of(m: Message) -> str:
    return m.time.start.date().isoformat()


def _join_sources(sources) -> str:
    items = sorted(set(sources))
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _pair_context(left: Message, right: Message, sources) -> dict[str, str]:
    ctx = {"sources": _join_sources(sources), "date": _date_of(left)}
    for side, msg in (("left", left), ("right", right)):
        ctx[f"{side}.source"] = msg.source
        ctx[f"{side}.date"] = _date_of(msg)
        ctx[f"{side}.type"] = msg.msg_type
        for slot, value in msg.args.items():
            ctx[f"{side}.{slot}"] = _pretty(value)
    return ctx


def _single_context(m: Message) -> dict[str, str]:
    ctx = {"source": m.source, "sources": m.source, "date": _date_of(m),
           "type": m.msg_type}
    for slot, value in m.args.items():
        ctx[slot] = _pretty(value)
    return ctx


def _render(pattern: str, ctx: dict[str, str], template_name: str) -> str:
    def sub(match: re.Match) -> str:
        key = match.group(1)
        if key not in ctx:
            raise ChronicleError(
                f"template {template_name!r}: unresolvable placeholder {{{key}}}")
        return ctx[key]
    return _PLACEHOLDER_RE.sub(sub, pattern)


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


def _diachronic_chains(pool: list[RelationInstance]) -> list[list[RelationInstance]]:
    """Maximal paths through one relation's edges, given in
    ``sort_instances`` order; each edge lands in exactly one chain.

    Chains start at edges whose left message no edge enters, in pool order;
    edges left over start further chains, again in pool order. A walk always
    continues with the first unconsumed edge (in pool order) leaving the
    message it reached, found through an adjacency map from left message to
    pool positions.
    """
    chains: list[list[RelationInstance]] = []
    consumed = [False] * len(pool)
    # left message key -> pool positions of its edges, last = first in pool
    leaving: dict[tuple, list[int]] = {}
    for i in reversed(range(len(pool))):
        leaving.setdefault(pool[i].left.key(), []).append(i)
    incoming = {e.right.key() for e in pool}

    def take_chain(i: int | None) -> list[RelationInstance]:
        chain = []
        while i is not None:
            consumed[i] = True
            chain.append(pool[i])
            out = leaving.get(pool[i].right.key(), [])
            while out and consumed[out[-1]]:
                out.pop()
            i = out[-1] if out else None
        return chain

    for i, e in enumerate(pool):
        if not consumed[i] and e.left.key() not in incoming:
            chains.append(take_chain(i))
    for i in range(len(pool)):
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
    (the relate window differed).
    """
    if bucket_budget is not None and bucket_budget < 0:
        raise ValueError(f"bucket budget must be at least 0, got {bucket_budget}")
    for name in sorted({e.name for e in graph.edges}):
        if name not in templates:
            raise MissingTemplate(name)
    if ellipsis and "ellipsis" not in templates:
        raise MissingTemplate("ellipsis")

    bucket_of = bucket_indices(graph.buckets)
    touched: set[tuple[str, int]] = set()
    # ((bucket, kind rank, template name, message sort key), text, consumed)
    planned: list[tuple[tuple, str, list[str]]] = []

    def plan(m: Message, rank: int, name: str, ctx: dict[str, str],
             consumed: Iterable[RelationInstance] = ()) -> None:
        order = (bucket_of[m.key()], rank, name, _message_sort_key(m))
        planned.append((order, _render(templates[name].pattern, ctx, name),
                        [instance_key(e) for e in consumed]))

    for (axis, name), group in groupby(graph.edges, key=lambda e: (e.axis, e.name)):
        pool = list(group)
        touched.update(m.key() for e in pool for m in (e.left, e.right))
        if axis == DIACHRONIC:
            # one trend sentence per chain, in the bucket where it lands
            for chain in _diachronic_chains(pool):
                head, tail = chain[0].left, chain[-1].right
                ctx = _pair_context(head, tail, [head.source])
                ctx["date"] = _date_of(tail)
                plan(tail, 1, name, ctx, chain)
            continue

        # synchronic: collapse equal-argument groups, attribute variants
        uf = _UnionFind()
        equal: list[RelationInstance] = []
        # undirected pairs of the remaining directed instances
        pairs: dict[tuple, list[RelationInstance]] = {}
        for e in pool:
            if e.left.msg_type == e.right.msg_type and e.left.args == e.right.args:
                equal.append(e)
                uf.union(e.left.key(), e.right.key())
            else:
                pairs.setdefault(tuple(sorted([e.left.key(), e.right.key()])),
                                 []).append(e)
        components: dict[tuple, list[RelationInstance]] = {}
        for e in equal:
            components.setdefault(uf.find(e.left.key()), []).append(e)
        for root in sorted(components):
            edges = components[root]
            members = {m.key(): m for e in edges for m in (e.left, e.right)}
            msgs = sorted(members.values(), key=_message_sort_key)
            plan(msgs[0], 0, name,
                 _pair_context(msgs[0], msgs[0], [m.source for m in msgs]), edges)
        for pair in sorted(pairs):
            canon = pairs[pair][0]
            plan(canon.left, 0, name,
                 _pair_context(canon.left, canon.right,
                               [canon.left.source, canon.right.source]),
                 pairs[pair])

    for rep in ellipsis:
        if bucket_of.get(rep.message.key()) != rep.bucket:
            raise ChronicleError(
                f"ellipsis report for {rep.message.doc_id}#"
                f"{rep.message.sentence_index} names bucket {rep.bucket}, "
                f"which is not its bucket under this window")
        touched.add(rep.message.key())
        ctx = _single_context(rep.message)
        ctx["silent"] = _join_sources(rep.silent_sources)
        plan(rep.message, 2, "ellipsis", ctx)

    # lone messages: no relation touches them, no ellipsis covers them
    for m in graph.nodes:
        if m.key() not in touched:
            tname = f"lone-{m.msg_type}"
            if tname not in templates:
                raise MissingTemplate(tname)
            plan(m, 3, tname, _single_context(m))

    # lone sentences sort last in their bucket, so the budget is one filter
    kept: Counter = Counter()
    sentences: list[str] = []
    coverage = []
    for (bucket, rank, *_), text, consumed in sorted(planned, key=itemgetter(0)):
        if rank == 3 and bucket_budget is not None and kept[bucket] >= bucket_budget:
            continue
        kept[bucket] += 1
        coverage.extend((key, len(sentences)) for key in consumed)
        sentences.append(text)
    seen = [k for k, _ in coverage]
    if not len(seen) == len(set(seen)) == len(graph.edges):
        raise ChronicleError(
            f"every relation instance must be consumed exactly once: "
            f"{len(graph.edges)} instances, {len(seen)} consumed, "
            f"{len(set(seen))} distinct")
    text = "\n".join(sentences) + ("\n" if sentences else "")
    return RenderResult(text=text, sentences=tuple(sentences),
                        coverage=tuple(sorted(coverage)))


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

