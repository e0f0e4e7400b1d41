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

Rendering stays near-linear in messages plus relation instances: a chain
walk finds its next edge through an adjacency map from left message to
the unconsumed edges leaving it, bucket lookups go through one
message-to-bucket map, and each bucket's relation sentences are counted
once before the budget trims lone sentences.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from .errors import ChronicleError, DslSyntaxError, MissingTemplate
from .extract import Message
from .ontology import DIACHRONIC, SYNCHRONIC
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
    nodes = tuple(sorted(messages, key=_message_sort_key))
    node_keys = {m.key() for m in nodes}
    for r in relations:
        if r.left.key() not in node_keys or r.right.key() not in node_keys:
            raise ChronicleError(
                f"relation {r.name!r} references a message outside the graph")
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


def _diachronic_chains(edges: list[RelationInstance]) -> list[list[RelationInstance]]:
    """Maximal same-name paths; each edge lands in exactly one chain.

    Chains start at edges whose left message no edge enters, in pool order;
    edges left over start further chains, again in pool order. A walk always
    continues with the first unconsumed edge (in pool order) leaving the
    message it reached, found through an adjacency map from left message to
    pool positions.
    """
    chains: list[list[RelationInstance]] = []
    by_name: dict[str, list[RelationInstance]] = {}
    for e in edges:
        by_name.setdefault(e.name, []).append(e)
    for name in sorted(by_name):
        pool = sort_instances(by_name[name])
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
    ChronicleError when an ellipsis report's bucket is not the one the
    graph's window puts its message in (the relate window differed).
    """
    for name in sorted({e.name for e in graph.edges}):
        if name not in templates:
            raise MissingTemplate(name)
    if ellipsis and "ellipsis" not in templates:
        raise MissingTemplate("ellipsis")

    # (bucket, kind_rank, sort_key) -> rendered text + consumed instances
    planned: list[tuple[tuple, str, list[str]]] = []

    sync_edges = [e for e in graph.edges if e.axis == SYNCHRONIC]
    dia_edges = [e for e in graph.edges if e.axis == DIACHRONIC]
    bucket_of = bucket_indices(graph.buckets)
    by_key = {m.key(): m for m in graph.nodes}

    # --- synchronic: collapse equal-argument groups, attribute variants
    by_name: dict[str, list[RelationInstance]] = {}
    for e in sync_edges:
        by_name.setdefault(e.name, []).append(e)
    for name in sorted(by_name):
        equal, rest = [], []
        for e in by_name[name]:
            same = e.left.msg_type == e.right.msg_type and e.left.args == e.right.args
            (equal if same else rest).append(e)

        uf = _UnionFind()
        for e in equal:
            uf.union(e.left.key(), e.right.key())
        components: dict[tuple, list[RelationInstance]] = {}
        for e in equal:
            components.setdefault(uf.find(e.left.key()), []).append(e)
        for root in sorted(components):
            edges_c = components[root]
            members = {e.left.key() for e in edges_c} | {e.right.key() for e in edges_c}
            msgs = sorted((by_key[k] for k in members), key=_message_sort_key)
            rep = msgs[0]
            ctx = _pair_context(rep, rep, [m.source for m in msgs])
            text = _render(templates[name].pattern, ctx, name)
            order = (bucket_of[rep.key()], 0, name,
                     _message_sort_key(rep))
            planned.append((order, text, [instance_key(e) for e in edges_c]))

        # group remaining directed instances into undirected pairs
        grouped: dict[tuple, list[RelationInstance]] = {}
        for e in rest:
            pair_id = (name,) + tuple(sorted([e.left.key(), e.right.key()]))
            grouped.setdefault(pair_id, []).append(e)
        for pair_id in sorted(grouped):
            edges_p = grouped[pair_id]
            canon = edges_p[0]
            ctx = _pair_context(canon.left, canon.right,
                                [canon.left.source, canon.right.source])
            text = _render(templates[name].pattern, ctx, name)
            order = (bucket_of[canon.left.key()], 0, name,
                     _message_sort_key(canon.left))
            planned.append((order, text, [instance_key(e) for e in edges_p]))

    # --- diachronic: collapse same-name chains into trend sentences
    for chain in _diachronic_chains(dia_edges):
        name = chain[0].name
        head, tail = chain[0].left, chain[-1].right
        ctx = _pair_context(head, tail, [head.source])
        ctx["date"] = _date_of(tail)
        text = _render(templates[name].pattern, ctx, name)
        order = (bucket_of[tail.key()], 1, name, _message_sort_key(tail))
        planned.append((order, text, [instance_key(e) for e in chain]))

    # --- ellipsis reports
    reported: set[tuple[str, int]] = set()
    for rep in ellipsis:
        if bucket_of.get(rep.message.key()) != rep.bucket:
            raise ChronicleError(
                f"ellipsis report for {rep.message.doc_id}#"
                f"{rep.message.sentence_index} names bucket {rep.bucket}, "
                f"which is not its bucket under this window")
        reported.add(rep.message.key())
        ctx = _single_context(rep.message)
        ctx["silent"] = _join_sources(rep.silent_sources)
        text = _render(templates["ellipsis"].pattern, ctx, "ellipsis")
        order = (rep.bucket, 2, "ellipsis", _message_sort_key(rep.message))
        planned.append((order, text, []))

    # --- lone messages: no relation touches them, no ellipsis covers them
    touched = {e.left.key() for e in graph.edges} | \
              {e.right.key() for e in graph.edges} | reported
    lone_sentences: list[tuple[tuple, str]] = []
    for m in graph.nodes:
        if m.key() in touched:
            continue
        tname = f"lone-{m.msg_type}"
        if tname not in templates:
            raise MissingTemplate(tname)
        text = _render(templates[tname].pattern, _single_context(m), tname)
        order = (bucket_of[m.key()], 3, tname, _message_sort_key(m))
        lone_sentences.append((order, text))

    lone_sentences.sort(key=lambda p: p[0])

    # merge, applying the per-bucket budget to lone sentences only
    mandatory = Counter(order[0] for order, _, _ in planned)
    per_bucket: dict[int, int] = {}
    merged: list[tuple[tuple, str, list[str]]] = list(planned)
    for order, text in lone_sentences:
        bucket = order[0]
        used = per_bucket.get(bucket, 0)
        if bucket_budget is None or mandatory[bucket] + used < bucket_budget:
            merged.append((order, text, []))
            per_bucket[bucket] = used + 1
    merged.sort(key=lambda p: p[0])

    sentences = tuple(text for _, text, _ in merged)
    coverage = []
    for idx, (_, _, consumed) in enumerate(merged):
        for key in consumed:
            coverage.append((key, idx))
    seen = [k for k, _ in coverage]
    if not len(seen) == len(set(seen)) == len(graph.edges):
        raise ChronicleError(
            f"every relation instance must be consumed exactly once: "
            f"{len(graph.edges)} instances, {len(seen)} consumed, "
            f"{len(set(seen))} distinct")
    text = "\n".join(sentences) + ("\n" if sentences else "")
    return RenderResult(text=text, sentences=sentences,
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

