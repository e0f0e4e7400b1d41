"""Literal reference definitions of the stages that have a fast implementation.

Each oracle follows the definition in the simplest way, pair by pair, so
randomized tests can check the library against it. ``brute_force_oracle``
in ``chronicle.relations`` plays the same part for relation evaluation.
"""

from __future__ import annotations

from chronicle.relations import anchors_compatible, sort_instances
from chronicle.summarize import instance_key


def _sort_key(m):
    return (m.time.start, m.doc_id, m.sentence_index)


def bucket_oracle(messages, window) -> list[tuple[str, list[tuple[str, int]]]]:
    """(label, member keys) per bucket: the connected components of
    ``anchors_compatible`` by a plain union-find, each sorted by anchor,
    in the order of their earliest member."""
    parent = list(range(len(messages)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(messages):
        for j, b in enumerate(messages):
            if anchors_compatible(a.time, b.time, window):
                parent[find(i)] = find(j)
    components: dict[int, list] = {}
    for i, m in enumerate(messages):
        components.setdefault(find(i), []).append(m)
    groups = sorted((sorted(c, key=_sort_key) for c in components.values()),
                    key=lambda c: _sort_key(c[0]))
    return [(g[0].time.start.strftime("%Y-%m-%d"), [m.key() for m in g])
            for g in groups]


def ellipsis_oracle(messages, sources, window) -> list[tuple]:
    """(message key, bucket, silent sources) per message some other source
    never echoes with a window-compatible message of the same type."""
    bucket_of = {key: index
                 for index, (_, keys) in enumerate(bucket_oracle(messages, window))
                 for key in keys}
    reports = []
    for m in sorted(messages, key=_sort_key):
        silent = []
        for source in sorted(sources):
            if source == m.source:
                continue
            if not any(m2.source == source and m2.msg_type == m.msg_type
                       and anchors_compatible(m.time, m2.time, window)
                       for m2 in messages):
                silent.append(source)
        if silent:
            reports.append((m.key(), bucket_of[m.key()], tuple(silent)))
    return reports


def chains_oracle(edges):
    """Maximal same-name paths; each edge lands in exactly one chain. The
    pool-rescanning walk the summarizer used before its adjacency map."""
    chains = []
    by_name = {}
    for e in edges:
        by_name.setdefault(e.name, []).append(e)
    for name in sorted(by_name):
        pool = sort_instances(by_name[name])
        unconsumed = {instance_key(e): e for e in pool}
        incoming = {e.right.key() for e in pool}

        def take_chain(start):
            chain = [start]
            del unconsumed[instance_key(start)]
            cursor = start.right
            while True:
                nxt = None
                for e in pool:
                    if instance_key(e) in unconsumed and e.left.key() == cursor.key():
                        nxt = e
                        break
                if nxt is None:
                    return chain
                chain.append(nxt)
                del unconsumed[instance_key(nxt)]
                cursor = nxt.right

        for e in pool:
            if instance_key(e) in unconsumed and e.left.key() not in incoming:
                chains.append(take_chain(e))
        while unconsumed:
            first = next(e for e in pool if instance_key(e) in unconsumed)
            chains.append(take_chain(first))
    return chains
