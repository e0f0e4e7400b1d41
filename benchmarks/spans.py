"""In-memory spans around the public functions of each chronicle layer.

The recorder wraps module attributes from outside the package: the program
itself carries no tracing code. Every call of a wrapped function becomes
one span (id, parent id, name, start, end); counters are updated at the
same boundary from the call's result. Spans stay in memory until
``write`` puts them in a JSON-lines file.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


def _count_tokens(counts, tokens, error):
    if error is None:
        counts["corpus.tokens"] += len(tokens)
        counts["corpus.ne_tokens"] += sum(1 for t in tokens if t.ne is not None)


def _count_typed(counts, msg_type, error):
    if error is None and msg_type is not None:
        counts["extract.typed_sentences"] += 1


def _count_discarded(counts, reason, error):
    if error is None and reason is not None:
        counts["extract.discarded"] += 1


def _count_messages(counts, messages, error):
    if error is None:
        counts["extract.messages"] += len(messages)


def _count_expressions(counts, found, error):
    if error is None:
        counts["temporal.expressions"] += len(found)


def _count_resolved(counts, anchor, error):
    counts["temporal.resolve_calls"] += 1
    if error is None:
        counts["temporal.resolved"] += 1


def _count_instances(counts, instances, error):
    if error is None:
        for r in instances:
            axis = "sync" if r.axis == "synchronic" else "dia"
            counts[f"relations.{axis}_instances"] += 1


def _count_reports(counts, reports, error):
    if error is None:
        counts["relations.ellipsis_reports"] += len(reports)


def _count_buckets(counts, buckets, error):
    if error is None:
        counts["relations.buckets"] = len(buckets)


def _count_sentences(counts, result, error):
    if error is None:
        counts["summarize.sentences"] += len(result.sentences)


def _count_parses(counts, statements, error):
    counts["ontology.spec_parses"] += 1


def patch_points(chronicle_modules) -> list[tuple[object, str, str, object]]:
    """(module, attribute, span name, counter) for every traced function.

    A function imported by name into another module is patched there too,
    since callers look it up in their own namespace.
    """
    m = chronicle_modules
    return [
        (m.corpus, "tokenize", "corpus.tokenize", _count_tokens),
        (m.corpus, "load_corpus", "corpus.load", None),
        (m.corpus, "write_corpus_artifact", "corpus.artifact_write", None),
        (m.corpus, "read_corpus_artifact", "corpus.artifact_read", None),
        (m.ontology, "parse_spec_file", "ontology.parse_spec", _count_parses),
        (m.cli, "load_ontology", "ontology.load", None),
        (m.cli, "load_message_specs", "ontology.load", None),
        (m.cli, "load_relation_specs", "ontology.load", None),
        (m.extract, "load_trigger_rules", "ontology.load", None),
        (m.extract, "extract_corpus", "extract.extract_corpus", _count_messages),
        (m.extract, "classify_sentence", "extract.classify", _count_typed),
        (m.extract, "fill_arguments", "extract.fill_arguments", None),
        (m.extract, "validate_message", "extract.validate", _count_discarded),
        (m.extract, "load_gold_messages", "extract.load_messages", None),
        (m.extract, "write_messages", "extract.write_messages", None),
        (m.extract, "message_time", "temporal.message_time", None),
        (m.temporal, "find_temporal_expressions", "temporal.find", _count_expressions),
        (m.temporal, "resolve", "temporal.resolve", _count_resolved),
        (m.relations, "evaluate_relations", "relations.evaluate", _count_instances),
        (m.relations, "detect_ellipsis", "relations.ellipsis", _count_reports),
        (m.relations, "bucket_messages", "relations.bucket", _count_buckets),
        (m.summarize, "bucket_messages", "relations.bucket", _count_buckets),
        (m.relations, "bucket_index_of", "relations.bucket", None),
        (m.summarize, "bucket_index_of", "relations.bucket", None),
        (m.evolution, "analyze_corpus", "evolution.analyze", None),
        (m.summarize, "load_templates", "summarize.load_templates", None),
        (m.summarize, "build_graph", "summarize.build_graph", None),
        (m.summarize, "render_summary", "summarize.render", _count_sentences),
    ]


# Spans whose last call arguments are kept: the candidate-pair count needs
# the messages and window that relation evaluation saw.
CAPTURED = {"relations.evaluate"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.captured: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None, capture: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
                if count is not None:
                    count(self.counts, result, error)
                if capture:
                    self.captured[name] = args
        return traced

    def install(self, chronicle_modules) -> None:
        for module, attr, name, count in patch_points(chronicle_modules):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, count, name in CAPTURED))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.captured.clear()

    # -- derived figures -------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed duration per span name (nested calls of one name counted once)."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        out: defaultdict[str, float] = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if parent is None or names[parent] != name:
                out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per name: span time minus the time its direct children cover."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
