from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from chronicle.errors import ChronicleError, MalformedRecord, MissingTemplate
from chronicle.extract import Message
from chronicle.ontology import ConditionAtom, RelationSpec
from chronicle.relations import (EllipsisReport, WindowPolicy, _message_sort_key,
                                 bucket_index_of, bucket_messages,
                                 detect_ellipsis, evaluate_relations,
                                 read_relations, sort_instances,
                                 write_relations)
from chronicle.summarize import (SummaryTemplate, _compile, _diachronic_chains,
                                 build_graph, load_templates, render_summary)
from chronicle.temporal import TimeAnchor
from tests.oracles import _render, chains_oracle, render_summary_oracle
from tests.test_relations import random_trial

UTC = timezone.utc
W0 = WindowPolicy(timedelta(0))


def day(d):
    return TimeAnchor.day(datetime(2004, 9, d))


def perf(source, doc, anchor, value, report_index=0):
    return Message(msg_type="performance",
                   args={"entity": "Alpha_United", "in_what": "attack",
                         "time_span": "full_match", "value": value},
                   time=anchor, source=source, doc_id=doc, sentence_index=0,
                   report_index=report_index)


def eq(slot):
    return ConditionAtom(op="eq", left_slot=slot, right_slot=slot)


AGREEMENT = RelationSpec(
    name="agreement", axis="synchronic", left_type="performance",
    right_type="performance", symmetric=True,
    conditions=(eq("entity"), eq("in_what"), eq("time_span"), eq("value")))
POSITIVE = RelationSpec(
    name="positive_graduation", axis="diachronic", left_type="performance",
    right_type="performance", distance=("==", 1),
    conditions=(eq("entity"), eq("in_what"), eq("time_span"),
                ConditionAtom(op="lt", left_slot="value", right_slot="value",
                              scale=("poor", "mediocre", "good", "excellent"))))

TEMPLATES = {
    "agreement": SummaryTemplate(
        "agreement", "On {date}, {sources} agreed on {left.entity}: {left.value}."),
    "positive_graduation": SummaryTemplate(
        "positive_graduation",
        "{left.entity} improved from {left.value} to {right.value}."),
    "ellipsis": SummaryTemplate(
        "ellipsis", "Only {source} reported {type} on {date}."),
    "lone-performance": SummaryTemplate(
        "lone-performance", "{source}: {entity} was {value} on {date}."),
}


def test_graph_with_no_relations_has_isolated_nodes():
    ms = [perf("A", "a0", day(1), "good")]
    graph = build_graph(ms, [], W0)
    assert graph.edges == ()
    assert len(graph.nodes) == 1
    assert len(graph.buckets) == 1


def test_agreement_pair_lands_in_one_bucket():
    ms = [perf("A", "a0", day(1), "good"), perf("B", "b0", day(1), "good")]
    edges = evaluate_relations(ms, [AGREEMENT], W0)
    graph = build_graph(ms, [r.key() for r in edges], W0)
    assert len(graph.buckets) == 1
    assert len(graph.buckets[0]) == 2


def test_graduation_chain_spans_three_buckets():
    ms = [perf("A", "a0", day(1), "poor", 0),
          perf("A", "a1", day(3), "good", 1),
          perf("A", "a2", day(5), "excellent", 2)]
    edges = evaluate_relations(ms, [POSITIVE], W0)
    graph = build_graph(ms, [r.key() for r in edges], W0)
    assert len(graph.buckets) == 3
    assert len(graph.edges) == 2


def test_agreement_collapses_to_one_sentence_listing_sources():
    ms = [perf("A", "a0", day(1), "good"), perf("B", "b0", day(1), "good"),
          perf("C", "c0", day(1), "good")]
    edges = evaluate_relations(ms, [AGREEMENT], W0)
    assert len(edges) == 6
    result = render_summary(build_graph(ms, [r.key() for r in edges], W0), TEMPLATES)
    assert result.sentences == (
        "On 2004-09-01, A, B and C agreed on Alpha United: good.",)
    assert len(result.coverage) == 6


@pytest.mark.parametrize("relation", [AGREEMENT, POSITIVE])
def test_duplicated_edge_is_not_consumed_exactly_once(relation):
    ms = [perf("A", "a0", day(1), "poor", 0), perf("A", "a1", day(3), "good", 1),
          perf("B", "b0", day(1), "poor", 0)]
    edges = evaluate_relations(ms, [relation], W0)
    assert edges
    graph = build_graph(ms, [r.key() for r in edges + edges[:1]], W0)
    with pytest.raises(ChronicleError, match="exactly once"):
        render_summary(graph, TEMPLATES)


def test_graduation_chain_renders_single_trend_sentence():
    ms = [perf("A", "a0", day(1), "poor", 0),
          perf("A", "a1", day(3), "good", 1),
          perf("A", "a2", day(5), "excellent", 2)]
    edges = evaluate_relations(ms, [POSITIVE], W0)
    assert len(edges) == 2
    result = render_summary(build_graph(ms, [r.key() for r in edges], W0), TEMPLATES)
    assert result.sentences == (
        "Alpha United improved from poor to excellent.",)


def test_empty_graph_renders_empty_summary():
    result = render_summary(build_graph([], [], W0), TEMPLATES)
    assert result.text == ""
    assert result.sentences == ()
    assert result.coverage == ()


def test_missing_template_is_an_error():
    ms = [perf("A", "a0", day(1), "good"), perf("B", "b0", day(1), "good")]
    edges = evaluate_relations(ms, [AGREEMENT], W0)
    graph = build_graph(ms, [r.key() for r in edges], W0)
    templates = {k: v for k, v in TEMPLATES.items() if k != "agreement"}
    with pytest.raises(MissingTemplate) as err:
        render_summary(graph, templates)
    assert err.value.name == "agreement"


def test_missing_lone_template_is_an_error():
    ms = [perf("A", "a0", day(1), "good")]
    graph = build_graph(ms, [], W0)
    with pytest.raises(MissingTemplate) as err:
        render_summary(graph, {k: v for k, v in TEMPLATES.items()
                               if k != "lone-performance"})
    assert err.value.name == "lone-performance"


def test_lone_message_uses_per_type_template():
    ms = [perf("A", "a0", day(1), "good")]
    result = render_summary(build_graph(ms, [], W0), TEMPLATES)
    assert result.sentences == ("A: Alpha United was good on 2004-09-01.",)


def test_ellipsis_sentence_rendered():
    ms = [perf("A", "a0", day(1), "good")]
    reports = detect_ellipsis(ms, {"A", "B"}, W0)
    result = render_summary(build_graph(ms, [], W0), TEMPLATES, reports)
    assert result.sentences == ("Only A reported performance on 2004-09-01.",)


def test_bucket_budget_trims_lone_sentences_only():
    ms = [perf("A", "a0", day(1), "good"), perf("B", "b0", day(1), "good"),
          perf("C", "c0", day(1), "poor")]
    edges = evaluate_relations(ms, [AGREEMENT], W0)
    graph = build_graph(ms, [r.key() for r in edges], W0)
    unbudgeted = render_summary(graph, TEMPLATES)
    assert len(unbudgeted.sentences) == 2
    budgeted = render_summary(graph, TEMPLATES, bucket_budget=1)
    assert len(budgeted.sentences) == 1
    assert len(budgeted.coverage) == len(edges)


def test_rendering_deterministic_on_fixture(hostage):
    edges = evaluate_relations(hostage.gold, hostage.relation_specs, W0)
    reports = detect_ellipsis(hostage.gold, hostage.corpus.sources, W0)
    templates = load_templates(hostage.templates_path)
    graph = build_graph(hostage.gold, [r.key() for r in edges], W0)
    a = render_summary(graph, templates, reports)
    b = render_summary(graph, templates, reports)
    assert a == b


def test_every_instance_consumed_exactly_once_on_fixtures(football, hostage):
    for bundle in (football, hostage):
        edges = evaluate_relations(bundle.gold, bundle.relation_specs, W0)
        reports = detect_ellipsis(bundle.gold, bundle.corpus.sources, W0)
        templates = load_templates(bundle.templates_path)
        graph = build_graph(bundle.gold, [r.key() for r in edges], W0)
        result = render_summary(graph, templates, reports)
        consumed = [key for key, _ in result.coverage]
        assert len(consumed) == len(set(consumed)) == len(edges)
        for _, idx in result.coverage:
            assert 0 <= idx < len(result.sentences)


def test_collapse_keeps_distinct_argument_tuples(football):
    edges = evaluate_relations(football.gold, football.relation_specs, W0)
    templates = load_templates(football.templates_path)
    graph = build_graph(football.gold, [r.key() for r in edges], W0)
    result = render_summary(graph, templates)
    # every distinct value mentioned by a collapsed agreement appears somewhere
    sync_values = {r.left.args["value"] for r in edges if r.axis == "synchronic"}
    for value in sync_values:
        assert any(value in s for s in result.sentences)


def test_template_file_parsing(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text('# comment\ntemplate agreement: "A {left.x} B."\n')
    templates = load_templates(path)
    assert templates["agreement"].pattern == "A {left.x} B."


def test_template_file_syntax_error(tmp_path):
    from chronicle.errors import DslSyntaxError
    path = tmp_path / "t.txt"
    path.write_text("template agreement missing colon\n")
    with pytest.raises(DslSyntaxError):
        load_templates(path)


@pytest.mark.parametrize("seed", range(0, 80))
def test_chains_match_oracle(seed):
    messages, specs, window = random_trial(seed, max_messages=80)
    edges = [r for r in evaluate_relations(messages, specs, window)
             if r.axis == "diachronic"]
    rng = random.Random(seed)
    subset = [e for e in edges if rng.random() < 0.5]
    rng.shuffle(subset)
    for pool in (edges, subset):
        chains = []
        for name in sorted({e.name for e in pool}):
            part = sort_instances([e for e in pool if e.name == name])
            chains += [[part[i] for i in c] for c in _diachronic_chains(
                [(e.left.key(), e.right.key()) for e in part])]
        assert [[e.key() for e in c] for c in chains] == \
            [[e.key() for e in c] for c in chains_oracle(pool)]


def trial_templates(specs, messages):
    """Templates naming every field a sentence can draw on, so any change
    to which messages a sentence renders from shows in its text."""
    templates = {s.name: SummaryTemplate(
        s.name, s.name + " {date} {sources}: {left.source} {left.date} "
        "{left.type} {left.s0} -> {right.source} {right.date} {right.type} "
        "{right.s0}") for s in specs}
    templates["ellipsis"] = SummaryTemplate(
        "ellipsis", "only {source} {type} {date} {s0}; silent {silent}")
    for t in {m.msg_type for m in messages}:
        templates[f"lone-{t}"] = SummaryTemplate(
            f"lone-{t}", "lone {sources} {type} {date} {s0}")
    return templates


def outcome(render, *args):
    try:
        return render(*args)
    except ChronicleError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(0, 150))
def test_render_matches_oracle(seed):
    """The one-walk summarizer renders what the regroup-and-merge one did,
    with ellipsis reports, at every budget; a missing template or a
    duplicated edge fails the same way in both."""
    messages, specs, window = random_trial(seed)
    rng = random.Random(seed)
    edges = evaluate_relations(messages, specs, window)
    if edges and rng.random() < 0.1:
        edges.append(rng.choice(edges))
    reports = detect_ellipsis(messages, {m.source for m in messages}, window)
    templates = trial_templates(specs, messages)
    if rng.random() < 0.1:
        del templates[rng.choice(sorted(templates))]
    graph = build_graph(messages, [r.key() for r in edges], window)
    for budget in (None, 0, 1, 2):
        assert outcome(render_summary, graph, templates, reports, budget) == \
            outcome(render_summary_oracle, graph, templates, reports, budget)


PLACEHOLDER_KEYS = ["a", "b", "left.x", "right.x", "date", "s0", "nosuch", "a.", "0"]
LITERALS = ["", " ", "x", "{", "}", "{}", "{{", "}}", "{a b}", "{a-b}", "{ a}",
            "{left.x", "right.x}", "%s", "\\", "{0:>3}", "!r"]
VALUES = ["", "v", "{a}", "{}", "}{", "%s", "two words", "{0}"]


def random_pattern(rng):
    """A template pattern: placeholders, adjacent or not, between literal
    fragments that hold braces that are no placeholder."""
    parts = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.5:
            parts.append("{" + rng.choice(PLACEHOLDER_KEYS) + "}")
        else:
            parts.append(rng.choice(LITERALS))
    return "".join(parts)


@pytest.mark.parametrize("seed", range(0, 60))
def test_compiled_template_renders_as_substitution(seed):
    """A compiled template gives the text, or the unresolvable-placeholder
    error, that substituting each placeholder into the pattern gives."""
    rng = random.Random(seed)
    patterns = ["", "no placeholder at all", "{a}", "{a}{b}", "{a}{b}{a}",
                "{a} starts", "ends {b}", "{a b} and {} are text",
                "{{a}}", "{nosuch} first", "{a}{nosuch}"]
    patterns += [random_pattern(rng) for _ in range(40)]
    for pattern in patterns:
        ctx = {k: rng.choice(VALUES) for k in PLACEHOLDER_KEYS
               if k not in ("nosuch", "left.x", "right.x") and rng.random() < 0.8}
        assert outcome(_compile(pattern, "t"), ctx) == \
            outcome(_render, pattern, ctx, "t")


SIDE_KEYS = ["sources", "date", "left.x", "right.x", "left.0", "right.",
             "left.a.b", "right.type", "x", "0", "left", "sources.x"]


@pytest.mark.parametrize("seed", range(0, 60))
def test_compiled_pair_template_renders_as_substitution(seed):
    """A compiled relation template gives, from a sentence's own table of
    ``sources`` and ``date`` and its two message rows, the text or error
    that substituting into one context of ``sources``, ``date`` and the
    rows' keys prefixed ``left.`` and ``right.`` gives."""
    rng = random.Random(seed)
    keys = PLACEHOLDER_KEYS + SIDE_KEYS
    patterns = ["{left.x}{right.x}", "{sources} {date}", "{left.0}", "{right.}",
                "{left.x}{nosuch}{right.x}"]
    patterns += ["".join(rng.choice(["{" + rng.choice(keys) + "}",
                                     rng.choice(LITERALS)])
                         for _ in range(rng.randint(0, 6))) for _ in range(40)]
    for pattern in patterns:
        rows = [{k: rng.choice(VALUES) for k in ["x", "0", "a.b", "type", ""]
                 if rng.random() < 0.7} for _ in range(2)]
        sources, date = rng.choice(VALUES), rng.choice(VALUES)
        ctx = {"sources": sources, "date": date}
        for side, row in zip(("left", "right"), rows):
            ctx.update((f"{side}.{k}", v) for k, v in row.items())
        assert outcome(_compile(pattern, "t"), {"sources": sources, "date": date},
                       *rows) == outcome(_render, pattern, ctx, "t")


@pytest.mark.parametrize("seed", range(0, 60))
def test_graph_edges_follow_sort_instances_order(seed):
    """Edges sorted by their messages' positions in ``nodes`` come out in
    ``sort_instances`` order, whatever order they arrive in, also when
    messages of different documents share an anchor start."""
    messages, specs, window = random_trial(seed)
    rng = random.Random(seed)
    # the same anchor in another document of another source, sorting
    # before or after the original by doc_id
    twins = [m._replace(doc_id=rng.choice(["0-", "z-"]) + m.doc_id,
                        source=rng.choice([s for s in {"src0", "src1"}
                                           if s != m.source]))
             for m in rng.sample(messages, len(messages) // 3)]
    messages = messages + twins
    starts = [m.time.start for m in messages]
    assert len(set(starts)) < len(starts)
    edges = evaluate_relations(messages, specs, window)
    rng.shuffle(edges)
    rng.shuffle(messages)
    graph = build_graph(messages, [r.key() for r in edges], window)
    assert [(axis, name, graph.nodes[left].key(), graph.nodes[right].key())
            for axis, name, left, right in graph.edges] == \
        [e.key() for e in sort_instances(edges)]


@pytest.mark.parametrize("seed", range(0, 60))
def test_relations_artifact_reads_back_as_keys(tmp_path, seed):
    """``read_relations`` accepts every record ``write_relations`` writes,
    also those of symmetric rules between two message types, and gives back
    their instance keys in file order. With the lines shuffled, the graph
    built from what it reads is the graph built from the instances."""
    messages, specs, window = random_trial(seed)
    instances = evaluate_relations(messages, specs, window)
    keys = [r.key() for r in instances]
    path = tmp_path / "relations.jsonl"
    write_relations(instances, path)
    assert read_relations(path, messages, specs) == keys
    lines = path.read_text().splitlines(True)
    random.Random(seed).shuffle(lines)
    path.write_text("".join(lines))
    assert build_graph(messages, read_relations(path, messages, specs), window) == \
        build_graph(messages, keys, window)


def test_same_named_rules_admit_the_union_of_their_distances(tmp_path):
    """Rules that share a name and types admit every distance one of them
    admits; ``read_relations`` refuses a record at any other, naming its
    line and distance."""
    messages = [perf("s1", f"w{i}", day(i + 1), "good", report_index=i)
                for i in range(7)]
    specs = [POSITIVE, POSITIVE._replace(distance=("==", 3)),
             POSITIVE._replace(distance=(">=", 5))]
    path = tmp_path / "relations.jsonl"

    def record(right):
        return json.dumps({"axis": "diachronic", "distance": right,
                           "left": {"doc_id": "w0", "sentence_index": 0},
                           "name": "positive_graduation",
                           "right": {"doc_id": f"w{right}", "sentence_index": 0}},
                          sort_keys=True) + "\n"

    admitted = [1, 3, 5, 6]
    path.write_text("".join(map(record, admitted)))
    assert [key[3] for key in read_relations(path, messages, specs)] == \
        [(f"w{right}", 0) for right in admitted]
    for refused in (2, 4):
        path.write_text(record(1) + record(refused))
        with pytest.raises(MalformedRecord) as err:
            read_relations(path, messages, specs)
        assert str(err.value) == (
            f"{path}:2: no diachronic rule 'positive_graduation' relates a "
            f"'performance' message to a 'performance' one at distance {refused}")


@pytest.mark.parametrize("seed", range(0, 60))
def test_buckets_are_runs_of_the_time_order(seed):
    """The buckets, joined, are the messages in time order. So the bucket
    ``render_summary`` gives each node by its position is the one
    ``bucket_index_of`` finds by a scan: an ellipsis report naming that
    bucket renders, one naming the next bucket does not."""
    messages, _, window = random_trial(seed)
    buckets = bucket_messages(messages, window)
    assert [m for b in buckets for m in b] == sorted(messages, key=_message_sort_key)
    graph = build_graph(messages, [], window)
    templates = {"ellipsis": SummaryTemplate("ellipsis", "{source} {date}")}
    reports = [EllipsisReport(m, bucket_index_of(m, graph.buckets), ("elsewhere",))
               for m in graph.nodes]
    assert len(render_summary(graph, templates, reports).sentences) == len(messages)
    for i, rep in enumerate(reports):
        moved = rep._replace(bucket=rep.bucket + 1)
        with pytest.raises(ChronicleError, match="not its bucket"):
            render_summary(graph, templates, reports[:i] + [moved] + reports[i + 1:])
