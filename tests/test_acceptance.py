"""Acceptance suite: one test per shipped criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest

from chronicle import cli
from chronicle.corpus import Sentence, tokenize
from chronicle.errors import MissingTemplate
from chronicle.evolution import (StreamParams, analyze_corpus, generate_stream)
from chronicle.extract import (extract_corpus, load_gold_messages,
                               load_trigger_rules, train_classifier)
from chronicle.relations import (WindowPolicy, brute_force_oracle,
                                 detect_ellipsis, evaluate_relations, time_order)
from chronicle.summarize import build_graph, load_templates, render_summary
from chronicle.temporal import TimeAnchor, find_temporal_expressions, message_time, resolve

from tests.conftest import FIXTURES
from tests.oracles import anchors_compatible, message_problem_oracle, posteriors
from tests.test_relations import random_trial

UTC = timezone.utc
W0 = WindowPolicy(timedelta(0))


def ok(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


# ---------------------------------------------------------------------------
# 1. Relation-condition faithfulness on the four worked scenarios

def test_criterion_1_relation_condition_faithfulness(football, hostage):
    started = time.monotonic()

    fb_corpus = _ingest_scenario("football_corpus.jsonl")
    fb_gold = load_gold_messages(FIXTURES / "scenarios" / "football_gold.jsonl",
                                 football.message_specs, football.ontology,
                                 fb_corpus)
    fb = evaluate_relations(fb_gold, football.relation_specs, W0)
    assert {r.key() for r in fb} == {
        ("synchronic", "agreement", ("alpha-post-3", 0), ("beta-herald-1", 0)),
        ("synchronic", "agreement", ("beta-herald-1", 0), ("alpha-post-3", 0)),
        ("diachronic", "positive_graduation", ("alpha-post-1", 0),
         ("alpha-post-2", 0)),
    }
    grad = [r for r in fb if r.name == "positive_graduation"][0]
    assert grad.distance == 1
    assert grad.left.args["value"] == "poor" and grad.right.args["value"] == "good"

    hz_corpus = _ingest_scenario("hostage_corpus.jsonl")
    hz_gold = load_gold_messages(FIXTURES / "scenarios" / "hostage_gold.jsonl",
                                 hostage.message_specs, hostage.ontology,
                                 hz_corpus)
    # the re-anchored message: document published 09-05, anchor 09-03
    reanchored = [m for m in hz_gold if m.doc_id == "wire-d-1"][0]
    assert reanchored.time == TimeAnchor.from_string("2004-09-03")
    hz = evaluate_relations(hz_gold, hostage.relation_specs, W0)
    assert {r.key() for r in hz} == {
        ("synchronic", "agreement", ("wire-c-2", 0), ("wire-d-1", 0)),
        ("synchronic", "agreement", ("wire-d-1", 0), ("wire-c-2", 0)),
        ("diachronic", "termination", ("wire-c-1", 0), ("wire-c-3", 0)),
    }
    term = [r for r in hz if r.name == "termination"][0]
    assert term.distance >= 2

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok("1 (relation-condition faithfulness)")


def _ingest_scenario(name):
    from chronicle.corpus import load_corpus
    return load_corpus(FIXTURES / "scenarios" / name)


# ---------------------------------------------------------------------------
# 2. Oracle equivalence on >= 1000 randomized trials

def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    mismatches = 0
    trials = 0
    for seed in range(950):
        messages, specs, window = random_trial(seed, max_messages=40)
        engine = {r.key() for r in evaluate_relations(messages, specs, window)}
        oracle = {r.key() for r in brute_force_oracle(messages, specs, window)}
        trials += 1
        if engine != oracle:
            mismatches += 1
    for seed in range(10_000, 10_050):
        messages, specs, window = random_trial(seed, max_messages=200)
        engine = {r.key() for r in evaluate_relations(messages, specs, window)}
        oracle = {r.key() for r in brute_force_oracle(messages, specs, window)}
        trials += 1
        if engine != oracle:
            mismatches += 1
    elapsed = time.monotonic() - started
    assert trials >= 1000
    assert mismatches == 0
    assert elapsed < 60.0
    ok(f"2 (oracle equivalence, {trials} trials, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Axis invariants and window monotonicity

def test_criterion_3_axis_invariants(football, hostage):
    violations = 0

    def check(instances, window):
        nonlocal violations
        for r in instances:
            if r.axis == "synchronic":
                if r.left.source == r.right.source:
                    violations += 1
                if not anchors_compatible(r.left.time, r.right.time, window):
                    violations += 1
            else:
                if r.left.source != r.right.source:
                    violations += 1
                if not r.left.time.start < r.right.time.start:
                    violations += 1

    for bundle in (football, hostage):
        check(evaluate_relations(bundle.gold, bundle.relation_specs, W0), W0)
    widths = [timedelta(0), timedelta(days=1), timedelta(days=2),
              timedelta(days=7)]
    for seed in range(120):
        messages, specs, _ = random_trial(seed, max_messages=40)
        previous_sync: set = set()
        for width in widths:
            window = WindowPolicy(width)
            instances = evaluate_relations(messages, specs, window)
            check(instances, window)
            sync = {r.key() for r in instances if r.axis == "synchronic"}
            if not previous_sync <= sync:
                violations += 1
            previous_sync = sync
    assert violations == 0
    ok("3 (axis invariants + window monotonicity)")


# ---------------------------------------------------------------------------
# 4. Temporal resolution vectors (30 hand-computed calendar answers)

# September 2004 starts on a Wednesday; 2004-09-10 is a Friday.
VECTORS = [
    ("today", (2004, 9, 10), "2004-09-10"),
    ("yesterday", (2004, 9, 10), "2004-09-09"),
    ("tomorrow", (2004, 9, 10), "2004-09-11"),
    ("yesterday", (2004, 9, 1), "2004-08-31"),
    ("tomorrow", (2004, 9, 30), "2004-10-01"),
    ("2 days ago", (2004, 9, 10), "2004-09-08"),
    ("7 days ago", (2004, 9, 10), "2004-09-03"),
    ("10 days ago", (2004, 9, 5), "2004-08-26"),
    ("1 day ago", (2004, 9, 10), "2004-09-09"),
    ("3 weeks ago", (2004, 9, 22), "2004-09-01"),
    ("1 week ago", (2004, 9, 8), "2004-09-01"),
    ("2 weeks ago", (2004, 9, 10), "2004-08-27"),
    ("21 September 2004", (2004, 9, 25), "2004-09-21"),
    ("3 August 2004", (2004, 9, 10), "2004-08-03"),
    ("29 February 2004", (2004, 9, 10), "2004-02-29"),
    ("2004-09-09", (2004, 9, 10), "2004-09-09"),
    ("2004-12-31", (2004, 9, 10), "2004-12-31"),
    ("1 January 2005", (2004, 9, 10), "2005-01-01"),
    ("last Tuesday", (2004, 9, 10), "2004-09-07"),
    ("last Friday", (2004, 9, 10), "2004-09-03"),
    ("last Sunday", (2004, 9, 13), "2004-09-12"),
    ("last Monday", (2004, 9, 13), "2004-09-06"),
    ("next Tuesday", (2004, 9, 10), "2004-09-14"),
    ("next Friday", (2004, 9, 10), "2004-09-17"),
    ("next Saturday", (2004, 9, 10), "2004-09-11"),
    ("on Thursday", (2004, 9, 10), "2004-09-09"),
    ("on Friday", (2004, 9, 10), "2004-09-10"),
    ("on Saturday", (2004, 9, 10), "2004-09-04"),
    ("on Monday", (2004, 9, 8), "2004-09-06"),
    ("on Wednesday", (2004, 9, 1), "2004-09-01"),
]


def test_criterion_4_temporal_vectors():
    assert len(VECTORS) == 30
    exact = 0
    for text, (y, m, d), expected in VECTORS:
        sentence = Sentence(index=0, text=f"it happened {text} according to all",
                            tokens=tokenize(f"it happened {text} according to all"))
        publish = datetime(y, m, d, 8, 30, tzinfo=UTC)
        exprs = find_temporal_expressions(sentence)
        assert exprs, text
        anchor = resolve(exprs[0], publish)
        assert anchor.kind == "day"
        if anchor.to_string() == expected:
            exact += 1
    assert exact == 30
    # fallback: expressionless sentences anchor to the publication day
    bare = Sentence(index=0, text="talks resume", tokens=tokenize("talks resume"))
    publish = datetime(2004, 9, 10, 8, 30, tzinfo=UTC)
    assert message_time(bare, publish) == TimeAnchor.day(datetime(2004, 9, 10))
    ok("4 (temporal vectors 30/30 + fallback)")


# ---------------------------------------------------------------------------
# 5. Evolution round-trip over 200 seeded trials + the two shipped fixtures

def test_criterion_5_evolution_round_trip(football, hostage):
    started = time.monotonic()
    failures = 0
    for seed in range(100):
        rng = random.Random(seed)
        jitter = rng.uniform(0.0, 0.02)
        period = timedelta(hours=rng.choice([24, 72, 168]))
        params = StreamParams(seed=seed, jitter=jitter, period=period)
        corpus = generate_stream("linear", rng.randint(1, 3), params,
                                 horizon=rng.choice([9, 13, 25]))
        report = analyze_corpus(corpus)
        if report.linearity != "linear":
            failures += 1
            continue
        recovered = report.model.period
        if abs(recovered - period) > 0.02 * period:
            failures += 1
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        params = StreamParams(seed=seed,
                              intra_burst_gap=timedelta(hours=rng.randint(2, 8)),
                              inter_burst_gap=timedelta(days=rng.randint(3, 6)))
        corpus = generate_stream("non-linear", rng.randint(1, 5), params,
                                 horizon=rng.randint(6, 14))
        if analyze_corpus(corpus).linearity != "non-linear":
            failures += 1
    assert analyze_corpus(football.corpus).emission == "synchronous"
    hz = analyze_corpus(hostage.corpus)
    assert hz.emission == "asynchronous"
    assert hz.profile.first_report_lags()["late_wire"] == timedelta(days=12)
    assert sorted(len(ts) for _, ts in hz.profile.reports) == [5, 6, 7, 9, 12]
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 10.0
    ok(f"5 (evolution round-trip, 200 trials, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6. Extraction determinism/validity + classifier posteriors

def test_criterion_6_extraction_and_classifier(hostage):
    rules = load_trigger_rules(hostage.spec_path, hostage.message_specs)
    runs = [extract_corpus(hostage.corpus, hostage.message_specs,
                           hostage.ontology, rules) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]
    for message in runs[0]:
        assert message_problem_oracle(message, hostage.message_specs,
                                      hostage.ontology) is None

    def s(text):
        return Sentence(index=0, text=text, tokens=tokenize(text))

    train = [
        (s("officials negotiate tonight"), "negotiate"),
        (s("envoys negotiate quietly"), "negotiate"),
        (s("ministers negotiate again"), "negotiate"),
        (s("gunmen seize compound"), "start"),
        (s("rebels seize embassy"), "start"),
        (s("attackers seize station"), "start"),
    ]
    model = train_classifier(train, type_order=["negotiate", "start"])
    got = posteriors(model, s("gunmen seize again"))
    # by hand: priors 3/6; add-one smoothing over 9 tokens/class, |V| = 14:
    #   negotiate ~ 1/2 * 1/23 * 1/23 * 2/23, start ~ 1/2 * 2/23 * 4/23 * 1/23
    p_neg = Fraction(1, 2) * Fraction(1, 23) * Fraction(1, 23) * Fraction(2, 23)
    p_start = Fraction(1, 2) * Fraction(2, 23) * Fraction(4, 23) * Fraction(1, 23)
    expected_start = p_start / (p_neg + p_start)
    assert expected_start == Fraction(4, 5)
    assert abs(got["start"] - 0.800000) < 1e-6
    assert abs(got["negotiate"] - 0.200000) < 1e-6
    ok("6 (extraction determinism/validity + classifier posteriors)")


# ---------------------------------------------------------------------------
# 7. Summary coverage, determinism, missing-template failure

def test_criterion_7_summary_coverage(football, hostage):
    for bundle in (football, hostage):
        edges = evaluate_relations(bundle.gold, bundle.relation_specs, W0)
        reports = detect_ellipsis(bundle.gold, bundle.corpus.sources, W0)
        templates = load_templates(bundle.templates_path)
        graph = build_graph(time_order(bundle.gold, W0), bundle.relation_specs)
        first = render_summary(graph, templates, reports)
        second = render_summary(graph, templates, reports)
        assert first.text.encode() == second.text.encode()
        consumed = [key for key, _ in first.coverage]
        assert len(consumed) == len(set(consumed)) == len(edges)
        broken = dict(templates)
        victim = sorted({e.name for e in edges})[0]
        del broken[victim]
        with pytest.raises(MissingTemplate) as err:
            render_summary(graph, broken, reports)
        assert err.value.name == victim
    ok("7 (summary coverage exact + deterministic + missing-template)")


# ---------------------------------------------------------------------------
# 8. End-to-end smoke on both shipped domains

ARTIFACTS = ["corpus.jsonl", "messages.jsonl", "relations.jsonl",
             "ellipsis.jsonl", "evolution.json", "plot.csv", "summary.txt",
             "coverage.json"]


def _pipeline(domain, out_dir):
    root = FIXTURES / domain
    steps = [
        ["ingest", "--corpus", root / "corpus.jsonl",
         "--lexicon", root / "lexicon.tsv",
         "--gazetteer", root / "gazetteer.tsv", "--out-dir", out_dir],
        ["extract", "--ontology", root / "domain.spec", "--mode", "gold",
         "--gold", root / "gold_messages.jsonl", "--out-dir", out_dir],
        ["relate", "--ontology", root / "domain.spec", "--window", "0",
         "--out-dir", out_dir],
        ["analyze", "--out-dir", out_dir],
        ["summarize", "--ontology", root / "domain.spec",
         "--templates", root / "templates.txt", "--window", "0",
         "--out", out_dir / "summary.txt", "--out-dir", out_dir],
    ]
    for step in steps:
        assert cli.main([str(a) for a in step]) == 0
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


def test_criterion_8_end_to_end_smoke(tmp_path):
    started = time.monotonic()
    for domain in ("football", "hostage"):
        first = _pipeline(domain, tmp_path / domain / "run1")
        second = _pipeline(domain, tmp_path / domain / "run2")
        assert first == second
        assert first["summary.txt"]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    ok(f"8 (end-to-end smoke, {elapsed:.1f}s)")
