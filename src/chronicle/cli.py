"""Pipeline command line: one subcommand per stage, artifacts on disk.

Every stage reads and writes only its declared artifacts inside --out-dir,
so stages can be rerun and diffed in isolation. Outputs are byte-stable
given identical inputs and seeds. Failures, a command line the parser
rejects among them, exit 2 with one machine-readable JSON error object on
stderr; ``--help`` prints its text and exits 0. The CHRONICLE_LOG
environment variable (DEBUG/INFO/WARNING/ERROR) controls diagnostics.

Each subcommand imports the stage modules it needs when it runs, so
``chronicle ingest`` loads none of extraction, relations, evolution and
the summarizer. The domain loaders stay attributes of this module, where
``benchmarks/spans.py`` wraps them.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import timedelta
from functools import cache
from pathlib import Path

from . import corpus as corpus_mod
from .corpus import parse_duration
from .errors import (ChronicleError, MalformedRecord, UnknownMessageType,
                     UsageError)
from .ontology import (ParsedSpec, load_message_specs, load_ontology,
                       load_relation_specs)

log = logging.getLogger("chronicle.cli")

CORPUS_ARTIFACT = "corpus.jsonl"
MESSAGES_ARTIFACT = "messages.jsonl"
RELATIONS_ARTIFACT = "relations.jsonl"
ELLIPSIS_ARTIFACT = "ellipsis.jsonl"
EVOLUTION_ARTIFACT = "evolution.json"
PLOT_ARTIFACT = "plot.csv"
SUMMARY_ARTIFACT = "summary.txt"
COVERAGE_ARTIFACT = "coverage.json"
SIMULATED_ARTIFACT = "simulated.jsonl"


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_domain(args):
    """Ontology, message specs, relation specs and the parsed domain file,
    from one parse of that file."""
    spec = ParsedSpec(args.ontology)
    ontology = load_ontology(spec)
    message_specs = load_message_specs(spec, ontology)
    relation_specs = load_relation_specs(spec, message_specs, ontology)
    return ontology, message_specs, relation_specs, spec


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    lexicon = corpus_mod.load_lexicon(args.lexicon) if args.lexicon else None
    gazetteer = corpus_mod.load_gazetteer(args.gazetteer) if args.gazetteer else None
    corpus = corpus_mod.load_corpus(args.corpus, lexicon=lexicon,
                                    gazetteer=gazetteer)
    corpus_mod.write_corpus_artifact(corpus, out / CORPUS_ARTIFACT)
    log.info("ingested %d documents from %d sources",
             len(corpus.documents), len(corpus.sources))
    return 0


def _read_training(path: str, lexicon, gazetteer, types: list[str]):
    """(sentence, label) per training record; a label is one of the
    domain's message ``types`` or null."""
    phrases = corpus_mod.PhraseIndex(gazetteer.items()) if gazetteer else None
    labeled = []
    for ln, rec in corpus_mod.read_records(path):
        text, label = rec.get("text"), rec.get("type")
        if not isinstance(text, str):
            raise MalformedRecord("text must be a string", path, ln)
        if label is not None and not isinstance(label, str):
            raise MalformedRecord("type must be a string or null", path, ln)
        if label is not None and label not in types:
            raise UnknownMessageType(f"unknown message type {label!r}", path, ln)
        tokens = corpus_mod.tokenize(text, lexicon, phrases)
        sentence = corpus_mod.Sentence(index=0, text=text, tokens=tokens)
        labeled.append((sentence, label))
    return labeled


def cmd_extract(args) -> int:
    from . import extract as extract_mod

    out = _out_dir(args)
    ontology, message_specs, _, specs = _load_domain(args)
    # gold messages are checked against sentence counts, never tokens
    corpus = corpus_mod.read_corpus_artifact(out / CORPUS_ARTIFACT,
                                             tokens=args.mode != "gold")
    if args.mode == "gold":
        if not args.gold:
            raise ChronicleError("--mode gold requires --gold <messages file>")
        messages = extract_mod.load_gold_messages(
            args.gold, message_specs, ontology, corpus)
    else:
        rules = extract_mod.load_trigger_rules(specs, message_specs)
        model = None
        if args.mode == "statistical":
            if not args.train:
                raise ChronicleError("--mode statistical requires --train")
            lexicon = corpus_mod.load_lexicon(args.lexicon) if args.lexicon else None
            gazetteer = (corpus_mod.load_gazetteer(args.gazetteer)
                         if args.gazetteer else None)
            types = [m.name for m in message_specs]
            labeled = _read_training(args.train, lexicon, gazetteer, types)
            model = extract_mod.train_classifier(labeled, type_order=types)
        messages = extract_mod.extract_corpus(corpus, message_specs, ontology,
                                              rules, model)
    extract_mod.write_messages(messages, out / MESSAGES_ARTIFACT)
    log.info("extracted %d messages", len(messages))
    return 0


def cmd_relate(args) -> int:
    from . import extract as extract_mod
    from . import relations as relations_mod

    out = _out_dir(args)
    ontology, message_specs, relation_specs, _ = _load_domain(args)
    corpus = corpus_mod.read_corpus_artifact(out / CORPUS_ARTIFACT, tokens=False)
    messages = extract_mod.load_gold_messages(
        out / MESSAGES_ARTIFACT, message_specs, ontology, corpus)
    window = relations_mod.parse_window(args.window)
    instances = relations_mod.evaluate_relations(messages, relation_specs, window)
    relations_mod.write_relations(instances, out / RELATIONS_ARTIFACT)
    reports = relations_mod.detect_ellipsis(messages, corpus.sources, window)
    relations_mod.write_ellipsis(reports, out / ELLIPSIS_ARTIFACT)
    log.info("emitted %d relation instances, %d ellipsis reports",
             len(instances), len(reports))
    return 0


def cmd_analyze(args) -> int:
    from . import evolution as evolution_mod

    out = _out_dir(args)
    corpus = corpus_mod.read_corpus_artifact(out / CORPUS_ARTIFACT, tokens=False)
    # only the flags given: analyze_corpus states the other defaults
    given = {}
    if args.residual_threshold is not None:
        given["residual_threshold"] = args.residual_threshold
    if args.emission_tolerance is not None:
        given["alignment_tolerance"] = parse_duration(args.emission_tolerance)
    report = evolution_mod.analyze_corpus(corpus, **given)
    with open(out / EVOLUTION_ARTIFACT, "w", encoding="utf-8") as fh:
        json.dump(evolution_mod.report_to_json(report), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    with open(out / PLOT_ARTIFACT, "w", encoding="utf-8") as fh:
        fh.write(evolution_mod.plot_data_csv(corpus))
    log.info("event is %s with %s emission", report.linearity, report.emission)
    return 0


def cmd_summarize(args) -> int:
    from . import extract as extract_mod
    from . import relations as relations_mod
    from . import summarize as summarize_mod

    out = _out_dir(args)
    ontology, message_specs, relation_specs, _ = _load_domain(args)
    corpus = corpus_mod.read_corpus_artifact(out / CORPUS_ARTIFACT, tokens=False)
    messages = extract_mod.load_gold_messages(
        out / MESSAGES_ARTIFACT, message_specs, ontology, corpus)
    order = relations_mod.time_order(messages, relations_mod.parse_window(args.window))
    templates = summarize_mod.load_templates(args.templates)
    graph = summarize_mod.build_graph(order, relation_specs)
    # the core, not detect_ellipsis: relate calls that one, and a tracer
    # wrapping it would count each report once per stage
    reports = relations_mod.ellipsis_reports(order, corpus.sources)
    result = summarize_mod.render_summary(graph, templates, reports,
                                          bucket_budget=args.bucket_budget)
    target = Path(args.out) if args.out else out / SUMMARY_ARTIFACT
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(result.text)
    summarize_mod.write_coverage(result, out / COVERAGE_ARTIFACT)
    if not args.out:
        sys.stdout.write(result.text)
    return 0


def cmd_simulate(args) -> int:
    from . import evolution as evolution_mod

    out = _out_dir(args)
    # only the flags given: StreamParams states the other defaults
    given = ((args.seed, "seed", int), (args.period, "period", parse_duration),
             (args.jitter, "jitter", float),
             (args.offsets, "source_offsets", lambda text: _offsets(text, args.sources)),
             (args.intra_gap, "intra_burst_gap", parse_duration),
             (args.inter_gap, "inter_burst_gap", parse_duration))
    fields = {field: read(value) for value, field, read in given if value is not None}
    if args.burst_min is not None or args.burst_max is not None:
        low, high = evolution_mod.StreamParams().burst_size
        fields["burst_size"] = (low if args.burst_min is None else args.burst_min,
                                high if args.burst_max is None else args.burst_max)
    params = evolution_mod.StreamParams(**fields)
    corpus = evolution_mod.generate_stream(args.kind, args.sources, params,
                                           args.horizon)
    target = Path(args.out) if args.out else out / SIMULATED_ARTIFACT
    evolution_mod.write_stream(corpus, target)
    log.info("simulated %d documents", len(corpus.documents))
    return 0


def _offsets(text: str, sources: int) -> tuple[int, ...]:
    """``--offsets``: comma-separated whole minutes that a ``timedelta``
    holds, at most one per source."""
    if not text:
        return ()
    offsets = []
    for field in text.split(","):
        try:
            minutes = int(field)
            timedelta(minutes=minutes)
        except ValueError:
            raise ValueError(f"--offsets: {field!r} is not a whole number of minutes") \
                from None
        except OverflowError:
            raise ValueError(f"--offsets: {minutes} minutes is more than a timedelta holds") \
                from None
        offsets.append(minutes)
    if len(offsets) > sources:
        raise ValueError(f"--offsets gives {len(offsets)} offsets for {sources} sources")
    return tuple(offsets)


def cmd_validate(args) -> int:
    from . import extract as extract_mod

    ontology, message_specs, relation_specs, specs = _load_domain(args)
    triggers = extract_mod.load_trigger_rules(specs, message_specs)
    diagnostics = {
        "ok": True,
        "concepts": len(ontology.concepts),
        "instances": len(ontology.instances),
        "scales": len(ontology.ordered_scales),
        "message_types": sorted(m.name for m in message_specs),
        "relations": sorted({r.name for r in relation_specs}),
        "triggers": len(triggers),
    }
    if args.templates:
        from . import summarize as summarize_mod

        diagnostics["templates"] = len(summarize_mod.load_templates(args.templates))
    json.dump(diagnostics, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError naming its
    subcommand, where argparse prints usage text and exits. Subcommand
    parsers are of the same class."""

    def __init__(self, *args, stage: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.stage = stage

    def error(self, message: str):
        raise UsageError(message, self.stage)


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` leaves the parser unchanged."""
    parser = _Parser(
        prog="chronicle",
        description="Summarize events evolving across multiple news sources.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stage(name: str, help: str) -> _Parser:
        return sub.add_parser(name, stage=name, help=help)

    def add_domain_flags(p):
        p.add_argument("--ontology", required=True,
                       help="domain spec file: ontology, messages, relations, triggers")

    p = add_stage("ingest", "load a raw corpus into the canonical model")
    p.add_argument("--corpus", required=True, help="raw jsonl-v1 corpus file")
    p.add_argument("--lexicon", help="surface<TAB>lemma table")
    p.add_argument("--gazetteer", help="surface<TAB>NE-label table")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ingest)

    p = add_stage("extract", "extract messages from the corpus artifact")
    add_domain_flags(p)
    p.add_argument("--mode", choices=["rules", "statistical", "gold"],
                   default="rules")
    p.add_argument("--gold", help="gold messages file (mode gold)")
    p.add_argument("--train", help="labeled sentences jsonl (mode statistical)")
    p.add_argument("--lexicon")
    p.add_argument("--gazetteer")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_extract)

    p = add_stage("relate", "evaluate relation rules over messages")
    add_domain_flags(p)
    p.add_argument("--window", required=True,
                   help="synchronic window width (0, 12h, 2d, 90m)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_relate)

    p = add_stage("analyze", "classify evolution and emission")
    p.add_argument("--residual-threshold", type=float)
    p.add_argument("--emission-tolerance")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_analyze)

    p = add_stage("summarize", "render the relation-driven summary")
    add_domain_flags(p)
    p.add_argument("--templates", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--bucket-budget", type=int, default=None)
    p.add_argument("--out", help="write the summary here instead of stdout")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_summarize)

    p = add_stage("simulate", "generate a synthetic corpus")
    p.add_argument("--kind", choices=["linear", "non-linear"], required=True)
    p.add_argument("--sources", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=int, default=10,
                   help="reports per source")
    p.add_argument("--period")
    p.add_argument("--jitter", type=float)
    p.add_argument("--offsets", help="per-source offsets in minutes, comma-separated")
    p.add_argument("--intra-gap")
    p.add_argument("--inter-gap")
    p.add_argument("--burst-min", type=int)
    p.add_argument("--burst-max", type=int)
    p.add_argument("--out", help="write the corpus here")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = add_stage("validate", "check domain spec files")
    add_domain_flags(p)
    p.add_argument("--templates")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CHRONICLE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s")
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # the message parse_args gives, with the subcommand named
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}",
                             args.command)
    except UsageError as exc:
        return _failed(exc.stage, exc)
    try:
        return args.func(args)
    except (ChronicleError, OSError, ValueError, OverflowError) as exc:
        return _failed(args.command, exc)


def _failed(stage: str | None, exc: Exception) -> int:
    """Report a failure as one JSON line on stderr; the exit code is 2."""
    json.dump({"stage": stage, "error": type(exc).__name__, "detail": str(exc)},
              sys.stderr)
    sys.stderr.write("\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
