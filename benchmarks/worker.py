"""Pipeline process of the benchmark: runs the CLI stages in one process.

    worker.py setup MANIFEST
        time ``import chronicle`` plus loading the manifest's domain.
    worker.py pipeline MANIFEST WORKDIR SECONDS
        run the five stages through ``chronicle.cli.main`` again and again
        until SECONDS have passed (at least three times).
    worker.py trace WORKDIR SECONDS MANIFEST_FULL MANIFEST_HALF MANIFEST_QUARTER
        per round: one untraced full-size pipeline, then traced pipelines at
        the three sizes; rounds repeat while SECONDS allow (at least one).

The result is one JSON object on standard output. The process starts no
thread or process of its own.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__" and len(sys.argv) > 1 and sys.argv[1] == "setup":
    # Timed from before chronicle is imported; nothing else loads it first.
    # The gauge imports only signal and time.
    import json as _json
    from reference import Gauge
    with open(sys.argv[2], encoding="utf-8") as _fh:
        _m = _json.load(_fh)
    sys.path.insert(0, SRC)

    def _setup():
        from chronicle.corpus import load_gazetteer, load_lexicon
        from chronicle.extract import load_trigger_rules
        from chronicle.ontology import (load_message_specs, load_ontology,
                                        load_relation_specs)
        from chronicle.summarize import load_templates
        from chronicle.temporal import load_grammar
        ontology = load_ontology(_m["spec"])
        messages = load_message_specs(_m["spec"], ontology)
        load_relation_specs(_m["spec"], messages, ontology)
        load_trigger_rules(_m["spec"], messages)
        load_lexicon(_m["lexicon"])
        load_gazetteer(_m["gazetteer"])
        load_templates(_m["templates"])
        load_grammar()

    _setup_s, _scaled_s = Gauge().around(_setup)
    print(_json.dumps({"setup_s": _setup_s, "scaled_s": _scaled_s}))
    sys.exit(0)

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from reference import Gauge  # noqa: E402

STAGES = ("ingest", "extract", "relate", "analyze", "summarize")
# Artifact -> the stage that writes it.
ARTIFACTS = {
    "corpus.jsonl": "ingest",
    "messages.jsonl": "extract",
    "relations.jsonl": "relate",
    "ellipsis.jsonl": "relate",
    "evolution.json": "analyze",
    "plot.csv": "analyze",
    "summary.txt": "summarize",
    "coverage.json": "summarize",
}
MIN_PIPELINES = 3


def load_manifest(path: str) -> dict:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stage_argv(m: dict, out: Path) -> list[tuple[str, list[str]]]:
    o = str(out)
    return [
        ("ingest", ["ingest", "--corpus", m["corpus"], "--lexicon", m["lexicon"],
                    "--gazetteer", m["gazetteer"], "--out-dir", o]),
        ("extract", ["extract", "--ontology", m["spec"], "--out-dir", o]),
        ("relate", ["relate", "--ontology", m["spec"], "--window", m["window"],
                    "--out-dir", o]),
        ("analyze", ["analyze", "--out-dir", o]),
        ("summarize", ["summarize", "--ontology", m["spec"], "--templates",
                       m["templates"], "--window", m["window"],
                       "--out", str(out / "summary.txt"), "--out-dir", o]),
    ]


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_pipeline(m: dict, out: Path, tracer=None) -> dict:
    """One pass of the five stages into a fresh ``out``. A stage that exits
    nonzero or raises stops the pass; later stages are not run. Stage times
    are filled in by ``settle`` once the gauge has sampled past the pass."""
    from chronicle import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    stages: dict[str, dict] = {}
    for name, argv in stage_argv(m, out):
        main = cli.main if tracer is None else tracer.span(f"cli.{name}", cli.main)
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        stages[name] = {"start": start, "end": time.perf_counter(), "rc": rc}
        if rc != 0:
            break
    return {"stages": stages, "hashes": {a: sha256(out / a) for a in ARTIFACTS}}


def settle(run: dict, gauge: Gauge) -> dict:
    """Give each stage of a pass its wall time net of reference pieces
    (``s``) and that time scaled to the reference speed (``scaled_s``)."""
    gross = 0.0
    for stage in run["stages"].values():
        start, end = stage.pop("start"), stage.pop("end")
        gross += end - start
        stage["s"], stage["scaled_s"] = gauge.measure(start, end)
    run["pipeline_s"] = sum(s["s"] for s in run["stages"].values())
    run["scaled_s"] = sum(s["scaled_s"] for s in run["stages"].values())
    if "span_times" in run:
        # Span times include the pieces that ran inside them, so they are
        # scaled by the pass's scaled over gross time.
        factor = run["scaled_s"] / gross
        run["layers"].update({name: t * factor
                              for name, t in run.pop("span_times").items()})
    return run


def cmd_pipeline(manifest_path: str, workdir: str, seconds: float) -> dict:
    m = load_manifest(manifest_path)
    import chronicle.cli  # noqa: F401  (import cost is set-up, not stage time)

    out = Path(workdir) / "out"
    runs = []
    gauge = Gauge()

    def loop():
        began = time.perf_counter()
        while True:
            runs.append(run_pipeline(m, out))
            elapsed = time.perf_counter() - began
            if len(runs) >= MIN_PIPELINES and elapsed * (len(runs) + 1) / len(runs) > seconds:
                break

    gauge.around(loop)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"runs": [settle(r, gauge) for r in runs], "peak_rss_mb": peak_kb / 1024,
            "out": str(out), "piece_s": statistics.median(e - s for s, e in gauge.pieces)}


def _chronicle_modules():
    from chronicle import (cli, corpus, evolution, extract, ontology,
                           relations, summarize, temporal)
    return SimpleNamespace(cli=cli, corpus=corpus, evolution=evolution,
                           extract=extract, ontology=ontology,
                           relations=relations, summarize=summarize,
                           temporal=temporal)


def _trend_sentences(coverage_path: Path) -> int:
    """Sentences that consume more than one diachronic relation instance."""
    with open(coverage_path, encoding="utf-8") as fh:
        consumed = json.load(fh)["consumed"]
    per_sentence: dict[int, int] = {}
    for c in consumed:
        if c["relation"].startswith("diachronic|"):
            per_sentence[c["sentence"]] = per_sentence.get(c["sentence"], 0) + 1
    return sum(1 for n in per_sentence.values() if n > 1)


def traced_layers(tracer, out: Path, with_pairs: bool) -> tuple[dict, dict]:
    """Span times and the other per-layer figures of one traced pipeline."""
    from chronicle import relations

    counts = dict(tracer.counts)
    times = {f"{name}_s": t for name, t in tracer.totals().items()}
    times.update({f"{name}.self_s": t for name, t in tracer.self_times().items()})
    figures = dict(counts)
    typed = counts.get("extract.typed_sentences", 0)
    figures["extract.yield"] = counts.get("extract.messages", 0) / typed if typed else 0.0
    calls = counts.get("temporal.resolve_calls", 0)
    figures["temporal.resolved_frac"] = counts.get("temporal.resolved", 0) / calls if calls else 0.0
    figures["corpus.artifact_bytes"] = (out / "corpus.jsonl").stat().st_size
    if (out / "coverage.json").is_file():
        figures["summarize.trend_sentences"] = _trend_sentences(out / "coverage.json")
    if with_pairs and "relations.evaluate" in tracer.captured:
        # Outside every span: the candidate sets of the two axes, as the
        # library defines them.
        messages, _, window = tracer.captured["relations.evaluate"]
        pairs = (len(relations.synchronic_pairs(messages, window))
                 + len(relations.diachronic_pairs(messages)))
        figures["relations.candidate_pairs"] = pairs
        instances = counts.get("relations.sync_instances", 0) + counts.get("relations.dia_instances", 0)
        figures["relations.yield"] = instances / pairs if pairs else 0.0
    return times, figures


def cmd_trace(workdir: str, seconds: float, manifest_paths: list[str]) -> dict:
    from spans import Tracer

    manifests = [load_manifest(p) for p in manifest_paths]
    modules = _chronicle_modules()
    tracer = Tracer()
    gauge = Gauge()
    rounds = []

    def loop():
        began = time.perf_counter()
        while True:
            untraced = run_pipeline(manifests[0], Path(workdir) / "untraced")
            sizes = []
            tracer.install(modules)
            try:
                for k, m in enumerate(manifests):
                    out = Path(workdir) / f"traced-{k}"
                    tracer.reset()
                    run = run_pipeline(m, out, tracer)
                    run["span_times"], run["layers"] = traced_layers(
                        tracer, out, with_pairs=not rounds and k == 0)
                    tracer.write(Path(workdir) / f"spans-{k}.jsonl")
                    sizes.append(run)
            finally:
                tracer.uninstall()
            rounds.append({"untraced": untraced, "sizes": sizes})
            elapsed = time.perf_counter() - began
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break

    gauge.around(loop)
    for r in rounds:
        settle(r["untraced"], gauge)
        for run in r["sizes"]:
            settle(run, gauge)
    return {"rounds": rounds}


def main(argv: list[str]) -> int:
    cmd = argv[0]
    if cmd == "pipeline":
        result = cmd_pipeline(argv[1], argv[2], float(argv[3]))
    elif cmd == "trace":
        result = cmd_trace(argv[1], float(argv[2]), argv[3:])
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    os.environ.setdefault("CHRONICLE_LOG", "WARNING")
    sys.exit(main(sys.argv[1:]))
