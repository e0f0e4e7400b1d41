"""The chronicle benchmark: stage and pipeline times on generated workloads.

    python3 benchmarks/run.py --workload relate-dense --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload is generated from the seed,
then a separate pipeline process runs ingest, extract, relate, analyze and
summarize through ``chronicle.cli.main``, one pipeline at a time, for
``--seconds``. Every pass is checked (see ``checks.py``) and every
artifact's sha256 must repeat across passes and across runs of the same
workload and seed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the traced pipeline at full, half and quarter size and
reports the per-layer metrics. The last line of standard output is the
result as JSON; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_outputs, extract_f1  # noqa: E402
from generate import WORKLOADS, ensure_chronicle, generate  # noqa: E402
from reference import REF_S  # noqa: E402
from worker import ARTIFACTS, STAGES, sha256  # noqa: E402

WORK_DIR = ".bench_work"
SETUP_PROBES = 11
SIZES = (1.0, 0.5, 0.25)
DEADLINE_S = 170
INPUT_FILES = ("corpus", "gold", "spec", "templates", "lexicon", "gazetteer")

WORKLOAD_WHY = {
    "relate-dense": "few hostage incidents echoed by 4 asynchronous bursty sources: "
                    "relation rules, ellipsis and summary chains do the work",
    "lexicon-wide": "hostage domain grown to 1.2k gazetteer entries and 1.2k instances: "
                    "NE tagging, instance spotting and temporal phrases do the work",
    "diachronic-long": "40 weekly football reports from 3 synchronous sources on ordered "
                       "scales: diachronic pairs and chain collapse, no ellipsis",
}

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("pipeline_s", "s", "lower", 0.25),
    ("ingest_s", "s", "lower", 0.25),
    ("extract_s", "s", "lower", 0.25),
    ("relate_s", "s", "lower", 0.25),
    ("summarize_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sentences_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("extract_f1", "ratio", "higher", 0.01),
    ("stage_ok_frac", "ratio", "higher", 0.01),
]

_SPANS = ["corpus.tokenize", "corpus.artifact_write", "corpus.artifact_read",
          "ontology.load", "extract.classify", "extract.fill_arguments",
          "extract.validate", "temporal.find", "temporal.resolve",
          "relations.evaluate", "relations.ellipsis", "relations.bucket",
          "evolution.analyze", "summarize.load_templates",
          "summarize.build_graph", "summarize.render"]
_SLOPES = ["corpus.tokenize", "extract.fill_arguments", "relations.evaluate",
           "relations.ellipsis", "summarize.render"]
# name, unit, better
PER_LAYER = (
    [(f"{s}_s", "s", "lower") for s in _SPANS]
    + [(f"{s}.self_s", "s", "lower") for s in _SPANS]
    + [(f"{s}_slope", "ratio", "lower") for s in _SLOPES]
    + [
        ("corpus.tokens", "count", "lower"),
        ("corpus.ne_tokens", "count", "higher"),
        ("corpus.artifact_bytes", "bytes", "lower"),
        ("ontology.spec_parses", "count", "lower"),
        ("extract.messages", "count", "higher"),
        ("extract.discarded", "count", "lower"),
        ("extract.yield", "ratio", "higher"),
        ("temporal.expressions", "count", "higher"),
        ("temporal.resolved_frac", "ratio", "higher"),
        ("relations.sync_instances", "count", "higher"),
        ("relations.dia_instances", "count", "higher"),
        ("relations.candidate_pairs", "count", "lower"),
        ("relations.yield", "ratio", "higher"),
        ("relations.ellipsis_reports", "count", "higher"),
        ("relations.buckets", "count", "higher"),
        ("summarize.sentences", "count", "higher"),
        ("summarize.trend_sentences", "count", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "TZ": os.environ.get("TZ"), "tzname": list(time.tzname)}


class Run:
    """One benchmark invocation: its work directory, deadline and verdicts."""

    def __init__(self, root: Path, workload: str, seed: int, trace: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.work = root / WORK_DIR / f"{workload}-seed{seed}-trace{trace}"
        self.hash_store = root / WORK_DIR / "hashes"
        self.began = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def generate(self, scale: float, name: str) -> Path:
        generate(self.workload, self.seed, scale, self.work / name)
        return self.work / name / "manifest.json"

    def subprocess(self, *args: str, timeout: float | None = None) -> dict:
        left = DEADLINE_S - (time.monotonic() - self.began)
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=self.root, stdout=subprocess.PIPE, text=True,
                              timeout=max(5.0, min(left, timeout or left)))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def grade(self, runs: list[dict], out: Path, manifest: dict, scale: float) -> None:
        """Count stage failures over passes with the same inputs: a nonzero
        exit, a stage never reached, an artifact hash that differs from the
        first pass or from an earlier run on identical inputs, or an output
        check of the last pass (``out``) that fails."""
        inputs = hashlib.sha256("".join(
            sha256(Path(manifest[k])) for k in INPUT_FILES).encode()).hexdigest()
        store = self.hash_store / f"{self.workload}-seed{self.seed}-x{scale}-{inputs[:16]}.json"
        reference = runs[0]["hashes"]
        if store.is_file():
            reference = json.loads(store.read_text(encoding="utf-8"))
        checked = check_outputs(out, manifest, self.seed)
        for stage, problems in checked.items():
            self.problems += [f"{stage} (x{scale}): {p}" for p in problems]
        for k, run in enumerate(runs):
            bad = {s for s in STAGES
                   if run["stages"].get(s, {}).get("rc") != 0 or checked[s]}
            for artifact, digest in run["hashes"].items():
                if digest is None or digest != reference.get(artifact):
                    bad.add(ARTIFACTS[artifact])
                    if k == len(runs) - 1:
                        self.problems.append(f"{artifact} (x{scale}) differs from the "
                                             "reference pass or is missing")
            self.attempted += len(STAGES)
            self.failed += len(bad)
        if not store.is_file() and not self.failed and None not in reference.values():
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if min(ys) <= 0:
        return 0.0
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    manifest_path = run.generate(1.0, "input")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    probes = [run.subprocess("setup", str(manifest_path), timeout=60)
              for _ in range(SETUP_PROBES)]
    setup = [p["scaled_s"] for p in probes]
    result = run.subprocess("pipeline", str(manifest_path), str(run.work), str(seconds))
    passes = result["runs"]
    out = Path(result["out"])
    run.grade(passes, out, manifest, 1.0)

    # Times are scaled to the host speed that the reference pieces around
    # them show (see reference.py), then the median over passes is taken;
    # the unscaled medians are printed beside them and kept in the detail.
    complete = [p for p in passes
                if [s.get("rc") for s in p["stages"].values()] == [0] * len(STAGES)]
    if not complete:
        raise RuntimeError("no pipeline pass completed")
    times = {"pipeline_s": [p["scaled_s"] for p in complete]}
    wall = {"pipeline_s": [p["pipeline_s"] for p in complete]}
    for name in ("ingest", "extract", "relate", "summarize"):
        times[f"{name}_s"] = [p["stages"][name]["scaled_s"] for p in complete]
        wall[f"{name}_s"] = [p["stages"][name]["s"] for p in complete]
    metrics = {name: statistics.median(values) for name, values in times.items()}
    pipeline_s = metrics["pipeline_s"]
    metrics.update({
        "setup_s": statistics.median(setup),
        "sentences_per_s": manifest["sentences"] / pipeline_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "extract_f1": extract_f1(Path(manifest["gold"]), out / "messages.jsonl"),
        "stage_ok_frac": 1 - run.failed / run.attempted,
    })
    wall["setup_s"] = [p["setup_s"] for p in probes]
    detail = {"pipelines": len(passes), "setup_probes": len(setup),
              "wall_medians": {name: statistics.median(v) for name, v in wall.items()},
              "piece_s": result["piece_s"],
              "manifest": manifest, "passes": passes}
    return metrics, detail


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    paths = [run.generate(scale, f"input-{k}") for k, scale in enumerate(SIZES)]
    manifests = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    result = run.subprocess("trace", str(run.work), str(seconds), *map(str, paths))
    rounds = result["rounds"]
    for k, (scale, manifest) in enumerate(zip(SIZES, manifests)):
        passes = [r["sizes"][k] for r in rounds]
        if k == 0:
            passes = [r["untraced"] for r in rounds] + passes
        run.grade(passes, run.work / f"traced-{k}", manifest, scale)

    full = [r["sizes"][0]["layers"] for r in rounds]
    metrics = {}
    for name, _, _ in PER_LAYER:
        values = [layers[name] for layers in full if name in layers]
        metrics[name] = statistics.median(values) if values else 0.0
    xs = [m["sentences"] for m in manifests]
    for layer in _SLOPES:
        metrics[f"{layer}_slope"] = statistics.median(
            loglog_slope(xs, [r["sizes"][k]["layers"].get(f"{layer}_s", 0.0)
                              for k in range(len(SIZES))])
            for r in rounds)
    untraced = statistics.median(r["untraced"]["scaled_s"] for r in rounds)
    traced_s = statistics.median(r["sizes"][0]["scaled_s"] for r in rounds)
    metrics["trace.overhead_frac"] = traced_s / untraced - 1
    detail = {"rounds": len(rounds), "sentences": xs,
              "traced_pipeline_s": traced_s, "untraced_pipeline_s": untraced}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chronicle" / "__init__.py").is_file():
        print("run.py: no chronicle sources in ./src; run from the repository root",
              file=sys.stderr)
        return 2
    ensure_chronicle(root)
    run = Run(root, args.workload, args.seed, args.trace)
    try:
        metrics, detail = (traced if args.trace else timed)(run, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    units = {row[0]: row[1] for row in table}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "metrics": metrics,
              "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems, "detail": detail}
    (run.work / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")

    count = (f"median of {detail['pipelines']} pipelines and of "
             f"{detail['setup_probes']} set-ups, scaled to a {REF_S * 1000:g} ms "
             f"reference piece (measured median {detail['piece_s'] * 1000:.4g} ms)"
             if not args.trace else f"median of {detail['rounds']} traced rounds")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {count}; "
          f"python {env['python']}, nproc {env['nproc']}, TZ={env['TZ']}")
    medians = detail.get("wall_medians", {})
    for name, unit, *_ in table:
        median = f"  (unscaled {medians[name]:.6g})" if name in medians else ""
        print(f"{name:34s} {metrics[name]:>14.6g} {unit}{median}")
    print(f"{'failed_frac':34s} {run.failed / run.attempted:>14.6g} ratio "
          f"({run.failed} of {run.attempted} stages)")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failed, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, *_ in table},
    }))
    return 0 if not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
