from __future__ import annotations

import builtins
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chronicle import cli
from chronicle import corpus as corpus_mod
from chronicle import ontology as ontology_mod
from chronicle import relations as relations_mod
from chronicle.corpus import read_corpus_artifact
from chronicle.extract import load_gold_messages
from chronicle.relations import WindowPolicy, brute_force_oracle
from tests.conftest import FIXTURES


def run(argv):
    return cli.main([str(a) for a in argv])


def run_pipeline(domain, out_dir, window="0", corpus=None):
    root = FIXTURES / domain
    assert run(["ingest", "--corpus", corpus or root / "corpus.jsonl",
                "--lexicon", root / "lexicon.tsv",
                "--gazetteer", root / "gazetteer.tsv",
                "--out-dir", out_dir]) == 0
    assert run(["extract", "--ontology", root / "domain.spec",
                "--mode", "gold", "--gold", root / "gold_messages.jsonl",
                "--out-dir", out_dir]) == 0
    run_downstream(domain, out_dir, window)


def run_downstream(domain, out_dir, window="0"):
    """relate, analyze and summarize on the corpus and messages in out_dir."""
    root = FIXTURES / domain
    assert run(["relate", "--ontology", root / "domain.spec",
                "--window", window, "--out-dir", out_dir]) == 0
    assert run(["analyze", "--out-dir", out_dir]) == 0
    assert run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", window,
                "--out", out_dir / "summary.txt", "--out-dir", out_dir]) == 0


ARTIFACTS = ["corpus.jsonl", "messages.jsonl", "relations.jsonl",
             "ellipsis.jsonl", "evolution.json", "plot.csv", "summary.txt",
             "coverage.json"]


def snapshot(out_dir):
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_full_pipeline_byte_stable(tmp_path, domain):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run_pipeline(domain, first)
    run_pipeline(domain, second)
    assert snapshot(first) == snapshot(second)


def test_football_pipeline_reports_linear_synchronous(tmp_path):
    run_pipeline("football", tmp_path)
    report = json.loads((tmp_path / "evolution.json").read_text())
    assert report["linearity"] == "linear"
    assert report["emission"] == "synchronous"
    assert report["model"]["period_minutes"] == 10080.0


def test_hostage_pipeline_reports_non_linear_asynchronous(tmp_path):
    run_pipeline("hostage", tmp_path)
    report = json.loads((tmp_path / "evolution.json").read_text())
    assert report["linearity"] == "non-linear"
    assert report["emission"] == "asynchronous"
    assert report["sources"]["late_wire"]["first_report_lag_minutes"] == 12 * 24 * 60


def test_relate_on_gold_messages_matches_oracle(tmp_path, hostage):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["extract", "--ontology", root / "domain.spec",
                "--mode", "gold", "--gold", root / "gold_messages.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["relate", "--ontology", root / "domain.spec", "--window", "0",
                "--out-dir", tmp_path]) == 0
    corpus = read_corpus_artifact(tmp_path / "corpus.jsonl")
    messages = load_gold_messages(root / "gold_messages.jsonl",
                                  hostage.message_specs, hostage.ontology,
                                  corpus)
    got = [json.loads(line) for line in
           (tmp_path / "relations.jsonl").read_text().splitlines()]
    expected = brute_force_oracle(messages, hostage.relation_specs,
                                  WindowPolicy(cli.parse_duration("0")))
    assert sorted((r["axis"], r["name"], (r["left"]["doc_id"], r["left"]["sentence_index"]),
                   (r["right"]["doc_id"], r["right"]["sentence_index"])) for r in got) \
        == sorted(r.key() for r in expected)


def test_stage_isolation_relate_rerun_is_byte_identical(tmp_path):
    run_pipeline("football", tmp_path)
    before = (tmp_path / "relations.jsonl").read_bytes()
    (tmp_path / "relations.jsonl").unlink()
    (tmp_path / "ellipsis.jsonl").unlink()
    root = FIXTURES / "football"
    assert run(["relate", "--ontology", root / "domain.spec", "--window", "0",
                "--out-dir", tmp_path]) == 0
    assert (tmp_path / "relations.jsonl").read_bytes() == before


def summarize_football(out_dir):
    root = FIXTURES / "football"
    return run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", "1d",
                "--out", out_dir / "summary.txt", "--out-dir", out_dir])


SUMMARY_ARTIFACTS = ("summary.txt", "coverage.json")


def summary_bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in SUMMARY_ARTIFACTS}


def test_summarize_without_relate_artifacts_renders_the_same_summary(tmp_path):
    """``summarize`` derives its relations and ellipsis reports from the
    messages: with ``relations.jsonl`` and ``ellipsis.jsonl`` gone it
    writes the summary and coverage it wrote with them."""
    run_pipeline("football", tmp_path, window="1d")
    expected = summary_bytes(tmp_path)
    for name in ("relations.jsonl", "ellipsis.jsonl", *SUMMARY_ARTIFACTS):
        (tmp_path / name).unlink()
    assert summarize_football(tmp_path) == 0
    assert summary_bytes(tmp_path) == expected


def test_summarize_without_out_writes_the_summary_and_stdout(tmp_path, capsys):
    run_pipeline("football", tmp_path, window="1d")
    expected = (tmp_path / "summary.txt").read_bytes()
    (tmp_path / "summary.txt").unlink()
    capsys.readouterr()
    root = FIXTURES / "football"
    assert run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", "1d",
                "--out-dir", tmp_path]) == 0
    assert (tmp_path / "summary.txt").read_bytes() == expected
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_renamed_relation_leaves_the_summary_unchanged(tmp_path):
    """Football's line 9, a distance-1 ``stability`` record, renamed to
    ``positive_graduation``, a rule between the same types whose
    conditions the two messages do not meet: the summary still renders
    what the rules give, as if the file were untouched."""
    run_pipeline("football", tmp_path, window="1d")
    expected = summary_bytes(tmp_path)
    path = tmp_path / "relations.jsonl"
    lines = path.read_text().splitlines(True)
    assert '"distance": 1' in lines[8] and '"name": "stability"' in lines[8]
    lines[8] = lines[8].replace('"stability"', '"positive_graduation"')
    path.write_text("".join(lines))
    assert summarize_football(tmp_path) == 0
    assert summary_bytes(tmp_path) == expected


@pytest.mark.parametrize("domain", ["football", "hostage"])
def test_relate_window_does_not_steer_the_summary(tmp_path, domain):
    """``relate --window 1d`` then ``summarize --window 7d`` gives the
    summary that ``relate`` and ``summarize`` both at ``7d`` give."""
    root = FIXTURES / domain
    both, mixed = tmp_path / "both", tmp_path / "mixed"
    run_pipeline(domain, both, window="7d")
    run_pipeline(domain, mixed, window="1d")
    assert run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", "7d",
                "--out", mixed / "summary.txt", "--out-dir", mixed]) == 0
    assert summary_bytes(mixed) == summary_bytes(both)


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "--kind", "linear", "--seed", "7",
                    "--sources", "3", "--horizon", "8", "--out-dir", out]) == 0
    assert (a / "simulated.jsonl").read_bytes() == (b / "simulated.jsonl").read_bytes()


def test_simulated_corpus_is_ingestable(tmp_path):
    assert run(["simulate", "--kind", "non-linear", "--seed", "3",
                "--sources", "4", "--horizon", "6", "--out-dir", tmp_path]) == 0
    assert run(["ingest", "--corpus", tmp_path / "simulated.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["analyze", "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "evolution.json").read_text())
    assert report["linearity"] == "non-linear"


@pytest.mark.parametrize("flag", ["--sources", "--horizon"])
def test_simulate_without_sources_or_reports_exits_2(tmp_path, capsys, flag):
    assert run(["simulate", "--kind", "linear", flag, "0",
                "--out-dir", tmp_path]) == 2
    assert one_json_error(capsys, "simulate") == {
        "stage": "simulate", "error": "ValueError",
        "detail": "need at least one source and one report"}
    assert not (tmp_path / "simulated.jsonl").exists()


def test_parser_is_built_once_and_serves_every_stage(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    assert run(["simulate", "--kind", "linear", "--seed", "7", "--sources", "2",
                "--horizon", "3", "--out-dir", tmp_path]) == 0
    assert run(["ingest", "--corpus", tmp_path / "simulated.jsonl",
                "--out-dir", tmp_path]) == 0
    # a value given in one call is not a default in the next
    parse = cli.build_parser().parse_args
    assert parse(["analyze", "--residual-threshold", "0.5",
                  "--out-dir", "a"]).residual_threshold == 0.5
    assert parse(["analyze", "--out-dir", "b"]).residual_threshold is None


def test_statistical_mode_via_cli(tmp_path):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--lexicon", root / "lexicon.tsv", "--out-dir", tmp_path]) == 0
    assert run(["extract", "--ontology", root / "domain.spec",
                "--mode", "statistical", "--train", root / "train.jsonl",
                "--lexicon", root / "lexicon.tsv", "--out-dir", tmp_path]) == 0
    lines = [json.loads(l) for l in
             (tmp_path / "messages.jsonl").read_text().splitlines()]
    assert lines
    assert {l["type"] for l in lines} <= {"start", "end", "negotiate", "demand"}


def test_validate_prints_diagnostics(tmp_path, capsys):
    root = FIXTURES / "hostage"
    assert run(["validate", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["message_types"] == ["demand", "end", "negotiate", "start"]


def test_validate_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "chronicle.cli", "validate",
                           "--ontology", str(FIXTURES / "hostage" / "domain.spec")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["ok"] is True
    assert doc["message_types"] == ["demand", "end", "negotiate", "start"]


@pytest.mark.parametrize("op", [">=", "=="])
def test_overlong_distance_is_a_located_syntax_error(tmp_path, capsys, op):
    """A ``distance`` whose digit run ``int`` will not read is a syntax
    error at the run's first digit, in each stage that loads the spec."""
    root = FIXTURES / "hostage"
    lines = (root / "domain.spec").read_text().splitlines()
    ln = next(i for i, line in enumerate(lines, start=1) if "distance>=1" in line)
    digits = "9" * 5000
    lines[ln - 1] = lines[ln - 1].replace("distance>=1", f"distance{op}{digits}")
    column = lines[ln - 1].index(digits) + 1
    spec = tmp_path / "domain.spec"
    spec.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(["ingest", "--corpus", root / "corpus.jsonl", "--out-dir", out]) == 0
    assert run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", root / "gold_messages.jsonl", "--out-dir", out]) == 0
    capsys.readouterr()
    for argv in (["validate", "--ontology", spec],
                 ["relate", "--ontology", spec, "--window", "0", "--out-dir", out]):
        assert run(argv) == 2, argv
        err = one_json_error(capsys, argv[0])
        assert err["error"] == "DslSyntaxError"
        assert err["detail"] == f"{spec}:{ln}:{column}: integer of 5000 digits is too long"


def test_error_is_machine_readable_json(tmp_path, capsys):
    code = run(["ingest", "--corpus", tmp_path / "nope.jsonl",
                "--out-dir", tmp_path])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "ingest"
    assert "error" in err and "detail" in err


def test_missing_template_fails_with_name(tmp_path, capsys):
    run_pipeline("football", tmp_path)
    broken = tmp_path / "broken_templates.txt"
    lines = (FIXTURES / "football" / "templates.txt").read_text().splitlines()
    broken.write_text("\n".join(l for l in lines if "template agreement" not in l)
                      + "\n")
    root = FIXTURES / "football"
    code = run(["summarize", "--ontology", root / "domain.spec",
                "--templates", broken, "--window", "0",
                "--out", tmp_path / "s.txt", "--out-dir", tmp_path])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MissingTemplate"
    assert "agreement" in err["detail"]


def test_window_required_for_relate(tmp_path, capsys):
    root = FIXTURES / "football"
    assert run(["relate", "--ontology", root / "domain.spec",
                "--out-dir", tmp_path]) == 2
    assert one_json_error(capsys, "relate") == {
        "stage": "relate", "error": "UsageError",
        "detail": "the following arguments are required: --window"}


def test_unknown_flag_is_an_error(capsys):
    assert run(["ingest", "--corpus", "x", "--out-dir", "y", "--bogus-flag"]) == 2
    assert one_json_error(capsys, "ingest") == {
        "stage": "ingest", "error": "UsageError",
        "detail": "unrecognized arguments: --bogus-flag"}


@pytest.mark.parametrize("argv,stage", [
    (["simulate", "--kind", "linear", "--horizon", "x", "--out-dir", "y"], "simulate"),
    (["analyze", "--emission-tolerance", "-5h", "--out-dir", "y"], "analyze"),
    (["summarize", "--bucket-budget", "1.5"], "summarize"),
    (["relate"], "relate"),
    (["bogus"], None),
    ([], None),
])
def test_usage_error_is_one_json_line(argv, stage, capsys):
    """A command line the parser rejects exits 2 with one JSON error line,
    naming the subcommand when there is one, and no usage text."""
    assert run(argv) == 2
    err = one_json_error(capsys, stage)
    assert err["error"] == "UsageError" and err["detail"]


@pytest.mark.parametrize("command", ["ingest", "extract", "relate", "analyze",
                                     "summarize", "simulate", "validate"])
def test_help_documents_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out


def one_json_error(capsys, stage):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["stage"] == stage
    return err


def gold_with(tmp_path, **changes):
    """The hostage gold file with its first record changed."""
    lines = (FIXTURES / "hostage" / "gold_messages.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first.update(changes)
    path = tmp_path / "gold.jsonl"
    path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    return path


@pytest.mark.parametrize("changes", [
    {"sentence_index": True},
    {"args": "captors"},
    {"args": {"entity": ["captors"], "activity": "occupation"}},
    {"type": ["start"]},
    {"doc_id": ["courier-01"]},
], ids=["boolean-sentence-index", "string-args", "list-slot-value",
        "list-type", "list-doc-id"])
def test_malformed_gold_record_exits_2(tmp_path, capsys, changes):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    code = run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", gold_with(tmp_path, **changes), "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == "MalformedRecord"
    assert "gold.jsonl:1:" in err["detail"]


@pytest.mark.parametrize("changes,error,reason", [
    ({"time": "2004-13-01"}, "UnparsableAnchor",
     "unparsable time anchor '2004-13-01'"),
    ({"args": {"entity": "occupation"}}, "SlotTypeViolation",
     "start.entity: 'occupation' is not an instance of Person"),
], ids=["unparsable-time", "slot-of-wrong-concept"])
def test_gold_error_names_file_and_line(tmp_path, capsys, changes, error, reason):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    code = run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", gold_with(tmp_path, **changes), "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == error
    assert err["detail"].endswith(f"gold.jsonl:1: {reason}")


def replace_first_line(path, line):
    lines = path.read_text().splitlines()
    path.write_text("\n".join([line] + lines[1:]) + "\n")


def test_non_object_gold_record_exits_2(tmp_path, capsys):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    gold = gold_with(tmp_path)
    replace_first_line(gold, '"start"')
    code = run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", gold, "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == "MalformedRecord"
    assert "gold.jsonl:1: record is not an object" in err["detail"]


def broken_record(path, kind):
    """Rewrite the first record of a JSON-lines artifact, or with a
    ``sync-`` kind its first synchronic relation."""
    lines = path.read_text().splitlines()
    at = 0
    if kind.startswith("sync-"):
        kind = kind[len("sync-"):]
        at = next(i for i, line in enumerate(lines) if '"synchronic"' in line)
    record = json.loads(lines[at])
    if kind == "duplicate":
        lines.append(lines[at])
        path.write_text("\n".join(lines) + "\n")
        return
    if kind == "not-object":
        record = [record]
    elif kind.startswith("missing-"):
        del record[kind[len("missing-"):]]
    elif kind.startswith("empty-"):
        record[kind[len("empty-"):]] = []
    elif kind.endswith("-silent_source"):
        corpus = read_corpus_artifact(path.parent / "corpus.jsonl", tokens=False)
        extra = {"own": next(d.source for d in corpus.documents if d.doc_id == record["doc_id"]),
                 "unknown": "nobody",
                 "repeated": record["silent_sources"][0]}[kind.split("-")[0]]
        record["silent_sources"].append(extra)
    elif kind.startswith(("false-", "true-")):
        # "false-left.sentence_index" sets record["left"]["sentence_index"]
        value, _, field = kind.partition("-")
        *outer, key = field.split(".")
        (record[outer[0]] if outer else record)[key] = value == "true"
    elif kind.startswith("distance-"):
        record["distance"] = json.loads(kind[len("distance-"):])
    elif kind == "off-by-one-distance":
        record["distance"] += 1
    elif kind == "swapped":
        record["left"], record["right"] = record["right"], record["left"]
    elif kind == "same-message":
        record["right"] = record["left"]
    elif kind == "unknown-name":
        record["name"] = "nosuch"
    elif kind == "other-name":
        record["name"] = "repetition"
    elif kind == "other-type":
        # the first synchronic record relates two start messages; this is a
        # negotiate message of a third source
        record["right"] = {"doc_id": "late_wire-02", "sentence_index": 0}
    elif kind == "other-axis":
        # a synchronic pair as diachronic, or a diachronic one as synchronic
        if record.pop("distance", None) is None:
            record["axis"], record["distance"] = "diachronic", 0
        else:
            record["axis"] = "synchronic"
    else:
        side = kind[len("string-"):]
        record[side] = record[side]["doc_id"]
    lines[at] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("artifact,kind", [
    ("relations.jsonl", "missing-name"),
    ("relations.jsonl", "missing-left"),
    ("relations.jsonl", "not-object"),
    ("relations.jsonl", "string-left"),
    ("relations.jsonl", "string-right"),
    ("relations.jsonl", "duplicate"),
    ("relations.jsonl", "false-left.sentence_index"),
    ("relations.jsonl", "false-right.sentence_index"),
    # records on a known axis that relate cannot write
    ("relations.jsonl", 'distance-"x"'),
    ("relations.jsonl", "distance-1.0"),
    ("relations.jsonl", "true-distance"),
    ("relations.jsonl", "off-by-one-distance"),
    ("relations.jsonl", "missing-distance"),
    ("relations.jsonl", "sync-distance-3"),
    ("relations.jsonl", "sync-distance-null"),
    ("relations.jsonl", "same-message"),
    ("relations.jsonl", "sync-same-message"),
    ("relations.jsonl", "swapped"),
    ("relations.jsonl", "other-axis"),
    ("relations.jsonl", "sync-other-axis"),
    # records whose name, axis and message types no domain rule has
    ("relations.jsonl", "unknown-name"),
    ("relations.jsonl", "sync-other-type"),
    ("relations.jsonl", "sync-other-name"),
    ("ellipsis.jsonl", "missing-silent_sources"),
    ("ellipsis.jsonl", "missing-doc_id"),
    ("ellipsis.jsonl", "empty-silent_sources"),
    ("ellipsis.jsonl", "own-silent_source"),
    ("ellipsis.jsonl", "unknown-silent_source"),
    ("ellipsis.jsonl", "repeated-silent_source"),
    ("ellipsis.jsonl", "not-object"),
    ("ellipsis.jsonl", "false-sentence_index"),
    ("ellipsis.jsonl", "true-bucket"),
    ("ellipsis.jsonl", "duplicate"),
])
def test_malformed_relate_artifact_leaves_summary_unchanged(tmp_path, artifact, kind):
    """``summarize`` reads neither of ``relate``'s artifacts, so a broken
    record in one changes nothing it writes."""
    run_pipeline("hostage", tmp_path)
    expected = summary_bytes(tmp_path)
    broken_record(tmp_path / artifact, kind)
    root = FIXTURES / "hostage"
    assert run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", "0",
                "--out", tmp_path / "summary.txt", "--out-dir", tmp_path]) == 0
    assert summary_bytes(tmp_path) == expected


@pytest.mark.parametrize("artifact", ["messages.jsonl"])
def test_overlong_integer_exits_2_naming_the_line(tmp_path, capsys, artifact):
    """A 5,000-digit ``sentence_index``, longer than ``int`` reads, on line
    1 fails the stage as any malformed record does: one JSON line naming
    the file and line."""
    run_pipeline("hostage", tmp_path)
    capsys.readouterr()
    path = tmp_path / artifact
    record = json.loads(path.read_text().splitlines()[0])
    record["sentence_index"] = "@"
    replace_first_line(path, json.dumps(record).replace('"@"', "1" + "0" * 4999))
    assert summarize_hostage(tmp_path) == 2
    err = one_json_error(capsys, "summarize")
    assert err["error"] == "MalformedRecord"
    assert f"{artifact}:1: invalid JSON" in err["detail"]


@pytest.mark.parametrize("template", ["agreement", "termination", "ellipsis"])
def test_unresolvable_placeholder_exits_2(tmp_path, capsys, template):
    """A template naming a placeholder no sentence has a value for fails
    the stage with one JSON line naming the template and the placeholder."""
    run_pipeline("hostage", tmp_path)
    capsys.readouterr()
    root = FIXTURES / "hostage"
    templates = tmp_path / "templates.txt"
    templates.write_text("".join(
        line.replace('."', ' {nosuch}."') if line.startswith(f"template {template}:")
        else line for line in (root / "templates.txt").read_text().splitlines(True)))
    code = run(["summarize", "--ontology", root / "domain.spec",
                "--templates", templates, "--window", "0",
                "--out", tmp_path / "s.txt", "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "summarize")
    assert err["error"] == "ChronicleError"
    assert err["detail"] == f"template {template!r}: unresolvable placeholder {{nosuch}}"


@pytest.mark.parametrize("line", [
    '{"type": "start"}',
    '{"text": ["The captors seized the compound."], "type": "start"}',
    '{"text": "The captors seized the compound.", "type": ["start"]}',
    '"The captors seized the compound."',
], ids=["missing-text", "list-text", "list-type", "not-object"])
def test_malformed_training_record_exits_2(tmp_path, capsys, line):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    train = tmp_path / "train.jsonl"
    train.write_text((root / "train.jsonl").read_text())
    replace_first_line(train, line)
    code = run(["extract", "--ontology", root / "domain.spec",
                "--mode", "statistical", "--train", train,
                "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == "MalformedRecord"
    assert "train.jsonl:1:" in err["detail"]


def test_training_label_that_is_no_message_type_exits_2(tmp_path, capsys):
    """A misspelt label is refused at its line, not trained on and then
    every sentence the model gives it dropped."""
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--lexicon", root / "lexicon.tsv", "--out-dir", tmp_path]) == 0
    train = tmp_path / "train.jsonl"
    train.write_text((root / "train.jsonl").read_text()
                     .replace('"negotiate"', '"negotiat"'))
    code = run(["extract", "--ontology", root / "domain.spec",
                "--mode", "statistical", "--train", train,
                "--lexicon", root / "lexicon.tsv", "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == "UnknownMessageType"
    assert err["detail"] == f"{train}:1: unknown message type 'negotiat'"
    assert not (tmp_path / "messages.jsonl").exists()


def test_each_stage_parses_the_spec_once(tmp_path, monkeypatch, capsys):
    """One parse of the spec file per stage serves every domain loader."""
    parses = []
    parse = ontology_mod.parse_spec_file

    def counted(path):
        parses.append(path)
        return parse(path)

    monkeypatch.setattr(ontology_mod, "parse_spec_file", counted)
    root = FIXTURES / "hostage"
    spec = root / "domain.spec"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--lexicon", root / "lexicon.tsv",
                "--gazetteer", root / "gazetteer.tsv",
                "--out-dir", tmp_path]) == 0
    stages = [
        ["extract", "--ontology", spec, "--mode", "rules"],
        ["extract", "--ontology", spec, "--mode", "gold",
         "--gold", root / "gold_messages.jsonl"],
        ["relate", "--ontology", spec, "--window", "0"],
        ["summarize", "--ontology", spec, "--templates", root / "templates.txt",
         "--window", "0", "--out", tmp_path / "s.txt"],
        ["validate", "--ontology", spec],
    ]
    for argv in stages:
        parses.clear()
        if argv[0] != "validate":
            argv = argv + ["--out-dir", tmp_path]
        assert run(argv) == 0, argv
        assert parses == [str(spec)], argv
    capsys.readouterr()


def hostage_stage(stage, out_dir):
    """The command line of one corpus-reading stage on the hostage domain."""
    root = FIXTURES / "hostage"
    domain = ["--ontology", root / "domain.spec"]
    flags = {
        "extract": domain + ["--mode", "rules"],
        "relate": domain + ["--window", "0"],
        "analyze": [],
        "summarize": domain + ["--templates", root / "templates.txt",
                               "--window", "0", "--out", out_dir / "s.txt"],
    }[stage]
    return [stage, *flags, "--out-dir", out_dir]


def test_each_stage_builds_one_ontology(tmp_path, monkeypatch, capsys):
    """Each stage that loads the domain builds its Ontology once, scales
    included."""
    builds = []

    class Counted(ontology_mod.Ontology):
        def __init__(self, **fields):
            builds.append(fields)
            super().__init__(**fields)

    monkeypatch.setattr(ontology_mod, "Ontology", Counted)
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    gold = ["extract", "--ontology", root / "domain.spec", "--mode", "gold",
            "--gold", root / "gold_messages.jsonl", "--out-dir", tmp_path]
    for argv in (hostage_stage("extract", tmp_path), gold,
                 hostage_stage("relate", tmp_path),
                 hostage_stage("summarize", tmp_path),
                 ["validate", "--ontology", root / "domain.spec"]):
        builds.clear()
        assert run(argv) == 0, argv
        assert len(builds) == 1, argv
    capsys.readouterr()


def test_single_source_corpus_runs_every_stage(tmp_path):
    """With one source no other source can be silent, so there is no
    ellipsis, and every k-th report cohort spans 0, so emission is
    synchronous."""
    root = FIXTURES / "hostage"

    def lines_where(path, keep):
        return [line for line in path.read_text().splitlines()
                if keep(json.loads(line))]

    documents = lines_where(root / "corpus.jsonl",
                            lambda d: d["source"] == "aegean_news")
    doc_ids = {json.loads(line)["doc_id"] for line in documents}
    gold = lines_where(root / "gold_messages.jsonl",
                       lambda m: m["doc_id"] in doc_ids)
    assert len(documents) == 12 and gold
    (tmp_path / "corpus.jsonl").write_text("\n".join(documents) + "\n")
    (tmp_path / "gold.jsonl").write_text("\n".join(gold) + "\n")
    out = tmp_path / "out"
    assert run(["ingest", "--corpus", tmp_path / "corpus.jsonl",
                "--lexicon", root / "lexicon.tsv",
                "--gazetteer", root / "gazetteer.tsv", "--out-dir", out]) == 0
    assert run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", tmp_path / "gold.jsonl", "--out-dir", out]) == 0
    run_downstream("hostage", out)
    assert (out / "ellipsis.jsonl").read_text() == ""
    assert (out / "relations.jsonl").read_text()
    evolution = json.loads((out / "evolution.json").read_text())
    assert evolution["emission"] == "synchronous"
    assert list(evolution["sources"]) == ["aegean_news"]
    assert (out / "summary.txt").read_text()


@pytest.mark.parametrize("mode", ["statistical", "gold"])
def test_extract_mode_without_its_input_exits_2(tmp_path, capsys, mode):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["extract", "--ontology", root / "domain.spec", "--mode", mode,
                "--out-dir", tmp_path]) == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == "ChronicleError"
    assert f"--mode {mode} requires" in err["detail"]
    assert not (tmp_path / "messages.jsonl").exists()


def break_corpus_record(out_dir, change):
    """Ingest the hostage corpus, apply ``change`` to the first document
    record of the artifact and return that record's line number."""
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", out_dir]) == 0
    artifact = out_dir / "corpus.jsonl"
    lines = artifact.read_text().splitlines()
    ln = next(i for i, line in enumerate(lines, start=1)
              if "doc_id" in json.loads(line))
    record = json.loads(lines[ln - 1])
    change(record)
    lines[ln - 1] = json.dumps(record)
    artifact.write_text("\n".join(lines) + "\n")
    return ln


@pytest.mark.parametrize("key", ["sentences", "source", "publish_time",
                                 "report_index", "doc_id"])
def test_truncated_corpus_artifact_exits_2(tmp_path, capsys, key):
    ln = break_corpus_record(tmp_path, lambda record: record.pop(key))
    for stage in ["analyze", "relate", "summarize"]:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == "MalformedRecord"
        assert f"corpus.jsonl:{ln}: missing {key}" in err["detail"]


@pytest.mark.parametrize("key,value", [
    ("doc_id", 7), ("source", ["wire"]), ("publish_time", 20040918),
    ("report_index", "0"), ("report_index", True), ("sentences", "text"),
])
def test_wrong_typed_corpus_field_exits_2(tmp_path, capsys, key, value):
    ln = break_corpus_record(tmp_path, lambda record: record.update({key: value}))
    for stage in ["extract", "analyze", "relate", "summarize"]:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == "MalformedRecord"
        assert (f"corpus.jsonl:{ln}: record does not have the corpus-artifact "
                f"shape") in err["detail"]


@pytest.mark.parametrize("key,value", [
    ("index", "0"), ("index", True), ("index", 0.0), ("text", 5), ("text", None),
])
def test_wrong_typed_corpus_sentence_field_exits_2(tmp_path, capsys, key, value):
    ln = break_corpus_record(
        tmp_path, lambda record: record["sentences"][0].update({key: value}))
    for stage in ["extract", "analyze", "relate", "summarize"]:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == "MalformedRecord"
        assert (f"corpus.jsonl:{ln}: record does not have the corpus-artifact "
                f"shape") in err["detail"]
    assert not (tmp_path / "messages.jsonl").exists()


@pytest.mark.parametrize("indices", [[7, 8], [1, 0]], ids=["shifted", "swapped"])
def test_corpus_sentence_index_off_its_place_exits_2(tmp_path, capsys, indices):
    """A sentence's ``index`` is its place in the document: every stage that
    reads the artifact refuses another, at the artifact's line, before a
    message can carry it."""
    def renumber(record):
        for sentence, index in zip(record["sentences"], indices, strict=True):
            sentence["index"] = index

    ln = break_corpus_record(tmp_path, renumber)
    for stage in ["extract", "analyze", "relate", "summarize"]:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == "MalformedRecord"
        assert f"corpus.jsonl:{ln}: sentence 0 has index {indices[0]}" in err["detail"]
    assert not (tmp_path / "messages.jsonl").exists()


def repeat_document(records, at):
    records.insert(at["aegean-01"] + 1, dict(records[at["aegean-01"]]))


def swap_report_indices(records, at):
    first, last = records[at["aegean-01"]], records[at["aegean-12"]]
    first["report_index"], last["report_index"] = last["report_index"], first["report_index"]


def negative_report_index(records, at):
    records[at["aegean-01"]]["report_index"] = -1


@pytest.mark.parametrize("change,error,detail", [
    (repeat_document, "DuplicateDocId", "corpus.jsonl:3: duplicate doc_id 'aegean-01'"),
    (swap_report_indices, "MalformedRecord",
     "corpus.jsonl:2: document 'aegean-01' has report_index 11, "
     "but is report 0 of source 'aegean_news'"),
    (negative_report_index, "MalformedRecord",
     "corpus.jsonl:2: document 'aegean-01' has report_index -1, "
     "but is report 0 of source 'aegean_news'"),
], ids=["repeated-line", "swapped-indices", "negative-index"])
def test_corpus_document_identity_and_report_order_exit_2(tmp_path, capsys, change,
                                                         error, detail):
    """Each ``doc_id`` names one document, and each ``report_index`` is the
    document's rank in its source by (publish_time, doc_id), as ingest
    numbers them: every stage that reads the artifact refuses another, at
    its line, rather than count a report twice or measure wrong distances."""
    root = FIXTURES / "hostage"
    stages = ["extract", "relate", "analyze", "summarize"]
    assert run(["ingest", "--corpus", root / "corpus.jsonl", "--out-dir", tmp_path]) == 0
    for stage in stages:
        assert run(hostage_stage(stage, tmp_path)) == 0, stage
    artifact = tmp_path / "corpus.jsonl"
    records = [json.loads(line) for line in artifact.read_text().splitlines()]
    change(records, {rec.get("doc_id"): i for i, rec in enumerate(records)})
    artifact.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    for stage in stages:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == error
        assert detail in err["detail"]


def test_raw_doc_id_with_hash_exits_2(tmp_path, capsys):
    """Coverage keys render a message as DOC#SENTENCE, so these four ids
    would give two relation instances one key; ingest refuses the first
    id that holds a '#'."""
    text = ["Alpha United delivered a good performance in attack during the "
            "full match."]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"doc_id": doc_id, "source": source, "text": text,
                    "publish_time": "2004-08-14T18:00:00Z"}) + "\n"
        for doc_id, source in [("a", "s1"), ("a#0->b", "s1"),
                               ("b#0->c", "s2"), ("c", "s2")]))
    assert run(["ingest", "--corpus", corpus, "--out-dir", tmp_path / "out"]) == 2
    err = one_json_error(capsys, "ingest")
    assert err["error"] == "MalformedRecord"
    assert err["detail"] == f"{corpus}:2: doc_id 'a#0->b' contains '#'"
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


def test_corpus_artifact_doc_id_with_hash_exits_2(tmp_path, capsys):
    ln = break_corpus_record(tmp_path, lambda record: record.update(doc_id="x#0"))
    for stage in ["extract", "analyze", "relate", "summarize"]:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == "MalformedRecord"
        assert f"corpus.jsonl:{ln}: doc_id 'x#0' contains '#'" in err["detail"]


def test_corpus_artifact_bad_publish_time_names_its_line(tmp_path, capsys):
    ln = break_corpus_record(tmp_path,
                             lambda record: record.update(publish_time="yesterday"))
    for stage in ["extract", "analyze", "relate", "summarize"]:
        assert run(hostage_stage(stage, tmp_path)) == 2, stage
        err = one_json_error(capsys, stage)
        assert err["error"] == "UnparsableTimestamp"
        assert err["detail"] == \
            f"{tmp_path / 'corpus.jsonl'}:{ln}: unparsable timestamp 'yesterday'"


@pytest.mark.parametrize("change, error, reason", [
    ({"publish_time": "yesterday"}, "UnparsableTimestamp",
     "unparsable timestamp 'yesterday'"),
    ({"publish_time": 20040902}, "UnparsableTimestamp",
     "unparsable timestamp '20040902'"),
    ({"doc_id": "aegean-01"}, "DuplicateDocId", "duplicate doc_id 'aegean-01'"),
], ids=["bad-publish-time", "numeric-publish-time", "repeated-doc-id"])
def test_raw_corpus_record_errors_name_their_line(tmp_path, capsys, change,
                                                  error, reason):
    lines = (FIXTURES / "hostage" / "corpus.jsonl").read_text(
        encoding="utf-8").splitlines()
    second = json.loads(lines[1])
    second.update(change)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([lines[0], json.dumps(second), *lines[2:]]) + "\n",
                      encoding="utf-8")
    assert run(["ingest", "--corpus", corpus, "--out-dir", tmp_path / "out"]) == 2
    err = one_json_error(capsys, "ingest")
    assert err["error"] == error
    assert err["detail"] == f"{corpus}:2: {reason}"


@pytest.mark.parametrize("row", [
    "ab", ["ab", "ab"], ["ab", "ab", None, 0, 2, 0], {"surface": "ab"},
    [5, "ab", None, 0, 2], ["ab", ["ab"], None, 0, 2], ["ab", "ab", 7, 0, 2],
    ["ab", "ab", {}, 0, 2], ["ab", "ab", None, 0.0, 2],
    ["ab", "ab", None, 0, "2"], ["ab", "ab", None, True, 2],
], ids=["string", "short-array", "long-array", "object", "number-surface",
        "array-lemma", "number-label", "object-label", "float-start",
        "string-end", "bool-start"])
def test_malformed_token_row_exits_2(tmp_path, capsys, row):
    def change(record):
        record["sentences"][0]["tokens"][0] = row

    ln = break_corpus_record(tmp_path, change)
    assert run(hostage_stage("extract", tmp_path)) == 2
    err = one_json_error(capsys, "extract")
    assert err["error"] == "MalformedRecord"
    assert (f"corpus.jsonl:{ln}: record does not have the corpus-artifact "
            f"shape") in err["detail"]


def ingest_hostage(out_dir) -> int:
    """Ingest the hostage fixture into ``out_dir``; the number of tokens."""
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--lexicon", root / "lexicon.tsv",
                "--gazetteer", root / "gazetteer.tsv",
                "--out-dir", out_dir]) == 0
    records = [json.loads(line) for line in
               (out_dir / "corpus.jsonl").read_text().splitlines()]
    return sum(len(s["tokens"]) for r in records for s in r.get("sentences", []))


@pytest.fixture
def built_tokens(monkeypatch) -> list:
    """Every Token the package builds from here on. Tokens are built only
    through ``corpus._tokens``, which calls no Python code per token."""
    built = []
    build = corpus_mod._tokens

    def counted(rows):
        tokens = build(rows)
        built.extend(tokens)
        return tokens

    monkeypatch.setattr(corpus_mod, "_tokens", counted)
    return built


def test_only_extract_builds_tokens(tmp_path, built_tokens, capsys):
    """relate, analyze and summarize read no token; extract builds every one."""
    tokens = ingest_hostage(tmp_path)
    assert tokens > 0
    for stage, want in [("extract", tokens), ("relate", 0), ("analyze", 0),
                        ("summarize", 0)]:
        built_tokens.clear()
        assert run(hostage_stage(stage, tmp_path)) == 0, stage
        assert len(built_tokens) == want, stage
    capsys.readouterr()


def test_gold_extract_builds_no_tokens(tmp_path, built_tokens):
    """Gold messages are checked against sentence counts, not tokens."""
    assert ingest_hostage(tmp_path) > 0
    built_tokens.clear()
    root = FIXTURES / "hostage"
    assert run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", root / "gold_messages.jsonl",
                "--out-dir", tmp_path]) == 0
    assert built_tokens == []
    written = (tmp_path / "messages.jsonl").read_text().splitlines()
    assert len(written) == len((root / "gold_messages.jsonl").read_text().splitlines())


def test_ingest_folds_lexicon_surfaces(tmp_path):
    """A lexicon line written in capitals lemmatizes the surface in any case."""
    root = FIXTURES / "hostage"
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text((root / "lexicon.tsv").read_text(encoding="utf-8")
                       + "Captors\tCAPTOR\nTHE\tTHE\n", encoding="utf-8")
    assert run(["ingest", "--corpus", root / "corpus.jsonl", "--lexicon", lexicon,
                "--gazetteer", root / "gazetteer.tsv", "--out-dir", tmp_path]) == 0
    lemmas = {(row[0].lower(), row[1])
              for doc in read_corpus_artifact(tmp_path / "corpus.jsonl").documents
              for s in doc.sentences for row in s.tokens}
    assert {(surface, lemma) for surface, lemma in lemmas
            if surface in ("captors", "the")} == {("captors", "CAPTOR"),
                                                  ("the", "THE")}


def test_corpus_read_without_tokens_refuses_token_use(tmp_path):
    run_pipeline("football", tmp_path)
    corpus = read_corpus_artifact(tmp_path / "corpus.jsonl", tokens=False)
    full = read_corpus_artifact(tmp_path / "corpus.jsonl")
    assert [(d.doc_id, d.source, d.publish_time, d.report_index, len(d.sentences))
            for d in corpus.documents] == \
        [(d.doc_id, d.source, d.publish_time, d.report_index, len(d.sentences))
         for d in full.documents]
    sentence = corpus.documents[0].sentences[0]
    for use in (lambda s: list(s.tokens), lambda s: len(s.tokens),
                lambda s: bool(s.tokens), lambda s: s.tokens[0],
                lambda s: None in s.tokens):
        with pytest.raises(RuntimeError, match="without tokens"):
            use(sentence)


def test_year_below_1000_round_trips_through_the_corpus(tmp_path, capsys):
    root = FIXTURES / "football"
    records = [json.loads(line) for line in
               (root / "corpus.jsonl").read_text().splitlines()]
    for record in records:
        record["publish_time"] = record["publish_time"].replace("2004-", "0999-", 1)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    assert run(["ingest", "--corpus", corpus, "--lexicon", root / "lexicon.tsv",
                "--gazetteer", root / "gazetteer.tsv", "--out-dir", out]) == 0
    written = [json.loads(line)["publish_time"] for line in
               (out / "corpus.jsonl").read_text().splitlines()[1:]]
    assert written and all(t.startswith("0999-") for t in written)
    assert run(["extract", "--ontology", root / "domain.spec",
                "--out-dir", out]) == 0
    assert run(["analyze", "--out-dir", out]) == 0
    report = json.loads((out / "evolution.json").read_text())
    assert report["model"]["t0"].startswith("0999-")
    capsys.readouterr()


@pytest.mark.parametrize("tail", [
    " near a 2 km² compound",           # a digit int() refuses
    " 1000000 days ago",                # a day before date.min
    " " + "9" * 5000 + " weeks ago",    # more digits than int() reads
], ids=["superscript", "before-date-min", "too-many-digits"])
def test_extract_survives_unusable_numbers(tmp_path, capsys, tail):
    """A number no element class can use, or one outside the date range,
    leaves the message at its publication day, as with no expression."""
    root = FIXTURES / "hostage"
    lines = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["text"][0] = first["text"][0].rstrip(".") + tail + "."
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n",
                      encoding="utf-8")
    outputs = []
    for name, path in (("plain", root / "corpus.jsonl"), ("edited", corpus)):
        out = tmp_path / name
        assert run(["ingest", "--corpus", path, "--lexicon", root / "lexicon.tsv",
                    "--gazetteer", root / "gazetteer.tsv", "--out-dir", out]) == 0
        assert run(["extract", "--ontology", root / "domain.spec",
                    "--out-dir", out]) == 0
        outputs.append((out / "messages.jsonl").read_text(encoding="utf-8"))
    assert '"doc_id": "aegean-01", "sentence_index": 0, "time": "2004-09-01"' \
        in outputs[1]
    assert outputs[0] == outputs[1]
    capsys.readouterr()


@pytest.mark.parametrize("window", ["0", "1d"])
@pytest.mark.parametrize("publish", ["0001-01-01T00:00:00Z", "9999-12-31T00:00:00Z"],
                         ids=["first-day", "last-day"])
def test_pipeline_runs_at_the_date_range_ends(tmp_path, capsys, publish, window):
    """A document published on the first or the last day of the date range
    anchors its message on that day, and every stage still runs."""
    lines = (FIXTURES / "hostage" / "corpus.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["publish_time"] = publish
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
    out = tmp_path / "out"
    run_pipeline("hostage", out, window=window, corpus=corpus)
    times = [json.loads(line)["time"]
             for line in (out / "messages.jsonl").read_text().splitlines()]
    assert publish[:10] in times
    capsys.readouterr()


def test_non_ascii_digit_run_anchors_as_one_number(tmp_path, capsys):
    """"١٣" is 13 in Arabic-Indic digits: the message anchors 13 days before
    its publication day, not 3."""
    root = FIXTURES / "hostage"
    lines = (root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["text"][0] = first["text"][0].rstrip(".") + " ١٣ days ago."
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n",
                      encoding="utf-8")
    assert run(["ingest", "--corpus", corpus, "--lexicon", root / "lexicon.tsv",
                "--gazetteer", root / "gazetteer.tsv", "--out-dir", tmp_path]) == 0
    assert run(["extract", "--ontology", root / "domain.spec",
                "--out-dir", tmp_path]) == 0
    assert '"doc_id": "aegean-01", "sentence_index": 0, "time": "2004-08-19"' \
        in (tmp_path / "messages.jsonl").read_text(encoding="utf-8")
    capsys.readouterr()


def test_gold_time_below_year_1000_round_trips(tmp_path, capsys):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["extract", "--ontology", root / "domain.spec", "--mode", "gold",
                "--gold", gold_with(tmp_path, time="0999-09-18"),
                "--out-dir", tmp_path]) == 0
    first = json.loads((tmp_path / "messages.jsonl").read_text().splitlines()[0])
    assert first["time"] == "0999-09-18"
    assert run(hostage_stage("relate", tmp_path)) == 0
    assert run(hostage_stage("summarize", tmp_path)) == 0
    summary = (tmp_path / "s.txt").read_text().splitlines()
    assert summary[0].endswith("item on 0999-09-18; silent: courier, herald, "
                               "late_wire and tribune.")
    capsys.readouterr()


@pytest.mark.parametrize("domain", ["football", "hostage"])
@pytest.mark.parametrize("window", ["0", "1d"])
@pytest.mark.parametrize("seed", [1, 2])
def test_input_order_leaves_artifacts_unchanged(tmp_path, domain, window, seed):
    """Shuffling the raw corpus's documents, or the lines of a gold-mode
    messages.jsonl, changes no artifact downstream of the shuffled file."""
    rng = random.Random(seed)
    run_pipeline(domain, tmp_path / "base", window)
    base = snapshot(tmp_path / "base")

    documents = (FIXTURES / domain / "corpus.jsonl").read_text().splitlines()
    shuffled = documents[:]
    while shuffled == documents:
        rng.shuffle(shuffled)
    (tmp_path / "raw").mkdir()
    corpus = tmp_path / "raw" / "corpus.jsonl"
    corpus.write_text("\n".join(shuffled) + "\n")
    run_pipeline(domain, tmp_path / "documents", window, corpus=corpus)
    assert snapshot(tmp_path / "documents") == base

    messages = (tmp_path / "base" / "messages.jsonl").read_text().splitlines()
    shuffled = messages[:]
    while shuffled == messages:
        rng.shuffle(shuffled)
    out = tmp_path / "messages"
    out.mkdir()
    (out / "corpus.jsonl").write_bytes(base["corpus.jsonl"])
    (out / "messages.jsonl").write_text("\n".join(shuffled) + "\n")
    run_downstream(domain, out, window)
    after = snapshot(out)
    del after["messages.jsonl"], base["messages.jsonl"]
    assert after == base


@pytest.mark.parametrize("domain", ["football", "hostage"])
@pytest.mark.parametrize("window", ["0", "1d"])
def test_relation_and_ellipsis_line_order_leaves_summary_unchanged(
        tmp_path, domain, window):
    """Shuffling the lines of relations.jsonl and ellipsis.jsonl changes
    neither summary.txt nor coverage.json."""
    run_pipeline(domain, tmp_path, window)
    base = {name: (tmp_path / name).read_bytes()
            for name in ("relations.jsonl", "ellipsis.jsonl", "summary.txt",
                         "coverage.json")}
    root = FIXTURES / domain
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for name in ("relations.jsonl", "ellipsis.jsonl"):
            lines = base[name].decode().splitlines(keepends=True)
            rng.shuffle(lines)
            (tmp_path / name).write_text("".join(lines))
        assert (tmp_path / "relations.jsonl").read_bytes() != base["relations.jsonl"]
        assert run(["summarize", "--ontology", root / "domain.spec",
                    "--templates", root / "templates.txt", "--window", window,
                    "--out", tmp_path / "summary.txt",
                    "--out-dir", tmp_path]) == 0
        for name in ("summary.txt", "coverage.json"):
            assert (tmp_path / name).read_bytes() == base[name], (seed, name)


def test_simulate_rejects_empty_bursts(tmp_path, capsys):
    code = run(["simulate", "--kind", "non-linear", "--burst-min", "0",
                "--burst-max", "0", "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "simulate")
    assert err["error"] == "ValueError"
    assert not (tmp_path / "simulated.jsonl").exists()


@pytest.mark.parametrize("kind", ["linear", "non-linear"])
@pytest.mark.parametrize("jitter", ["inf", "nan"])
def test_simulate_rejects_non_finite_jitter(tmp_path, capsys, kind, jitter):
    code = run(["simulate", "--kind", kind, "--jitter", jitter,
                "--out-dir", tmp_path])
    assert code == 2
    err = one_json_error(capsys, "simulate")
    assert err["error"] == "ValueError"
    assert "jitter" in err["detail"]
    assert not (tmp_path / "simulated.jsonl").exists()


@pytest.mark.parametrize("flags,fields", [
    ([], {}),
    (["--burst-min", "3"], {"burst_size": (3, 5)}),
    (["--burst-max", "3"], {"burst_size": (2, 3)}),
    (["--offsets", "0,90,-45", "--seed", "4"],
     {"source_offsets": (0, 90, -45), "seed": 4}),
    (["--offsets", ""], {}),
], ids=["no-flags", "burst-min", "burst-max", "offsets", "empty-offsets"])
@pytest.mark.parametrize("kind", ["linear", "non-linear"])
def test_simulate_leaves_flags_not_given_to_stream_params(tmp_path, kind, flags,
                                                          fields):
    """``simulate`` passes only the flags given: the corpus equals the one
    ``generate_stream`` draws with ``StreamParams``' own defaults for the
    rest (3 sources and 10 reports are the command's own)."""
    from chronicle import evolution

    assert run(["simulate", "--kind", kind, *flags, "--out-dir", tmp_path]) == 0
    expected = tmp_path / "expected.jsonl"
    evolution.write_stream(evolution.generate_stream(
        kind, 3, evolution.StreamParams(**fields), 10), expected)
    assert (tmp_path / "simulated.jsonl").read_bytes() == expected.read_bytes()


def test_analyze_leaves_flags_not_given_to_analyze_corpus(tmp_path):
    from chronicle import evolution

    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["analyze", "--out-dir", tmp_path]) == 0
    corpus = read_corpus_artifact(tmp_path / "corpus.jsonl", tokens=False)
    report = evolution.report_to_json(evolution.analyze_corpus(corpus))
    assert (tmp_path / "evolution.json").read_text() == \
        json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("offsets,detail", [
    ("1,2,3", "--offsets gives 3 offsets for 2 sources"),
    ("1,x", "--offsets: 'x' is not a whole number of minutes"),
    ("1" + "0" * 20,
     "--offsets: 100000000000000000000 minutes is more than a timedelta holds"),
], ids=["more-than-sources", "not-an-integer", "out-of-range"])
def test_simulate_rejects_bad_offsets(tmp_path, capsys, offsets, detail):
    assert run(["simulate", "--kind", "linear", "--sources", "2",
                "--offsets", offsets, "--out-dir", tmp_path]) == 2
    assert one_json_error(capsys, "simulate") == {
        "stage": "simulate", "error": "ValueError", "detail": detail}
    assert not (tmp_path / "simulated.jsonl").exists()


@pytest.mark.parametrize("flags,detail", [
    (["--kind", "linear", "--offsets", "5000000000"],
     "source-1 report 0 leaves the date range: start 2004-01-03 12:00, "
     "offset 5000000000 minutes, period 7 days, 0:00:00"),
    (["--kind", "non-linear", "--inter-gap", "99999999d"],
     "source-1 report 3 leaves the date range: start 2004-01-03 12:00, "
     "offset 0 minutes, intra gap 6:00:00, inter gap 99999999 days, 0:00:00"),
    (["--kind", "linear", "--period", "9999999d"],
     "source-1 report 1 leaves the date range: start 2004-01-03 12:00, "
     "offset 0 minutes, period 9999999 days, 0:00:00"),
], ids=["offsets", "inter-gap", "period"])
def test_simulate_names_the_report_that_leaves_the_date_range(tmp_path, capsys, flags,
                                                              detail):
    assert run(["simulate", *flags, "--out-dir", tmp_path]) == 2
    assert one_json_error(capsys, "simulate") == {
        "stage": "simulate", "error": "OverflowError", "detail": detail}
    assert not (tmp_path / "simulated.jsonl").exists()


def test_simulate_draws_no_gap_past_the_last_report(tmp_path):
    """A gap between bursts that would leave the date range is drawn only
    when a report follows it."""
    assert run(["simulate", "--kind", "non-linear", "--horizon", "1",
                "--inter-gap", "5000000d", "--out-dir", tmp_path]) == 0
    published = [json.loads(line)["publish_time"]
                 for line in (tmp_path / "simulated.jsonl").read_text().splitlines()]
    assert published == ["2004-01-03T12:00:00Z"] * 3


def summarize_hostage(out_dir, window="0"):
    root = FIXTURES / "hostage"
    return run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", window,
                "--out", out_dir / "s.txt", "--out-dir", out_dir])


def test_negative_bucket_budget_exits_2(tmp_path, capsys):
    run_pipeline("hostage", tmp_path)
    capsys.readouterr()
    root = FIXTURES / "hostage"
    assert run(["summarize", "--ontology", root / "domain.spec",
                "--templates", root / "templates.txt", "--window", "0",
                "--bucket-budget", "-5", "--out", tmp_path / "s.txt",
                "--out-dir", tmp_path]) == 2
    err = one_json_error(capsys, "summarize")
    assert err["error"] == "ValueError"
    assert "-5" in err["detail"]
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("stage,flags", [
    ("relate", ["--window", "999999999d"]),
    ("relate", ["--window", "9999999999d"]),
    ("analyze", ["--emission-tolerance", "9999999999d"]),
    ("simulate", ["--kind", "linear", "--period", "999999999d"]),
], ids=["relate-dilation", "relate-window", "analyze-tolerance",
        "simulate-period"])
def test_overflowing_duration_exits_2(tmp_path, capsys, stage, flags):
    """A duration too long for ``timedelta`` exits 2. ``relate`` computes no
    date from its window, so the widest one ``timedelta`` holds is no
    overflow: it relates the hostage days as a century-wide window does."""
    run_pipeline("hostage", tmp_path)
    capsys.readouterr()
    domain = (["--ontology", FIXTURES / "hostage" / "domain.spec"]
              if stage == "relate" else [])
    if flags == ["--window", "999999999d"]:
        century = tmp_path / "century"
        century.mkdir()
        for name in ("corpus.jsonl", "messages.jsonl"):
            (century / name).write_bytes((tmp_path / name).read_bytes())
        assert run([stage, *domain, *flags, "--out-dir", tmp_path]) == 0
        assert run([stage, *domain, "--window", "36500d", "--out-dir", century]) == 0
        for name in ("relations.jsonl", "ellipsis.jsonl"):
            assert (tmp_path / name).read_bytes() == (century / name).read_bytes()
        assert capsys.readouterr().err == ""
        return
    assert run([stage, *domain, *flags, "--out-dir", tmp_path]) == 2
    err = one_json_error(capsys, stage)
    assert err["error"] == "OverflowError"


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1"])
def test_analyze_rejects_threshold_outside_0_to_inf(tmp_path, capsys, threshold):
    root = FIXTURES / "hostage"
    assert run(["ingest", "--corpus", root / "corpus.jsonl",
                "--out-dir", tmp_path]) == 0
    assert run(["analyze", "--residual-threshold", threshold,
                "--out-dir", tmp_path]) == 2
    err = one_json_error(capsys, "analyze")
    assert err["error"] == "ValueError"
    assert "residual threshold" in err["detail"]
    assert not (tmp_path / "evolution.json").exists()


def analyze_times(tmp_path, capsys, times):
    """``ingest``, which must exit 0, then ``analyze`` on one source that
    publishes at ``times``; the exit code of ``analyze``."""
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps({"doc_id": f"d{k}", "source": "s",
                                       "publish_time": t, "text": ["x"]}) + "\n"
                           for k, t in enumerate(times)))
    assert run(["ingest", "--corpus", raw, "--out-dir", tmp_path]) == 0
    capsys.readouterr()
    return run(["analyze", "--out-dir", tmp_path])


def test_analyze_fits_far_future_dates(tmp_path, capsys):
    """The gaps' median period puts the last grid point past year 9999;
    the residual is measured without building that date."""
    times = ["5000-01-01T00:00:00Z", "7000-01-01T00:00:00Z",
             "9000-01-01T00:00:00Z", "9999-01-01T00:00:00Z"]
    assert analyze_times(tmp_path, capsys, times) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "evolution.json").read_text())
    assert report["linearity"] == "non-linear"


def test_too_few_points_counts_distinct_times(tmp_path, capsys):
    """Four reports at two times are two points of the fit, not four."""
    times = ["2004-09-01T00:00:00Z", "2004-09-01T00:00:00Z",
             "2004-09-08T00:00:00Z", "2004-09-08T00:00:00Z"]
    assert analyze_times(tmp_path, capsys, times) == 2
    err = one_json_error(capsys, "analyze")
    assert err["error"] == "TooFewPoints"
    assert err["detail"] == "need at least 3 timestamps, got 2"
    assert not (tmp_path / "evolution.json").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def stage_table() -> dict[str, tuple[list[str], list[str]]]:
    """README's stage table: stage -> (what it reads, what it writes), each
    cell split at its commas."""
    table = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`") and cells[0] != "`stage`":
            stage, reads, writes = cells
            table[stage.strip("`")] = ([r.strip() for r in reads.split(",")],
                                       [w.strip() for w in writes.split(",")])
    return table


def test_each_stage_opens_the_files_the_stage_table_lists(tmp_path, monkeypatch):
    """Every stage reads and writes only its declared artifacts: ``open`` is
    watched while each stage runs on the hostage fixture, and the files it
    opens to read, and to write, are exactly those README's stage table
    lists. ``summarize`` opens neither of ``relate``'s artifacts."""
    root = FIXTURES / "hostage"
    inputs = {"raw corpus (`--corpus`)": root / "corpus.jsonl",
              "lexicon": root / "lexicon.tsv", "gazetteer": root / "gazetteer.tsv",
              "domain": root / "domain.spec", "templates": root / "templates.txt"}

    def path_of(entry):
        return inputs[entry] if entry in inputs else tmp_path / entry.strip("`")

    flags = {
        "ingest": ["--corpus", inputs["raw corpus (`--corpus`)"],
                   "--lexicon", inputs["lexicon"], "--gazetteer", inputs["gazetteer"]],
        "extract": ["--ontology", inputs["domain"]],
        "relate": ["--ontology", inputs["domain"], "--window", "1d"],
        "analyze": [],
        "summarize": ["--ontology", inputs["domain"], "--templates",
                      inputs["templates"], "--window", "1d",
                      "--out", tmp_path / "summary.txt"],
    }
    table = stage_table()
    assert sorted(table) == sorted(flags)
    opened = []
    real_open = builtins.open

    def watched(file, mode="r", *args, **kwargs):
        opened.append((Path(file), bool(set(mode) & set("wax+"))))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", watched)
    for stage, argv in flags.items():
        opened.clear()
        assert run([stage, *argv, "--out-dir", tmp_path]) == 0, stage
        reads, writes = table[stage]
        assert {path for path, write in opened if not write} == \
            set(map(path_of, reads)), stage
        assert {path for path, write in opened if write} == \
            set(map(path_of, writes)), stage


def test_each_stage_walks_the_messages_once_per_entry_point(tmp_path, monkeypatch):
    """The time order is computed once per consumer: ``summarize`` walks the
    messages once and hands that walk to the graph, the relation rows and
    the ellipsis reports; ``relate`` walks once in each of its two traced
    wrappers, ``evaluate_relations`` and ``detect_ellipsis``. No other
    stage walks them."""
    root = FIXTURES / "hostage"
    domain = ["--ontology", root / "domain.spec"]
    real = relations_mod.time_order
    walks = []
    monkeypatch.setattr(relations_mod, "time_order",
                        lambda *args: walks.append(args) or real(*args))
    counted = {}
    for argv in (["ingest", "--corpus", root / "corpus.jsonl",
                  "--lexicon", root / "lexicon.tsv", "--gazetteer", root / "gazetteer.tsv"],
                 ["extract", *domain],
                 ["relate", *domain, "--window", "1d"],
                 ["analyze"],
                 ["summarize", *domain, "--templates", root / "templates.txt",
                  "--window", "1d", "--out", tmp_path / "summary.txt"]):
        walks.clear()
        assert run([*argv, "--out-dir", tmp_path]) == 0, argv[0]
        counted[argv[0]] = len(walks)
    assert counted == {"ingest": 0, "extract": 0, "relate": 2, "analyze": 0,
                       "summarize": 1}


def test_ingest_imports_no_later_stage(tmp_path):
    """Each subcommand imports its stage modules when it runs: a
    ``chronicle ingest`` process ends without extraction, relations,
    evolution or the summarizer loaded."""
    root = FIXTURES / "hostage"
    argv = ["ingest", "--corpus", root / "corpus.jsonl",
            "--lexicon", root / "lexicon.tsv",
            "--gazetteer", root / "gazetteer.tsv", "--out-dir", tmp_path]
    code = ("import sys\n"
            "from chronicle import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('chronicle.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    ingest = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                            capture_output=True, text=True, check=True)
    loaded = set(ingest.stdout.split())
    assert "chronicle.corpus" in loaded
    assert loaded.isdisjoint({"chronicle.extract", "chronicle.relations",
                              "chronicle.summarize", "chronicle.evolution"})
    assert (tmp_path / "corpus.jsonl").is_file()
