"""Mutation test over the artifacts of a hostage run.

One line of ``messages.jsonl``, ``relations.jsonl`` or ``ellipsis.jsonl``
from a hostage run is mutated: a field (at the top level or one level down)
is replaced by a drawn JSON value or dropped, or the whole line is replaced
by drawn JSON. Whatever the mutation of ``messages.jsonl``, ``summarize``
exits 0, or exits 2 with exactly one JSON error line on stderr; an
exception escaping ``chronicle.cli.main`` is a traceback and fails the
test. ``summarize`` derives its relations and ellipsis reports from the
messages and reads neither of the other two, so whatever the mutation of
those, it exits 0 and writes the summary and coverage it wrote before.

``relate`` gets the same mutations of ``messages.jsonl``, and mutations that
set one message's ``time`` to a day, an instant or an interval anywhere in
the date range, its two ends and intervals spanning it included, at
windows from 0 to ``999999999d``, the widest ``timedelta`` holds. It exits
0 or 2 in the same way, and exits 0 whenever only ``time`` changed, to a
valid anchor.

``extract`` gets the same mutations of the file its mode reads besides
the corpus: the gold messages in gold mode, and the ``--train`` records in
statistical mode. It exits 0 or 2 in the same way.

``extract`` (rules mode), ``relate``, ``analyze`` and ``summarize`` get
mutations of one ``corpus.jsonl`` line: its document fields, its
``sentences`` list, one sentence, that sentence's ``tokens`` (a string, an
object, a number or null among them) or one token row (replaced, cut or
grown, or one field replaced). Each stage exits 0 or 2 in the same way;
the three that read no token exit 0 whenever only tokens changed.

The text files get line mutations: a line of ``templates.txt`` into
``summarize``, a line of ``domain.spec`` into ``extract`` (rules and gold
mode), ``relate`` and ``summarize``, and a line of the lexicon or of the
gazetteer into ``ingest``. A line is dropped, doubled, cut, swapped with
the next, or has one of its words, or one character, replaced by a drawn
word, punctuation or placeholder; or a drawn line is inserted. Each stage
exits 0 or 2 with one JSON line.

``ingest`` also gets the record mutations above, of one line of the raw
corpus it reads, and exits 0 or 2 in the same way.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chronicle import cli
from chronicle.errors import UnparsableAnchor
from chronicle.temporal import TimeAnchor
from tests.conftest import FIXTURES

ARTIFACTS = ("messages.jsonl", "relations.jsonl", "ellipsis.jsonl")
ROOT = FIXTURES / "hostage"
WINDOW = "1d"

# values a stage could mistake for valid ones, next to arbitrary JSON
PLAUSIBLE = st.sampled_from([
    "aegean-01", "courier-01", "late_wire", "start", "end", "agreement",
    "synchronic", "diachronic", "2004-09-01", "2004-09-01T10:00:00Z",
    "2004-09-01T10:00:00", "2004-09-03/2004-09-01", "9999-12-31", "0001-01-01",
    0, 1, -1, 2, 10 ** 30, 1.0, True, False, None, "", [], {}])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
VALUES = st.one_of(PLAUSIBLE, JSON)

UTC = timezone.utc
INSTANTS = st.datetimes(timezones=st.just(UTC)) | st.sampled_from(
    [datetime.min.replace(tzinfo=UTC), datetime.max.replace(tzinfo=UTC)])
# anchors anywhere in the date range, written as messages.jsonl writes them
TIMES = st.one_of(
    st.dates().map(TimeAnchor.day),
    INSTANTS.map(TimeAnchor.instant),
    st.tuples(INSTANTS, INSTANTS).map(
        lambda ends: TimeAnchor.interval(*sorted(ends))),
).map(TimeAnchor.to_string) | st.sampled_from([
    "0001-01-01", "9999-12-31", "0001-01-01T00:00:00Z", "9999-12-31T23:59:00Z",
    "0001-01-01T00:00:00Z/9999-12-31T23:59:00Z",
    "9999-12-31T23:59:00Z/0001-01-01T00:00:00Z"])
RELATE_WINDOWS = ["0", "1m", "90m", "1d", "999999999d"]


@pytest.fixture(scope="module")
def hostage_run(tmp_path_factory):
    """A directory holding one hostage pipeline run at the test window."""
    out = tmp_path_factory.mktemp("hostage")
    for argv in (
            ["ingest", "--corpus", ROOT / "corpus.jsonl",
             "--lexicon", ROOT / "lexicon.tsv",
             "--gazetteer", ROOT / "gazetteer.tsv", "--out-dir", out],
            ["extract", "--ontology", ROOT / "domain.spec", "--mode", "gold",
             "--gold", ROOT / "gold_messages.jsonl", "--out-dir", out],
            ["relate", "--ontology", ROOT / "domain.spec",
             "--window", WINDOW, "--out-dir", out]):
        assert cli.main([str(a) for a in argv]) == 0
    return out


def field_paths(record) -> list[tuple[str, ...]]:
    """Every field of a record and of the objects directly inside it."""
    if not isinstance(record, dict):
        return []
    paths = []
    for key, value in record.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


@st.composite
def mutations(draw, lines: list[str]):
    """(line index, new line text) for one mutated line of ``lines``."""
    index = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    how = draw(st.sampled_from(["replace", "drop", "line"]))
    if how == "line":
        return index, json.dumps(draw(VALUES))
    *outer, key = draw(st.sampled_from(field_paths(record)))
    target = record[outer[0]] if outer else record
    if how == "drop":
        del target[key]
    else:
        target[key] = draw(VALUES)
    return index, json.dumps(record)


@st.composite
def time_mutations(draw, lines: list[str]):
    """(line index, new line text) for one message whose ``time`` is set to
    a drawn anchor string."""
    index = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[index])
    record["time"] = draw(TIMES)
    return index, json.dumps(record)


def run_stage(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def summarize(out: Path) -> tuple[int, str]:
    return run_stage(["summarize", "--ontology", ROOT / "domain.spec",
                      "--templates", ROOT / "templates.txt", "--window", WINDOW,
                      "--out", out / "summary.txt", "--out-dir", out])


def assert_exit_0_or_one_error(code: int, err: str, stage: str):
    assert code in (0, 2), (code, err)
    if code == 2:
        err_lines = err.splitlines()
        assert len(err_lines) == 1, err_lines
        assert json.loads(err_lines[0])["stage"] == stage
    else:
        assert err == ""


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_mutated_summarize_input_exits_0_or_2(hostage_run, artifact):
    path = hostage_run / artifact
    original = path.read_text()
    lines = original.splitlines()
    assert summarize(hostage_run) == (0, "")
    written = {name: (hostage_run / name).read_bytes()
               for name in ("summary.txt", "coverage.json")}

    @settings(derandomize=True, deadline=None, max_examples=60, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutations(lines))
    def check(mutation):
        index, text = mutation
        path.write_text("\n".join(lines[:index] + [text] + lines[index + 1:]) + "\n")
        try:
            code, err = summarize(hostage_run)
        finally:
            path.write_text(original)
        assert_exit_0_or_one_error(code, err, "summarize")
        if artifact != "messages.jsonl":
            assert code == 0, err
            for name, data in written.items():
                assert (hostage_run / name).read_bytes() == data, name

    check()


def valid_time_only(original: str, text: str) -> bool:
    """Whether ``text`` is the ``original`` record with only its ``time``
    changed, to a valid anchor."""
    record = json.loads(text)
    if not isinstance(record, dict) or not isinstance(record.get("time"), str):
        return False
    try:
        TimeAnchor.from_string(record["time"])
    except UnparsableAnchor:
        return False
    return {**record, "time": None} == {**json.loads(original), "time": None}


@pytest.mark.parametrize("window", RELATE_WINDOWS)
def test_mutated_relate_input_exits_0_or_2(hostage_run, tmp_path, window):
    for name in ("corpus.jsonl", "messages.jsonl"):
        shutil.copy(hostage_run / name, tmp_path / name)
    path = tmp_path / "messages.jsonl"
    lines = path.read_text().splitlines()
    argv = ["relate", "--ontology", ROOT / "domain.spec", "--window", window,
            "--out-dir", tmp_path]

    @settings(derandomize=True, deadline=None, max_examples=60, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(mutations(lines), time_mutations(lines)))
    def check(mutation):
        index, text = mutation
        path.write_text("\n".join(lines[:index] + [text] + lines[index + 1:]) + "\n")
        code, err = run_stage(argv)
        assert_exit_0_or_one_error(code, err, "relate")
        if valid_time_only(lines[index], text):
            assert code == 0, err

    check()


# per mode, the file ``extract`` reads besides the corpus, and the flags
# that name it
EXTRACT_INPUTS = {
    "gold": ("gold_messages.jsonl", ["--mode", "gold", "--gold"]),
    "statistical": ("train.jsonl", ["--mode", "statistical",
                                    "--lexicon", ROOT / "lexicon.tsv",
                                    "--gazetteer", ROOT / "gazetteer.tsv",
                                    "--train"]),
}


@pytest.mark.parametrize("mode", sorted(EXTRACT_INPUTS))
def test_mutated_extract_input_exits_0_or_2(hostage_run, tmp_path, mode):
    shutil.copy(hostage_run / "corpus.jsonl", tmp_path / "corpus.jsonl")
    name, flags = EXTRACT_INPUTS[mode]
    path = tmp_path / name
    lines = (ROOT / name).read_text().splitlines()
    argv = ["extract", "--ontology", ROOT / "domain.spec", *flags, path,
            "--out-dir", tmp_path]

    @settings(derandomize=True, deadline=None, max_examples=60, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(mutations(lines), time_mutations(lines))
           if mode == "gold" else mutations(lines))
    def check(mutation):
        index, text = mutation
        path.write_text("\n".join(lines[:index] + [text] + lines[index + 1:]) + "\n")
        code, err = run_stage(argv)
        assert_exit_0_or_one_error(code, err, "extract")

    check()


CORPUS_STAGES = {
    "extract": ["--ontology", ROOT / "domain.spec", "--mode", "rules"],
    "relate": ["--ontology", ROOT / "domain.spec", "--window", WINDOW],
    "analyze": [],
    "summarize": ["--ontology", ROOT / "domain.spec", "--templates",
                  ROOT / "templates.txt", "--window", WINDOW],
}
# values for a sentence's ``tokens`` that are not an array of rows
NOT_ROWS = st.sampled_from(["", "tokens", {}, {"surface": "x"}, 0, 7.5, True,
                            None]) | VALUES


@st.composite
def corpus_mutations(draw, lines: list[str]):
    """(line index, new line text, whether only tokens changed) for one
    mutated document line of ``corpus.jsonl``."""
    index = draw(st.integers(1, len(lines) - 1))
    record = json.loads(lines[index])
    sentences = record["sentences"]
    how = draw(st.sampled_from(["sentences", "sentence", "tokens", "row",
                                "row length", "row field"]))
    if how == "sentences":
        if draw(st.booleans()):
            record["sentences"] = draw(VALUES)
        else:
            del sentences[draw(st.integers(0, len(sentences) - 1))]
        return index, json.dumps(record), False
    sentence = sentences[draw(st.integers(0, len(sentences) - 1))]
    if how == "sentence":
        key = draw(st.sampled_from(["index", "text", "tokens", None]))
        if key is None:
            sentences[sentences.index(sentence)] = draw(VALUES)
        elif draw(st.booleans()):
            del sentence[key]
        else:
            sentence[key] = draw(VALUES)
        return index, json.dumps(record), key == "tokens"
    rows = sentence["tokens"]
    if how == "tokens" or not rows:
        sentence["tokens"] = draw(NOT_ROWS)
        return index, json.dumps(record), True
    at = draw(st.integers(0, len(rows) - 1))
    if how == "row":
        rows[at] = draw(VALUES)
    elif how == "row length":
        rows[at] = rows[at][:draw(st.integers(0, 4))] + \
            draw(st.lists(VALUES, max_size=2))
    else:
        rows[at][draw(st.integers(0, 4))] = draw(VALUES)
    return index, json.dumps(record), True


@pytest.mark.parametrize("stage", sorted(CORPUS_STAGES))
def test_mutated_corpus_exits_0_or_2(hostage_run, tmp_path, stage):
    for name in ("corpus.jsonl",) + ARTIFACTS:
        shutil.copy(hostage_run / name, tmp_path / name)
    path = tmp_path / "corpus.jsonl"
    lines = path.read_text().splitlines()
    argv = [stage, *CORPUS_STAGES[stage], "--out-dir", tmp_path]
    if stage == "summarize":
        argv[-2:-2] = ["--out", tmp_path / "summary.txt"]

    @settings(derandomize=True, deadline=None, max_examples=60, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(
        mutations(lines).map(lambda mutation: (*mutation, False)),
        corpus_mutations(lines)))
    def check(mutation):
        index, text, only_tokens = mutation
        path.write_text("\n".join(lines[:index] + [text] + lines[index + 1:]) + "\n")
        code, err = run_stage(argv)
        assert_exit_0_or_one_error(code, err, stage)
        if only_tokens and stage != "extract":
            assert code == 0, err

    check()


# words a spec or template line could hold, next to arbitrary text
WORDS = st.sampled_from([
    "", " ", "concept", "instance", "scale", "message", "relation", "trigger",
    "template", "Person", "Entity", "Activity", "captors", "occupation",
    "start", "end", "negotiate", "agreement", "entity", "entity_1", "about",
    "axis=synchronic", "axis=diachronic", "axis=", "left=start", "right=end",
    "left=", "distance>=1", "distance==0", "distance>=-1", "distance==99999999999999999999",
    "symmetric", "where", "&&", "==", "!=", "<", ">", ":", ",", "(", ")", "[",
    "]", "{", "}", '"', "#", "\\", "=", "on", "requires", "NOBODY", "é",
    "left.entity", "right.activity", 'left.entity == "captors"',
    "{date}", "{sources}", "{left.type}", "{right.nosuch}", "{nosuch}",
    "{source}", "{silent}", "{0}", "{left.}", "{{", "}}", "{left.0}",
]) | st.text(max_size=8)


@st.composite
def line_mutations(draw, lines: list[str]) -> list[str]:
    """``lines`` with one line dropped, doubled, cut, swapped with the next
    or changed in one word or character, or with a drawn line inserted."""
    lines = list(lines)
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    how = draw(st.sampled_from(["drop", "double", "cut", "swap", "word",
                                "char", "insert"]))
    if how == "drop":
        del lines[index]
    elif how == "double":
        lines.insert(index, line)
    elif how == "cut":
        lines[index] = line[:draw(st.integers(0, len(line)))]
    elif how == "swap" and index + 1 < len(lines):
        lines[index], lines[index + 1] = lines[index + 1], line
    elif how == "word":
        words = line.split(" ")
        words[draw(st.integers(0, len(words) - 1))] = draw(WORDS)
        lines[index] = " ".join(words)
    elif how == "char" and line:
        at = draw(st.integers(0, len(line) - 1))
        lines[index] = line[:at] + draw(WORDS) + line[at + 1:]
    else:
        lines.insert(index, " ".join(draw(st.lists(WORDS, max_size=8))))
    return lines


SPEC_STAGES = {
    "extract": ["--mode", "rules"],
    "extract-gold": ["--mode", "gold", "--gold", ROOT / "gold_messages.jsonl"],
    "relate": ["--window", WINDOW],
    "summarize": ["--templates", ROOT / "templates.txt", "--window", WINDOW],
}


def mutate_text_file(source: Path, target: Path, argv: list, stage: str):
    """Run ``argv`` once per drawn line mutation of ``source``, written to
    ``target``, and require exit 0 or exit 2 with one JSON line."""
    lines = source.read_text(encoding="utf-8").splitlines()

    @settings(derandomize=True, deadline=None, max_examples=150, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(line_mutations(lines))
    def check(mutated):
        target.write_text("".join(line + "\n" for line in mutated), encoding="utf-8")
        code, err = run_stage(argv)
        assert_exit_0_or_one_error(code, err, stage)

    check()


@pytest.mark.parametrize("stage", sorted(SPEC_STAGES))
def test_mutated_spec_exits_0_or_2(hostage_run, tmp_path, stage):
    for name in ("corpus.jsonl",) + ARTIFACTS:
        shutil.copy(hostage_run / name, tmp_path / name)
    spec = tmp_path / "domain.spec"
    command = stage.split("-")[0]
    argv = [command, "--ontology", spec, *SPEC_STAGES[stage], "--out-dir", tmp_path]
    if command == "summarize":
        argv[-2:-2] = ["--out", tmp_path / "summary.txt"]
    mutate_text_file(ROOT / "domain.spec", spec, argv, command)


def test_mutated_templates_exit_0_or_2(hostage_run, tmp_path):
    for name in ("corpus.jsonl",) + ARTIFACTS:
        shutil.copy(hostage_run / name, tmp_path / name)
    templates = tmp_path / "templates.txt"
    argv = ["summarize", "--ontology", ROOT / "domain.spec", "--templates",
            templates, "--window", WINDOW, "--out", tmp_path / "summary.txt",
            "--out-dir", tmp_path]
    mutate_text_file(ROOT / "templates.txt", templates, argv, "summarize")


INGEST_INPUTS = {"--corpus": "corpus.jsonl", "--lexicon": "lexicon.tsv",
                 "--gazetteer": "gazetteer.tsv"}


@pytest.mark.parametrize("flag", sorted(INGEST_INPUTS))
def test_mutated_ingest_input_exits_0_or_2(tmp_path, flag):
    name = INGEST_INPUTS[flag]
    path = tmp_path / name
    argv = ["ingest", "--out-dir", tmp_path]
    for other, other_name in INGEST_INPUTS.items():
        argv += [other, path if other == flag else ROOT / other_name]
    if flag != "--corpus":
        mutate_text_file(ROOT / name, path, argv, "ingest")
        return
    lines = (ROOT / name).read_text(encoding="utf-8").splitlines()

    @settings(derandomize=True, deadline=None, max_examples=60, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutations(lines))
    def check(mutation):
        index, text = mutation
        path.write_text("\n".join(lines[:index] + [text] + lines[index + 1:]) + "\n",
                        encoding="utf-8")
        code, err = run_stage(argv)
        assert_exit_0_or_one_error(code, err, "ingest")

    check()
