"""Every input timestamp reads the same on every supported Python.

A raw document's ``publish_time`` and a gold message's ``time`` go through
one pattern (``corpus.read_timestamp``): a day ``YYYY-MM-DD``, or a day, then
``T``, ``t`` or a space, then ``HH:MM`` with optional ``:SS`` and a 3- or
6-digit fraction, then ``Z``, ``z``, ``±HH:MM`` or no zone (UTC), in ASCII
digits; a gold interval is two of them joined by ``/``. ``fromisoformat``
alone accepts more from Python 3.11 on (basic formats, week dates, hour-only
times, any fraction length), and 3.10's accepts any separator character, so
the table below names strings on both sides of each of those edges. Each
string runs through ``parse_rfc3339``, ``TimeAnchor.from_string``, ``ingest``
and ``extract --mode gold``.
"""

from __future__ import annotations

import json
import shutil

import pytest

from chronicle import cli
from chronicle.corpus import format_rfc3339, parse_rfc3339
from chronicle.errors import UnparsableAnchor, UnparsableTimestamp
from chronicle.temporal import TimeAnchor
from tests.conftest import FIXTURES

ROOT = FIXTURES / "hostage"

# (text, what it reads as as a publish_time, what as a gold time): the
# canonical string that ingest or extract writes for it, or None where the
# text is rejected.
VERDICTS = [
    # the forms the fixtures, the README and the benchmark generator write
    ("2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01", "2004-09-01T00:00:00Z", "2004-09-01"),
    ("2004-09-01T10:00:00Z/2004-09-02T10:00:00Z", None,
     "2004-09-01T10:00:00Z/2004-09-02T10:00:00Z"),
    # separators, zones, seconds and fractions
    ("2004-09-01t10:00:00Z", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01 10:00:00z", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01T10:00", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01T10:00Z", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01T10:00:00", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01T10:00:00+02:00", "2004-09-01T08:00:00Z", "2004-09-01T08:00:00Z"),
    ("2004-09-01T10:00-05:30", "2004-09-01T15:30:00Z", "2004-09-01T15:30:00Z"),
    ("2004-09-01T23:30:00-01:00", "2004-09-02T00:30:00Z", "2004-09-02T00:30:00Z"),
    ("2004-09-01T10:00:59.999Z", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01T10:00:00.123456+00:00", "2004-09-01T10:00:00Z",
     "2004-09-01T10:00:00Z"),
    (" 2004-09-01T10:00:00Z\n", "2004-09-01T10:00:00Z", "2004-09-01T10:00:00Z"),
    ("2004-09-01/2004-09-02", None, "2004-09-01T00:00:00Z/2004-09-02T00:00:00Z"),
    ("2004-09-01T10:00Z / 2004-09-01T10:00Z", None,
     "2004-09-01T10:00:00Z/2004-09-01T10:00:00Z"),
    ("0001-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "0001-01-01T00:00:00Z"),
    ("9999-12-31T23:59:59Z", "9999-12-31T23:59:00Z", "9999-12-31T23:59:00Z"),
    # accepted by Python 3.10's fromisoformat alone
    ("2004-09-01x10:00", None, None),
    ("2004-09-01\t10:00", None, None),
    ("2004-09-01Z", None, None),
    ("2004-09-01T10", None, None),
    ("2004-09-01T10:00:00+02:00:30", None, None),
    ("2004-09-01T10:00:00+02:00:00", None, None),
    ("2004-09-01T10:00+01:75", None, None),
    ("2004-09-01T10:00:00+00:60", None, None),
    ("2004-09-01T10:00:00 Z", None, None),
    ("2004-09-01T10:00:00ZZ", None, None),
    # accepted by fromisoformat from Python 3.11 on
    ("20040901", None, None),
    ("20040901T000000Z", None, None),
    ("2004-W36-3", None, None),
    ("2004-09-01T1000", None, None),
    ("2004-09-01T10:00.5", None, None),
    ("2004-09-01T10:00:00.1Z", None, None),
    ("2004-09-01T10:00:00.1234Z", None, None),
    ("2004-09-01T10:00:00.123456789Z", None, None),
    ("2004-09-01T10:00:00,123Z", None, None),
    ("2004-09-01T10:00:00+0200", None, None),
    ("2004-09-01T10:00:00+02", None, None),
    ("2004-09-01T10:00:00+02:00:30.5", None, None),
    # rejected everywhere: out of range, or digits that are not ASCII
    ("2004-13-01", None, None),
    ("2004-02-30", None, None),
    ("0000-01-01", None, None),
    ("2004-09-01T24:00", None, None),
    ("2004-09-01T23:60", None, None),
    ("2004-09-01T23:59:60", None, None),
    ("2004-09-01T10:00+24:00", None, None),
    ("0001-01-01T00:00:00+01:00", None, None),
    ("9999-12-31T23:59:00-01:00", None, None),
    ("٢٠٠٤-09-01", None, None),
    ("２００４-09-01", None, None),
    ("2004-09-01T١٠:00", None, None),
    ("2004-9-1", None, None),
    ("2004-09", None, None),
    # intervals that are not two timestamps, first not after the second
    ("2004-09-02/2004-09-01", None, None),
    ("2004-09-01/2004-09-02/2004-09-03", None, None),
    ("2004-09-01/", None, None),
    ("yesterday", None, None),
]
IDS = [repr(text) for text, _, _ in VERDICTS]


@pytest.mark.parametrize("text, publish, anchor", VERDICTS, ids=IDS)
def test_parsers_agree_with_the_table(text, publish, anchor):
    if publish is None:
        with pytest.raises(UnparsableTimestamp):
            parse_rfc3339(text)
    else:
        assert format_rfc3339(parse_rfc3339(text)) == publish
    if anchor is None:
        with pytest.raises(UnparsableAnchor):
            TimeAnchor.from_string(text)
    else:
        assert TimeAnchor.from_string(text).to_string() == anchor


def run_stage(argv, capsys) -> tuple[int, dict | None]:
    """The exit code and the JSON error line of one CLI stage."""
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    return code, json.loads(err) if err else None


@pytest.mark.parametrize("text, publish, anchor", VERDICTS, ids=IDS)
def test_ingest_agrees_with_the_table(tmp_path, capsys, text, publish, anchor):
    lines = (ROOT / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["publish_time"] = text
    corpus = tmp_path / "corpus-in.jsonl"
    corpus.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n",
                      encoding="utf-8")
    code, error = run_stage(["ingest", "--corpus", corpus, "--out-dir", tmp_path],
                            capsys)
    if publish is None:
        assert code == 2
        assert error["error"] == "UnparsableTimestamp"
        assert error["detail"].startswith(f"{corpus}:1: ")
        return
    assert code == 0
    artifact = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8")
    written = [rec["publish_time"] for rec in map(json.loads, artifact.splitlines())
               if rec.get("doc_id") == first["doc_id"]]
    assert written == [publish]


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    out = tmp_path_factory.mktemp("ingested")
    assert cli.main(["ingest", "--corpus", str(ROOT / "corpus.jsonl"),
                     "--out-dir", str(out)]) == 0
    return out / "corpus.jsonl"


@pytest.mark.parametrize("text, publish, anchor", VERDICTS, ids=IDS)
def test_gold_extract_agrees_with_the_table(tmp_path, capsys, ingested, text,
                                            publish, anchor):
    shutil.copy(ingested, tmp_path / "corpus.jsonl")
    lines = (ROOT / "gold_messages.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["time"] = text
    gold = tmp_path / "gold.jsonl"
    gold.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n",
                    encoding="utf-8")
    code, error = run_stage(["extract", "--ontology", ROOT / "domain.spec",
                             "--mode", "gold", "--gold", gold,
                             "--out-dir", tmp_path], capsys)
    if anchor is None:
        assert code == 2
        assert error["error"] == "UnparsableAnchor"
        assert error["detail"].startswith(f"{gold}:1: ")
        return
    assert code == 0
    messages = (tmp_path / "messages.jsonl").read_text(encoding="utf-8")
    assert json.loads(messages.splitlines()[0])["time"] == anchor
