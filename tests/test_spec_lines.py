"""The spec line parser against the cursor-only parser it replaced.

``instance`` and ``concept`` lines are tried against whole-line patterns
first, and every other line, or one the patterns refuse, goes to the
cursor. On random lines built from keywords, names with and without ``-``,
punctuation, spaces, tabs, carriage returns, comments, non-ASCII letters
and truncations, and on every shipped spec, the parser must give the same
statement, or the same error with the same text, as ``parse_line_oracle``
in ``tests/oracles.py``.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from chronicle.ontology import _parse_line, parse_spec_file
from tests.oracles import parse_line_oracle

ROOT = Path(__file__).resolve().parent.parent

KEYWORDS = ["instance", "concept", "scale", "message", "relation", "trigger"]
CONCEPTS = ["Person", "Entity", "captors", "Red_Cross", "_x9"]
NAMES = CONCEPTS + ["al-jazeera", "x-", "a-b-c"]
# names that neither pattern nor cursor takes whole: non-ASCII letters
# (some fold to ASCII under case-insensitive matching), a leading digit
# or hyphen
ODD_NAMES = ["Élan", "Ωmega", "naïve", "\u212a", "ı", "9lives", "-lead"]
BLANKS = ["", " ", "  ", "\t", " \t "]
# blanks that ``str.strip`` removes and the cursor does not skip
ODD_BLANKS = ["\r", "\x0c", "\u00a0"]
PIECES = KEYWORDS + NAMES + ODD_NAMES + BLANKS + ODD_BLANKS + list(":<=#-,()")


def blank(rng: random.Random) -> str:
    return rng.choice(ODD_BLANKS if rng.random() < 0.05 else BLANKS)


def name(rng: random.Random, pool: list[str] = NAMES) -> str:
    """Mostly a name from ``pool``, sometimes any name at all."""
    return rng.choice(pool if rng.random() < 0.85 else NAMES + ODD_NAMES)


def statement_line(rng: random.Random) -> str:
    """An instance or concept line, or another keyword in the same shape."""
    lead, after, b1, b2, b3 = (blank(rng) for _ in range(5))
    keyword = rng.choice(["instance", "concept"] * 4 + KEYWORDS)
    # a keyword that runs into the name makes a longer, unknown keyword
    first = name(rng, CONCEPTS if keyword == "concept" else NAMES)
    head = f"{lead}{keyword}{after or rng.choice([' '] * 9 + [''])}{first}{b1}"
    second = name(rng, CONCEPTS)
    tails = {"": "", ":": f":{b2}{second}{b3}", "<": f"<{b2}{second}{b3}"}
    # mostly the tail the keyword takes, sometimes the other one or none
    form = rng.choice(["", "<"]) if keyword == "concept" else ":"
    return head + tails[form if rng.random() < 0.8 else rng.choice(list(tails))]


def random_line(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 8)))
    line = statement_line(rng)
    roll = rng.random()
    if roll < 0.1:
        line = line[:rng.randint(0, len(line))]
    elif roll < 0.2:
        at = rng.randint(0, len(line))
        line = line[:at] + rng.choice(PIECES) + line[at:]
    elif roll < 0.25:
        line = rng.choice(["#", " #", "\r", "\t\r"]) + line
    elif roll < 0.3:
        line += rng.choice(["\r", " # note", "\x0c", " x"])
    return line


def outcome(parse, line: str):
    """The statement, or the exception class and text, a parser gives."""
    try:
        st = parse(line, 7, "d.spec")
    except Exception as exc:  # every class counts, so any difference shows
        return type(exc).__name__, str(exc)
    return None if st is None else (st.kind, st.line, st.data)


@pytest.mark.parametrize("seed", range(8))
def test_random_lines_parse_as_the_cursor_parses_them(seed):
    rng = random.Random(seed)
    kinds = Counter()
    for _ in range(400):
        line = random_line(rng)
        expected = outcome(parse_line_oracle, line)
        assert outcome(_parse_line, line) == expected, repr(line)
        kinds[expected[0] if expected else None] += 1
    # the lines reach both fast forms, the cursor's errors and blank lines
    assert kinds["instance"] and kinds["concept"] and kinds["DslSyntaxError"]
    assert kinds[None]


SPECS = sorted([*ROOT.glob("fixtures/**/*.spec"),
                *ROOT.glob("benchmarks/domains/**/*.spec")])


@pytest.mark.parametrize("path", SPECS, ids=lambda p: str(p.relative_to(ROOT)))
def test_shipped_specs_parse_to_the_same_statements(path):
    expected = []
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            st = parse_line_oracle(raw.rstrip("\n"), ln, str(path))
            if st is not None:
                expected.append(st)
    assert parse_spec_file(path) == expected
