"""The ``test`` extra in pyproject.toml and the tier-1 workflow install the
same pytest and hypothesis: the derandomized hypothesis tests draw examples
that depend on the hypothesis version, so both must say the same. Both
files are read as text, since Python 3.10 has no ``tomllib``."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED_IN = ["pyproject.toml", ".github/workflows/tier1.yml"]


@pytest.mark.parametrize("package", ["pytest", "hypothesis"])
def test_pyproject_and_workflow_pin_one_version(package):
    pin = re.compile(rf"\b{package}==([0-9][0-9A-Za-z.]*)")
    pins = {name: set(pin.findall((ROOT / name).read_text(encoding="utf-8")))
            for name in PINNED_IN}
    assert all(len(found) == 1 for found in pins.values()), pins
    assert pins[PINNED_IN[0]] == pins[PINNED_IN[1]], pins
