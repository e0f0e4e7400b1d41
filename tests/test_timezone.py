"""Results must not depend on the host time zone.

The date-sensitive tests run again in a child interpreter whose local zone
is nine hours ahead of UTC, so a naive datetime read as host-local time
lands on another day and fails them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_date_sensitive_tests_pass_outside_utc():
    # a POSIX zone string needs no tz database; a named zone that the host
    # lacks would fall back to UTC and check nothing
    env = dict(os.environ, TZ="JST-9")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    offset = subprocess.run(
        [sys.executable, "-c", "import time; print(time.localtime().tm_gmtoff)"],
        env=env, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    assert offset == str(9 * 3600)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_temporal.py",
         "tests/test_acceptance.py::test_criterion_4_temporal_vectors"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
