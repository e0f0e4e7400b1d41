"""Event evolution analysis and synthetic stream generation.

An event evolves linearly when its incidents arrive on a fixed-period grid
t_n = t0 + n*period. The fitted period is the median inter-arrival gap and
the residual is the worst absolute deviation from the grid as a fraction of
the period; the statistic is robust to one outlier and directly reflects
the constant-quanta reading of linearity. Emission is synchronous when all
sources publish the same number of reports and the k-th reports of every
source fall within the alignment tolerance of each other.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

from .corpus import (Corpus, build_corpus, format_rfc3339, minutes_since_epoch,
                     write_records)
from .errors import TooFewPoints

UTC = timezone.utc

LINEAR = "linear"
NON_LINEAR = "non-linear"
SYNCHRONOUS = "synchronous"
ASYNCHRONOUS = "asynchronous"


class LinearModel(NamedTuple):
    t0: datetime
    period: timedelta
    residual: float     # max |t_n - (t0 + n*period)| / period


def fit_linear(times: list[datetime]) -> LinearModel:
    """Fit the fixed-period grid to >= 3 strictly increasing timestamps."""
    if len(times) < 3:
        raise TooFewPoints(len(times))
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("timestamps must be strictly increasing")
    gaps = [b - a for a, b in zip(times, times[1:])]
    period = statistics.median(gaps)
    t0 = times[0]
    # never t0 + n*period: a grid point can lie past year 9999
    residual = max(abs((t - t0) - n * period) / period
                   for n, t in enumerate(times))
    return LinearModel(t0=t0, period=period, residual=residual)


class EmissionProfile(NamedTuple):
    """Per-source report timestamps, sorted by source name."""

    reports: tuple[tuple[str, tuple[datetime, ...]], ...]

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "EmissionProfile":
        per_source: dict[str, list[datetime]] = {}
        for d in corpus.documents:
            per_source.setdefault(d.source, []).append(d.publish_time)
        return cls(tuple((s, tuple(sorted(ts)))
                         for s, ts in sorted(per_source.items())))

    def first_report_lags(self) -> dict[str, timedelta]:
        firsts = {s: ts[0] for s, ts in self.reports if ts}
        earliest = min(firsts.values())
        return {s: t - earliest for s, t in firsts.items()}


def classify_emission(profile: EmissionProfile,
                      alignment_tolerance: timedelta) -> str:
    """Synchronous iff report counts agree and every k-th report cohort
    spans at most the tolerance (boundary inclusive)."""
    counts = {len(ts) for _, ts in profile.reports}
    if len(counts) != 1:
        return ASYNCHRONOUS
    n = counts.pop()
    for k in range(n):
        kth = [ts[k] for _, ts in profile.reports]
        if max(kth) - min(kth) > alignment_tolerance:
            return ASYNCHRONOUS
    return SYNCHRONOUS


class EvolutionReport(NamedTuple):
    linearity: str
    model: LinearModel | None
    emission: str
    profile: EmissionProfile
    residual_threshold: float
    alignment_tolerance: timedelta


def analyze_corpus(corpus: Corpus, residual_threshold: float = 0.1,
                   alignment_tolerance: timedelta = timedelta(hours=1)) -> EvolutionReport:
    """Classify the event behind a corpus.

    The event is linear when every source with >= 3 distinct report times
    publishes on a fixed-period grid; the aggregate model takes the earliest
    first report, the median per-source period and the worst per-source
    residual. With no such source it raises TooFewPoints with the largest
    number of distinct times any source has. A single-source corpus is
    vacuously synchronous. The residual threshold must be finite and not
    negative, and so must the alignment tolerance.
    """
    if not 0 <= residual_threshold < math.inf:
        raise ValueError(f"residual threshold must be finite and >= 0, "
                         f"got {residual_threshold!r}")
    if alignment_tolerance < timedelta(0):
        raise ValueError(f"alignment tolerance must be >= 0, "
                         f"got {alignment_tolerance}")
    profile = EmissionProfile.from_corpus(corpus)
    distinct = [tuple(dict.fromkeys(times)) for _, times in profile.reports]
    fits = [fit_linear(times) for times in distinct if len(times) >= 3]
    if not fits:
        raise TooFewPoints(max(map(len, distinct), default=0))
    residual = max(f.residual for f in fits)
    linearity = LINEAR if residual <= residual_threshold else NON_LINEAR
    model = None
    if linearity == LINEAR:
        model = LinearModel(
            t0=min(f.t0 for f in fits),
            period=statistics.median([f.period for f in fits]),
            residual=residual)
    return EvolutionReport(
        linearity=linearity, model=model,
        emission=classify_emission(profile, alignment_tolerance),
        profile=profile,
        residual_threshold=residual_threshold,
        alignment_tolerance=alignment_tolerance)


def report_to_json(report: EvolutionReport) -> dict:
    lags = report.profile.first_report_lags()
    out = {
        "linearity": report.linearity,
        "emission": report.emission,
        "residual_threshold": report.residual_threshold,
        "alignment_tolerance_minutes":
            int(report.alignment_tolerance.total_seconds() // 60),
        "sources": {
            s: {
                "count": len(ts),
                "first_report": format_rfc3339(ts[0]),
                "first_report_lag_minutes":
                    int(lags[s].total_seconds() // 60),
            }
            for s, ts in report.profile.reports
        },
    }
    if report.model is not None:
        out["model"] = {
            "t0": format_rfc3339(report.model.t0),
            "period_minutes": report.model.period.total_seconds() / 60,
            "residual": report.model.residual,
        }
    return out


# ---------------------------------------------------------------------------
# Synthetic streams

class _StreamFields(NamedTuple):
    seed: int = 0
    start: datetime = datetime(2004, 1, 3, 12, 0, tzinfo=UTC)
    period: timedelta = timedelta(weeks=1)
    jitter: float = 0.0                      # fraction of period, uniform +/-
    source_offsets: tuple[int, ...] = ()     # minutes, per source
    burst_size: tuple[int, int] = (2, 5)
    intra_burst_gap: timedelta = timedelta(hours=6)
    inter_burst_gap: timedelta = timedelta(days=4)


class StreamParams(_StreamFields):
    """Generator knobs. Linear streams place reports on a jittered grid;
    non-linear streams draw bursts of short gaps separated by long ones.

    Jitter displaces alternate grid points only: consecutive gaps then pair
    up symmetrically around the period, so for an odd number of reports the
    median inter-arrival gap recovers the period exactly and the fit
    residual never exceeds the jitter fraction. With jitter <= 0.02 a
    linear stream therefore always classifies linear at the default 0.1
    threshold; with inter_burst_gap >= 4x intra_burst_gap a bursty stream
    always classifies non-linear (both checked by tests). The checks live
    in ``__new__``, which ``_replace`` and ``_make`` skip.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        low, high = self.burst_size
        if not 1 <= low <= high:
            # a burst of zero reports never advances a non-linear stream
            raise ValueError(f"burst size needs 1 <= min <= max, got {low}..{high}")
        if not 0 <= self.jitter < 1:
            # NaN fails too; at 1 or above a displaced report can reach its
            # neighbour, and the gaps no longer pair up around the period
            raise ValueError(f"jitter needs 0 <= jitter < 1, got {self.jitter!r}")
        return self


def generate_stream(kind: str, sources: int, params: StreamParams,
                    horizon: int) -> Corpus:
    """Deterministic synthetic corpus skeleton: ``horizon`` reports for each
    of ``sources`` sources, one placeholder sentence per document."""
    if kind not in (LINEAR, NON_LINEAR):
        raise ValueError(f"unknown stream kind {kind!r}")
    if sources < 1 or horizon < 1:
        raise ValueError("need at least one source and one report")
    raw_docs = []
    for si in range(sources):
        source = f"source-{si + 1}"
        rng = random.Random(params.seed * 1_000_003 + si * 7_919
                            + (0 if kind == LINEAR else 1))
        offset = timedelta(minutes=params.source_offsets[si]
                           if si < len(params.source_offsets) else 0)
        times: list[datetime] = []
        if kind == LINEAR:
            for n in range(horizon):
                wobble = rng.uniform(-params.jitter, params.jitter)
                if n % 2 == 0:
                    wobble = 0.0
                times.append(params.start + offset + n * params.period
                             + wobble * params.period)
        else:
            t = params.start + offset
            while len(times) < horizon:
                burst = rng.randint(*params.burst_size)
                for _ in range(burst):
                    if len(times) >= horizon:
                        break
                    times.append(t)
                    t = t + params.intra_burst_gap * rng.uniform(0.5, 1.5)
                t = t + params.inter_burst_gap * rng.uniform(0.8, 1.6)
        for n, t in enumerate(times):
            raw_docs.append((
                f"{source}-{n:03d}", source,
                t.replace(second=0, microsecond=0),
                [f"Synthetic report {n} from {source}."]))
    return build_corpus(f"simulated-{kind}", raw_docs)


def write_stream(corpus: Corpus, path: str | Path) -> None:
    """Write a generated corpus in the raw jsonl-v1 ingest format."""
    write_records(path, ({"doc_id": d.doc_id, "source": d.source,
                          "publish_time": format_rfc3339(d.publish_time),
                          "text": [s.text for s in d.sentences]}
                         for d in corpus.documents))


# ---------------------------------------------------------------------------
# Figure-style plot data: one series per source

def plot_data(corpus: Corpus) -> list[tuple[str, int, int]]:
    """(source, report_index, minutes-since-epoch) rows, one per document."""
    rows = [(d.source, d.report_index, minutes_since_epoch(d.publish_time))
            for d in corpus.documents]
    rows.sort()
    return rows


def plot_data_csv(corpus: Corpus) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "report_index", "minutes"])
    for row in plot_data(corpus):
        writer.writerow(row)
    return buf.getvalue()
