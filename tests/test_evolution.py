from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from chronicle.errors import TooFewPoints
from chronicle.evolution import (EmissionProfile, StreamParams, analyze_corpus,
                                 classify_emission, fit_linear, generate_stream,
                                 plot_data, plot_data_csv)
from tests.oracles import classify_linearity

UTC = timezone.utc
WEEK_MINUTES = 7 * 24 * 60


def minutes(*offsets):
    """Datetimes the given numbers of minutes after the epoch."""
    epoch = datetime(1970, 1, 1, tzinfo=UTC)
    return [epoch + timedelta(minutes=m) for m in offsets]


def test_fit_exact_weekly_stream():
    model = fit_linear(minutes(0, 10080, 20160, 30240))
    assert model.period == timedelta(minutes=10080)
    assert model.residual == 0.0


def test_fit_football_fixture_period_is_a_week(football):
    for _, times in EmissionProfile.from_corpus(football.corpus).reports:
        model = fit_linear(list(times))
        assert model.period == timedelta(weeks=1)
        assert model.residual == 0.0


def test_grossly_aperiodic_stream_has_large_residual():
    model = fit_linear(minutes(0, 100, 5000))
    assert model.residual > 0.1


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        fit_linear(minutes(0, 10080))


def test_non_increasing_rejected():
    with pytest.raises(ValueError):
        fit_linear(minutes(0, 10080, 10080))


def test_classify_exact_stream_linear():
    assert classify_linearity(minutes(0, 10080, 20160, 30240)) == "linear"


def test_classify_hostage_fixture_non_linear(hostage):
    for _, times in EmissionProfile.from_corpus(hostage.corpus).reports:
        if len(times) >= 3:
            assert classify_linearity(list(times)) == "non-linear"
    assert analyze_corpus(hostage.corpus).linearity == "non-linear"


def test_small_jitter_stays_linear():
    # jitter at 2% of the period; residual stays well under the 0.1 default
    corpus = generate_stream(
        "linear", 1, StreamParams(seed=5, jitter=0.02), horizon=24)
    times = [d.publish_time for d in corpus.documents]
    model = fit_linear(times)
    assert model.residual <= 0.1
    assert classify_linearity(times) == "linear"


def test_emission_simultaneous_sources_synchronous(football):
    profile = EmissionProfile.from_corpus(football.corpus)
    assert classify_emission(profile, timedelta(hours=1)) == "synchronous"


def test_emission_late_starter_asynchronous(hostage):
    profile = EmissionProfile.from_corpus(hostage.corpus)
    assert classify_emission(profile, timedelta(hours=1)) == "asynchronous"
    lags = profile.first_report_lags()
    assert lags["late_wire"] == timedelta(days=12)


def test_emission_boundary_inclusive():
    base = datetime(2004, 9, 1, 12, 0, tzinfo=UTC)
    tol = timedelta(hours=1)
    profile = EmissionProfile(reports=(
        ("A", (base, base + timedelta(days=7))),
        ("B", (base + tol, base + timedelta(days=7) + tol))))
    assert classify_emission(profile, tol) == "synchronous"
    profile2 = EmissionProfile(reports=(
        ("A", (base,)), ("B", (base + tol + timedelta(minutes=1),))))
    assert classify_emission(profile2, tol) == "asynchronous"


def test_negative_alignment_tolerance_rejected(hostage):
    # a negative tolerance would call even a one-source corpus asynchronous
    with pytest.raises(ValueError):
        analyze_corpus(hostage.corpus, alignment_tolerance=timedelta(minutes=-1))


def test_emission_permutation_invariant(hostage):
    profile = EmissionProfile.from_corpus(hostage.corpus)
    reversed_profile = EmissionProfile(reports=tuple(reversed(profile.reports)))
    tol = timedelta(hours=1)
    assert classify_emission(profile, tol) == classify_emission(reversed_profile, tol)


def test_generated_linear_round_trip():
    corpus = generate_stream("linear", 3, StreamParams(seed=11), horizon=10)
    report = analyze_corpus(corpus)
    assert report.linearity == "linear"
    assert report.emission == "synchronous"


def test_generated_bursty_round_trip():
    corpus = generate_stream("non-linear", 5, StreamParams(seed=11), horizon=8)
    report = analyze_corpus(corpus)
    assert report.linearity == "non-linear"


def test_unknown_stream_kind_rejected():
    with pytest.raises(ValueError, match="unknown stream kind 'bogus'"):
        generate_stream("bogus", 3, StreamParams(seed=11), horizon=10)


@pytest.mark.parametrize("burst_size", [(0, 0), (0, 3), (3, 2), (-1, 1)])
def test_degenerate_burst_size_rejected(burst_size):
    with pytest.raises(ValueError, match="burst size"):
        StreamParams(burst_size=burst_size)


@pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -float("inf"),
                                    -0.01, 1.0, 1.5])
def test_jitter_outside_0_to_1_rejected(jitter):
    with pytest.raises(ValueError, match="jitter"):
        StreamParams(jitter=jitter)


def test_jitter_just_below_1_allowed():
    assert StreamParams(jitter=0.99).jitter == 0.99


def test_single_report_bursts_allowed():
    assert StreamParams(burst_size=(1, 1)).burst_size == (1, 1)


def test_same_seed_identical_streams():
    params = StreamParams(seed=7, jitter=0.01)
    a = generate_stream("linear", 3, params, horizon=10)
    b = generate_stream("linear", 3, params, horizon=10)
    assert a == b


def test_different_seed_differs():
    a = generate_stream("linear", 3, StreamParams(seed=7, jitter=0.01), 10)
    b = generate_stream("linear", 3, StreamParams(seed=8, jitter=0.01), 10)
    assert a != b


def test_plot_data_weekly_fixture_identical_columns(football):
    rows = plot_data(football.corpus)
    series = {}
    for source, idx, minutes in rows:
        series.setdefault(source, []).append((idx, minutes))
    assert len(series) == 3
    columns = list(series.values())
    assert columns[0] == columns[1] == columns[2]


def test_plot_data_empty_corpus_header_only():
    from chronicle.corpus import Corpus
    csv_text = plot_data_csv(Corpus(event_id="empty", documents=()))
    assert csv_text == "source,report_index,minutes\n"


def test_plot_data_hostage_series_counts(hostage):
    rows = plot_data(hostage.corpus)
    assert len(rows) == len(hostage.corpus.documents)
    counts = {}
    for source, _, _ in rows:
        counts[source] = counts.get(source, 0) + 1
    assert sorted(counts.values()) == [5, 6, 7, 9, 12]
