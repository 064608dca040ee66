"""Percentile helper and sample summaries."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.e2e.stats import percentile, summarize, supported_percentile, tail


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        assert sum(v > percentile(values, expected) for v in values) >= 10


def test_tail_reports_the_percentile_with_its_sample_count():
    values = list(range(1, 1001))
    assert tail(values) == (99.0, 990, 1000)
    assert tail(values[:15]) == (None, None, 15)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 5.0
    assert percentile(values, 0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_gives_samples_median_and_iqr():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    summary = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {
        "samples": values,
        "n": 8,
        "median": statistics.median(values),
        "iqr": q3 - q1,
    }
    assert summarize([7.0])["iqr"] == 0.0
