"""The paper-anchor table and its gate, checked on planted rows (no
driver runs; the real rows are gated by the full-suite test in
``tests/test_engine.py``)."""

import pytest

from repro.experiments.report import (
    ANCHORS,
    DEFAULT_BAND,
    MEDIAN_LIMIT,
    breaches,
    render,
)


def _rows(diffs):
    """Rows for every anchor, with a paper value of 1.0 and the given
    relative diff per anchor (0 when absent)."""
    return [
        (a.experiment, a.label, 1.0, 1.0 + diffs.get(i, 0.0))
        for i, a in enumerate(ANCHORS)
    ]


def test_on_paper_rows_pass():
    rows = _rows({})
    assert breaches(rows) == []
    assert f"all {len(ANCHORS)} anchors in band" in render(rows)


@pytest.mark.parametrize(
    "index", range(len(ANCHORS)),
    ids=[f"{a.experiment}-{a.key}" for a in ANCHORS],
)
def test_a_point_past_the_band_is_a_breach(index):
    band = ANCHORS[index].band
    for side in (+1, -1):
        assert breaches(_rows({index: side * band * 0.99})) == []
        rows = _rows({index: side * (band + 0.01)})
        found = breaches(rows)
        assert found == [
            f"{rows[index][0]} {rows[index][1]}: {side * (band + 0.01):+.1%} "
            f"outside ±{band * 100:.3g}%"
        ]
        flagged = [line for line in render(rows).splitlines() if line.endswith("OUT")]
        assert len(flagged) == 1 and rows[index][1] in flagged[0]


def test_a_median_over_the_limit_is_a_breach():
    # Shift every undocumented row the band allows past the median limit.
    shift = MEDIAN_LIMIT + 0.001
    rows = _rows({
        i: shift for i, a in enumerate(ANCHORS) if not a.reason and a.band > shift
    })
    assert breaches(rows) == [
        f"median |diff| {shift:.1%} over the {MEDIAN_LIMIT:.1%} limit"
    ]


def test_rows_must_cover_the_table():
    with pytest.raises(ValueError):
        breaches(_rows({})[:-1])


def test_a_wide_band_needs_a_reason_and_only_a_wide_band_has_one():
    for anchor in ANCHORS:
        assert (anchor.band > DEFAULT_BAND) == bool(anchor.reason), anchor
        assert "\n" not in anchor.reason


def test_every_row_names_a_distinct_paper_value():
    keys = [(a.experiment, a.key) for a in ANCHORS]
    assert len(set(keys)) == len(keys)
