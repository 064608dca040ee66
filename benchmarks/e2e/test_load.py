"""Request generation for the serve workloads."""

from __future__ import annotations

from collections import Counter

from benchmarks.e2e import load


def test_open_loop_schedule_is_a_pure_function_of_its_arguments():
    first = load.open_loop_schedule(7, 150.0, 30.0)
    assert first == load.open_loop_schedule(7, 150.0, 30.0)
    assert first != load.open_loop_schedule(8, 150.0, 30.0)
    assert first != load.open_loop_schedule(7, 100.0, 30.0)
    assert first != load.open_loop_schedule(7, 150.0, 20.0)


def test_open_loop_schedule_follows_the_diurnal_replay():
    duration = 60.0
    schedule = load.open_loop_schedule(3, 150.0, duration)
    times = [t for t, _, _ in schedule]
    assert times == sorted(times) and 0 <= times[0] and times[-1] < duration
    # diurnal_rate averages 0.15 + 0.85 / 2 of the peak over a whole day.
    expected = 150.0 * 0.575 * duration
    assert abs(len(schedule) - expected) < 0.05 * expected
    # Busy middle, quiet ends.
    middle = sum(duration / 3 <= t < 2 * duration / 3 for t in times)
    ends = len(times) - middle
    assert middle > ends
    paths = Counter(path for _, path, _ in schedule)
    assert set(paths) == set(load.RESPONSE_KEYS)
    assert abs(paths["/v1/grid"] / len(schedule) - load.GRID_SHARE) < 0.02


def test_check_response():
    good = {key: None for key in load.RESPONSE_KEYS["/v1/grid"]}
    assert load.check_response("/v1/grid", 200, good) is None
    assert "status 503" in load.check_response("/v1/grid", 503, good)
    assert "missing" in load.check_response("/v1/grid", 200, {"card": "x"})
    query = {key: None for key in load.RESPONSE_KEYS["/v1/query"]}
    query["ok"] = False
    assert "not ok" in load.check_response("/v1/query", 200, query)
