"""Serve-path chaos suite: seeded faults against a live server.

Extends the engine's chaos machinery to the layer that fronts user
traffic. Every test installs a deterministic
:class:`~repro.util.faults.FaultPlan` targeting the serve sites
(``serve.connection``, ``serve.batch.drain``, ``serve.executor.model``)
and asserts the overload-resilience contract end-to-end over real HTTP:

* every request gets **exactly one structured response** — an injected
  fatal/hang never tears a reply or drops a waiter;
* a hung batch bounds the latency of deadline-carrying requests (they
  answer ``408`` while the batch is still sleeping) and their
  neighbours still get **bit-identical** answers;
* a drain under load completes inside the drain timeout with **zero
  abandoned in-flight futures**, even when a seeded hang wedges the
  batch mid-drain (the forced path fails leftovers with structured
  ``503 shutting_down``, never silence).

Run serially (``pytest -m chaos``): the suite boots real servers and
sleeps through real hangs.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.serve import serve_in_thread
from repro.tech import (
    FREEPDK45_CARD,
    OperatingPoint,
    TechContext,
    cryo_mosfet,
    use_context,
)
from repro.util import faults
from repro.util.faults import FaultPlan, FaultSpec

pytestmark = pytest.mark.chaos

QUERY_BODY = {
    "operating_point": {"temperature_k": 77.0, "vdd_v": 0.64, "vth_v": 0.25},
    "card": "freepdk45",
}


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks in or out of any chaos test."""
    faults.clear()
    yield
    faults.clear()


def _expected_metrics():
    """The direct-library answer the HTTP payload must match bit-for-bit."""
    op = OperatingPoint.at(77.0, 0.64, 0.25)
    with use_context(TechContext()):
        mosfet = cryo_mosfet(FREEPDK45_CARD)
        delay = mosfet.gate_delay_factor(op)
        return {
            "gate_delay_factor": delay,
            "delay_speedup": 1.0 / delay,
            "leakage_factor": mosfet.leakage_factor(op),
            "effective_vth_v": mosfet.effective_vth(op),
            "is_cryogenic": True,
        }


def _request(port, method, path, payload=None, headers=None, timeout=30):
    """One request on a fresh connection; returns (status, headers, body).

    The body is always parsed as JSON — a torn response raises here,
    which is exactly what the suite must never see.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        response_headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, response_headers, json.loads(data)
    finally:
        conn.close()


def _install(*specs, seed=11):
    faults.install(FaultPlan(specs=tuple(specs), seed=seed))


# ----------------------------------------------------------------------
# connection-level faults
# ----------------------------------------------------------------------
class TestConnectionFaults:
    def test_fatal_is_structured_500_not_a_torn_reply(self):
        _install(FaultSpec("serve.connection", faults.FATAL, max_fires=1))
        with serve_in_thread() as handle:
            status, _, body = _request(handle.port, "GET", "/v1/cards")
            assert status == 500
            assert body["error"]["code"] == "upstream_fatal"
            assert body["error"]["retryable"] is False
            status, _, body = _request(handle.port, "GET", "/v1/cards")
            assert status == 200
            # The fault budget is spent; the next query must be untouched.
            status, _, body = _request(
                handle.port, "POST", "/v1/query", QUERY_BODY
            )
            assert status == 200
            assert body["metrics"] == _expected_metrics()


# ----------------------------------------------------------------------
# batch-path faults
# ----------------------------------------------------------------------
class TestBatchFaults:
    def test_hung_batch_bounds_deadline_and_neighbor_stays_exact(self):
        """A seeded hang wedges the batch on the executor thread. The
        deadline-carrying request must answer 408 while the batch is
        still sleeping (bounded latency), and its neighbour — in the
        hung batch or queued behind it, unaffected by the deadline —
        must still get the bit-identical answer once the hang clears."""
        hang_s = 0.8
        _install(
            FaultSpec(
                "serve.batch.drain", faults.HANG, delay_s=hang_s, max_fires=1
            )
        )
        results = {}
        with serve_in_thread() as handle:

            def short_deadline():
                t0 = time.monotonic()
                results["short"] = _request(
                    handle.port,
                    "POST",
                    "/v1/query",
                    QUERY_BODY,
                    headers={"X-CryoWire-Deadline-Ms": "200"},
                ) + (time.monotonic() - t0,)

            def no_deadline():
                results["long"] = _request(
                    handle.port, "POST", "/v1/query", QUERY_BODY
                )

            threads = [
                threading.Thread(target=short_deadline),
                threading.Thread(target=no_deadline),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        status, _, body, elapsed = results["short"]
        assert status == 408
        assert body["error"]["code"] == "deadline_exceeded"
        assert body["error"]["retryable"] is True
        assert body["error"]["budget_ms"] == 200.0
        assert body["deadline"]["budget_ms"] == 200.0
        # Bounded: answered while the batch was still hanging.
        assert elapsed < hang_s - 0.05
        status, _, body = results["long"]
        assert status == 200
        assert body["metrics"] == _expected_metrics()

    def test_batch_fatal_fans_out_structured_and_retries_exact(self):
        """A fault inside the batch evaluation fails every coalesced
        waiter with one structured 500 each (never silence, never a torn
        reply); retries after the budget is spent are bit-identical."""
        _install(FaultSpec("serve.batch.drain", faults.FATAL, max_fires=1))
        outcomes = []
        lock = threading.Lock()
        with serve_in_thread() as handle:

            def client():
                outcome = _request(
                    handle.port, "POST", "/v1/query", QUERY_BODY
                )
                with lock:
                    outcomes.append(outcome)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            expected = _expected_metrics()
            n_failed = 0
            for status, _, body in outcomes:
                # Exactly one structured response per request: either the
                # injected fault (fanned out to the whole batch) or — if
                # the two clients happened not to coalesce — the exact
                # answer from the post-fault batch.
                if status == 500:
                    n_failed += 1
                    assert body["error"]["code"] == "upstream_fatal"
                    assert body["error"]["retryable"] is False
                else:
                    assert status == 200
                    assert body["metrics"] == expected
            assert n_failed >= 1
            # The budget is spent: both retries answer exactly.
            for _ in range(2):
                status, _, body = _request(
                    handle.port, "POST", "/v1/query", QUERY_BODY
                )
                assert status == 200
                assert body["metrics"] == expected

    def test_model_executor_fatal_on_grid_is_structured(self):
        _install(FaultSpec("serve.executor.model", faults.FATAL, max_fires=1))
        grid = {"temperature_k": [77.0, 300.0], "vdd_v": 0.64, "vth_v": 0.25}
        with serve_in_thread() as handle:
            status, _, body = _request(handle.port, "POST", "/v1/grid", grid)
            assert status == 500
            assert body["error"]["code"] == "upstream_fatal"
            status, _, body = _request(handle.port, "POST", "/v1/grid", grid)
            assert status == 200
            assert body["points"]["temperature_k"] == [77.0, 300.0]


# ----------------------------------------------------------------------
# drain under load
# ----------------------------------------------------------------------
class TestDrainUnderLoad:
    def test_drain_completes_with_zero_abandoned_futures(self):
        """Stop the server while clients are mid-flight: every request
        that got as far as the server answers structured (200 / 503
        shutting_down / 408), the drain finishes inside its timeout, and
        no in-flight future is abandoned."""
        handle = serve_in_thread(drain_timeout_s=5.0)
        port = handle.port
        stop_draining = threading.Event()
        seen = {"statuses": [], "torn": 0, "bad_errors": 0}
        lock = threading.Lock()

        def client():
            while not stop_draining.is_set():
                try:
                    status, _, body = _request(port, "POST", "/v1/query", QUERY_BODY)
                except (ValueError, json.JSONDecodeError):
                    with lock:
                        seen["torn"] += 1
                    return
                except (http.client.HTTPException, OSError):
                    # Transport-level refusal (listener closed): the
                    # request never reached dispatch; not a torn reply.
                    return
                with lock:
                    seen["statuses"].append(status)
                    if status not in (200, 503, 408):
                        seen["bad_errors"] += 1
                    if status == 503 and body["error"]["code"] not in (
                        "shutting_down",
                        "overloaded",
                    ):
                        seen["bad_errors"] += 1

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # get real load in flight
        t0 = time.monotonic()
        outcome = handle.stop()
        drain_wall = time.monotonic() - t0
        stop_draining.set()
        for thread in threads:
            thread.join(timeout=1)
        # Every client was answered or refused: none waits on a
        # connection the drain left open.
        assert not [t for t in threads if t.is_alive()]
        assert outcome == "graceful"
        assert seen["torn"] == 0
        assert seen["bad_errors"] == 0
        assert seen["statuses"].count(200) > 0
        drain = handle.server.last_drain
        assert drain["path"] == "graceful"
        assert drain["abandoned_inflight"] == 0
        assert drain["batcher"]["failed"] == 0
        assert drain_wall < 5.0 + 2.0

    def test_hung_batch_forces_drain_and_still_answers_structured(self):
        """A seeded hang wedges the batch exactly when the drain starts:
        the graceful window expires, the forced path fails the wedged
        futures with structured 503 shutting_down — the client is
        answered, not abandoned — and stop() returns promptly."""
        hang_s = 2.0
        _install(
            FaultSpec(
                "serve.batch.drain", faults.HANG, delay_s=hang_s, max_fires=1
            )
        )
        handle = serve_in_thread(
            drain_timeout_s=0.4,
            default_deadline_ms=30_000.0,
        )
        result = {}

        def client():
            result["response"] = _request(
                handle.port, "POST", "/v1/query", QUERY_BODY, timeout=30
            )

        thread = threading.Thread(target=client)
        thread.start()
        time.sleep(0.3)  # the request is now wedged inside the hang
        t0 = time.monotonic()
        outcome = handle.stop(timeout=10.0)
        stop_wall = time.monotonic() - t0
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome == "graceful"  # handle-level: stop() itself returned
        assert stop_wall < hang_s + 3.0
        status, _, body = result["response"]
        assert status == 503
        assert body["error"]["code"] == "shutting_down"
        assert body["error"]["retryable"] is True
        drain = handle.server.last_drain
        assert drain["path"] == "forced"
        assert drain["abandoned_inflight"] == 0
        assert drain["batcher"]["outcome"] == "forced"
        assert drain["batcher"]["failed"] == 1
