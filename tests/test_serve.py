"""Serve-layer tests: endpoints, batching, failure isolation, parity.

The HTTP tests boot one real server on an ephemeral port per test class
(module-scoped would couple the stats assertions across tests) and talk
to it with ``http.client`` — the serve stack has no test-client shim; it
is cheap enough to exercise for real.

The headline invariants:

* numbers read over HTTP are **bit-identical** to direct library calls
  (the scalar/batch parity invariant carried end-to-end);
* one bad point in a coalesced batch fails only its own request;
* malformed requests come back as structured 4xx payloads, never 500s;
* every response body is strict JSON, with no NaN or Infinity tokens;
* concurrent clients actually coalesce, and coalescing never changes
  any response.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.serve import (
    BatcherClosed,
    DeadlineExceeded,
    MicroBatcher,
    ModelService,
    PointQuery,
    QueryError,
    QueueFull,
    WireSpec,
    serve_in_thread,
)
from repro.serve.overload import Deadline
from repro.serve.service import parse_point_query
from repro.system.config import CHP_77K_MESH
from repro.system.multicore import MulticoreSystem
from repro.tech import (
    FREEPDK45_CARD,
    CryoWireModel,
    OperatingPoint,
    TechContext,
    cryo_mosfet,
    use_context,
)
from repro.workloads.profiles import by_name as workload_by_name

OP_CRYOSP_VOLTAGES = {"temperature_k": 77.0, "vdd_v": 0.64, "vth_v": 0.25}


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _strict_json(text):
    """Parse a response body, refusing the NaN/Infinity tokens that
    ``json`` emits by default but that no JSON client accepts."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(scope="class")
def server():
    handle = serve_in_thread()
    yield handle
    handle.stop()


def _request(handle, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, _strict_json(response.read())
    finally:
        conn.close()


def _get(handle, path):
    return _request(handle, "GET", path)


def _post(handle, path, payload):
    return _request(handle, "POST", path, payload)


def _request_full(handle, method, path, payload=None, headers=None):
    """Like ``_request`` but sends request headers and returns the
    response headers (lower-cased) — the overload tests check
    ``Retry-After`` and the deadline header."""
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        response_headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, response_headers, _strict_json(response.read())
    finally:
        conn.close()


def _wait_until(predicate, timeout_s=10.0):
    """Poll ``predicate`` (a ``/stats`` check) until it holds."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _get(server, "/healthz")
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_path_is_404(self, server):
        status, payload = _get(server, "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server):
        status, payload = _get(server, "/v1/query")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_invalid_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/v1/query", body=b"{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_cards_listing(self, server):
        status, payload = _get(server, "/v1/cards")
        assert status == 200
        assert "freepdk45" in payload["cards"]
        assert "cryo_lowvth" in payload["cards"]
        assert set(payload["wire_layers"]) == {"local", "semi_global", "global"}
        assert "chp_77k_mesh" in payload["systems"]

    def test_point_query_matches_direct_library_call(self, server):
        status, payload = _post(
            server,
            "/v1/query",
            {"operating_point": dict(OP_CRYOSP_VOLTAGES), "card": "freepdk45"},
        )
        assert status == 200
        op = OperatingPoint.at(77.0, 0.64, 0.25)
        with use_context(TechContext()):
            mosfet = cryo_mosfet(FREEPDK45_CARD)
            expected_delay = mosfet.gate_delay_factor(op)
            expected_leak = mosfet.leakage_factor(op)
            expected_vth = mosfet.effective_vth(op)
        metrics = payload["metrics"]
        # Bit-identical, not approximately equal: the serve layer feeds
        # the same batch kernels the library does, and floats round-trip
        # exactly through JSON.
        assert metrics["gate_delay_factor"] == expected_delay
        assert metrics["delay_speedup"] == 1.0 / expected_delay
        assert metrics["leakage_factor"] == expected_leak
        assert metrics["effective_vth_v"] == expected_vth
        assert metrics["is_cryogenic"] is True
        assert payload["warnings"] == []

    def test_wire_query_matches_direct_optimizer(self, server):
        status, payload = _post(
            server,
            "/v1/query",
            {
                "operating_point": dict(OP_CRYOSP_VOLTAGES),
                "wire": {"layer": "global", "length_um": 6220.0},
            },
        )
        assert status == 200
        with use_context(TechContext()):
            design = CryoWireModel().optimizer("global").optimize(
                6220.0, OperatingPoint.at(77.0, 0.64, 0.25)
            )
        wire = payload["wire"]
        assert wire["delay_ns"] == design.delay_ns
        assert wire["n_repeaters"] == design.n_repeaters
        assert wire["repeater_size"] == design.repeater_size

    def test_malformed_operating_point_is_structured_422(self, server):
        for point in (
            {"temperature_k": "cold"},
            {"temperature_k": "nan"},
            {"temperature_k": float("nan")},
            {"temperature_k": "inf"},
            {"temperature_k": 10**400},
            {"temperature_k": 77, "vdd_v": "nan"},
            {"temperature_k": 77, "vth_v": float("-inf")},
        ):
            status, payload = _post(server, "/v1/query", {"operating_point": point})
            assert status == 422, point
            assert payload["error"]["code"] == "invalid_operating_point", point

    def test_missing_temperature_is_422(self, server):
        status, payload = _post(server, "/v1/query", {"operating_point": {}})
        assert status == 422
        assert payload["error"]["code"] == "invalid_operating_point"

    @pytest.mark.parametrize("card", ["tng_4z", [], {}], ids=["name", "list", "object"])
    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/query", {"operating_point": {"temperature_k": 77}}),
            ("/v1/grid", {"temperature_k": [77.0]}),
            (
                "/v1/cryostat",
                {
                    "placements": [
                        {"component": "core", "stage": "77K", "device_power_w": 1.0}
                    ]
                },
            ),
        ],
        ids=["query", "grid", "cryostat"],
    )
    def test_unknown_card_is_422(self, server, path, body, card):
        status, payload = _post(server, path, {**body, "card": card})
        assert status == 422
        assert payload["error"]["code"] == "unknown_card"

    def test_unknown_field_is_422(self, server):
        status, payload = _post(
            server,
            "/v1/query",
            {"operating_point": {"temperature_k": 77}, "temperature": 77},
        )
        assert status == 422
        assert payload["error"]["code"] == "invalid_request"

    def test_out_of_domain_temperature_is_422_with_findings(self, server):
        status, payload = _post(
            server, "/v1/query", {"operating_point": {"temperature_k": 1.0}}
        )
        assert status == 422
        error = payload["error"]
        assert error["code"] == "invalid_operating_point"
        assert any(w["severity"] == "error" for w in error["warnings"])

    def test_deep_cryo_point_redirects_to_cryostat(self, server):
        """[2, 60) K is a valid thermal stage but below the device-model
        calibration floor: a structured verdict, not a silicon answer."""
        status, payload = _post(
            server, "/v1/query", {"operating_point": {"temperature_k": 4.0}}
        )
        assert status == 422
        error = payload["error"]
        assert error["code"] == "model_domain_error"
        assert "/v1/cryostat" in error["message"]
        assert any(w["severity"] == "warning" for w in error["warnings"])

    def test_extrapolation_warning_rides_in_the_payload(self, server):
        status, payload = _post(
            server, "/v1/query", {"operating_point": {"temperature_k": 70.0}}
        )
        assert status == 200
        severities = [w["severity"] for w in payload["warnings"]]
        assert "warning" in severities
        assert all(s != "error" for s in severities)

    def test_grid_query(self, server):
        status, payload = _post(
            server,
            "/v1/grid",
            {"temperature_k": [77.0, 150.0, 300.0], "vdd_v": 0.64, "vth_v": 0.25},
        )
        assert status == 200
        assert payload["n"] == 3
        assert payload["points"]["temperature_k"] == [77.0, 150.0, 300.0]
        with use_context(TechContext()):
            mosfet = cryo_mosfet(FREEPDK45_CARD)
            expected = [
                mosfet.gate_delay_factor(OperatingPoint.at(t, 0.64, 0.25))
                for t in (77.0, 150.0, 300.0)
            ]
        assert payload["metrics"]["gate_delay_factor"] == expected

    def test_grid_product_mode(self, server):
        status, payload = _post(
            server,
            "/v1/grid",
            {
                "mode": "product",
                "temperature_k": [77.0, 300.0],
                "vdd_v": [0.64, 1.0],
                "vth_v": 0.25,
            },
        )
        assert status == 200
        assert payload["n"] == 4

    def test_grid_out_of_domain_is_422(self, server):
        for body in (
            {"temperature_k": [77.0, 1.0]},
            {"temperature_k": [77.0, float("nan")]},
            {"temperature_k": ["nan"]},
            {"temperature_k": [77.0], "vdd_v": ["nan"]},
            {"temperature_k": [77.0, 300.0], "vdd_v": "nan"},
            {"temperature_k": [77.0], "vth_v": [float("inf")]},
            {"mode": "product", "temperature_k": [77.0], "vdd_v": ["nan"]},
            {"mode": "product", "temperature_k": ["inf"]},
        ):
            status, payload = _post(server, "/v1/grid", body)
            assert status == 422, body
            assert payload["error"]["code"] == "invalid_grid", body

    def test_grid_deep_cryo_is_model_domain_error(self, server):
        # 20 K passes validation (deep-cryo warning tier) but the device
        # models refuse it below their 60 K calibration floor.
        status, payload = _post(
            server, "/v1/grid", {"temperature_k": [77.0, 20.0]}
        )
        assert status == 422
        assert payload["error"]["code"] == "model_domain_error"

    def test_cryostat_matches_direct_ledger(self, server):
        from repro.power.tco import cryostat_tco_w
        from repro.thermal import (
            ComponentPlacement,
            Cryostat,
            electrical_link,
            standard_stack,
        )

        status, payload = _post(
            server,
            "/v1/cryostat",
            {
                "links": [
                    {
                        "kind": "electrical",
                        "hot_stage": "300K",
                        "cold_stage": "77K",
                        "lanes": 64,
                    },
                    {
                        "kind": "electrical",
                        "hot_stage": "77K",
                        "cold_stage": "4K",
                        "lanes": 16,
                    },
                ],
                "placements": [
                    {"component": "core", "stage": "77K", "device_power_w": 10.0},
                    {"component": "dram", "stage": "300K", "device_power_w": 20.0},
                    {"component": "qctrl", "stage": "4K", "device_power_w": 0.05},
                ],
            },
        )
        assert status == 200
        direct = Cryostat(
            standard_stack(include_4k=True),
            links=[
                electrical_link("300K", "77K", lanes=64),
                electrical_link("77K", "4K", lanes=16),
            ],
            placements=[
                ComponentPlacement("core", "77K", 10.0),
                ComponentPlacement("dram", "300K", 20.0),
                ComponentPlacement("qctrl", "4K", 0.05),
            ],
        )
        # Bit-identical: the serve layer evaluates the same ledger.
        assert payload["ledger"] == direct.ledger().to_dict()
        assert payload["tco_w"] == cryostat_tco_w(direct)

    def test_cryostat_stage_metrics_skip_deep_cryo_stages(self, server):
        status, payload = _post(
            server,
            "/v1/cryostat",
            {
                "placements": [
                    {"component": "core", "stage": "77K", "device_power_w": 5.0}
                ]
            },
        )
        assert status == 200
        metrics = payload["stage_metrics"]
        # 300 K and 77 K are inside the device-model window; 4 K is a
        # priced thermal stage with no silicon metrics.
        assert set(metrics) == {"300K", "77K"}
        assert all(verdict["ok"] for verdict in metrics.values())
        stage_names = {s["stage"] for s in payload["ledger"]["stages"]}
        assert "4K" in stage_names

    def test_cryostat_without_placements_is_422(self, server):
        status, payload = _post(server, "/v1/cryostat", {"placements": []})
        assert status == 422
        assert payload["error"]["code"] == "invalid_cryostat"

    def test_cryostat_rejects_cold_to_hot_link(self, server):
        status, payload = _post(
            server,
            "/v1/cryostat",
            {
                "links": [
                    {
                        "kind": "electrical",
                        "hot_stage": "4K",
                        "cold_stage": "300K",
                        "lanes": 1,
                    }
                ],
                "placements": [
                    {"component": "core", "stage": "77K", "device_power_w": 1.0}
                ],
            },
        )
        assert status == 422
        assert payload["error"]["code"] == "invalid_cryostat"

    def test_cryostat_non_finite_numbers_are_422(self, server):
        core = {"component": "core", "stage": "77K", "device_power_w": 1.0}
        cold_stage = {"name": "77K", "temperature_k": 77.0, "overhead": "nan"}
        link = {"kind": "electrical", "hot_stage": "300K", "cold_stage": "77K"}
        for body in (
            {"placements": [{**core, "device_power_w": "nan"}]},
            {"placements": [{**core, "device_power_w": float("inf")}]},
            {
                "stages": [{"name": "300K", "temperature_k": 300.0}, cold_stage],
                "placements": [core],
            },
            {"links": [{**link, "conducted_w": "nan"}], "placements": [core]},
            {"links": [{**link, "lanes": float("inf")}], "placements": [core]},
        ):
            status, payload = _post(server, "/v1/cryostat", body)
            assert status == 422, body
            assert payload["error"]["code"] == "invalid_cryostat", body

    def test_cryostat_queries_counted_in_stats(self, server):
        before = _get(server, "/stats")[1]["requests"]["cryostat_queries"]
        _post(
            server,
            "/v1/cryostat",
            {
                "placements": [
                    {"component": "core", "stage": "77K", "device_power_w": 1.0}
                ]
            },
        )
        after = _get(server, "/stats")[1]["requests"]["cryostat_queries"]
        assert after == before + 1

    def test_ipc_query_matches_direct_evaluation(self, server):
        status, payload = _post(
            server,
            "/v1/ipc",
            {"system": "chp_77k_mesh", "workload": "blackscholes"},
        )
        assert status == 200
        with use_context(TechContext()):
            direct = MulticoreSystem(CHP_77K_MESH).evaluate(
                workload_by_name("blackscholes")
            )
        assert payload["ipc"] == direct.ipc
        assert payload["frequency_ghz"] == direct.frequency_ghz
        if direct.convergence is None:
            assert payload["convergence"] is None
        else:
            assert payload["convergence"]["converged"] == direct.convergence.converged
        assert payload["cpi_stack"]["core"] == direct.cpi_stack.core

    def test_ipc_unknown_system_is_422(self, server):
        status, payload = _post(
            server, "/v1/ipc", {"system": "warp_core", "workload": "blackscholes"}
        )
        assert status == 422
        assert payload["error"]["code"] == "unknown_system"

    def test_stats_shape(self, server):
        status, payload = _get(server, "/stats")
        assert status == 200
        assert {"requests", "guards", "tech_context", "batching", "http"} <= set(payload)
        assert payload["tech_context"]["max_entries"] == 4096


class TestConcurrency:
    def test_concurrent_queries_coalesce_and_stay_deterministic(self, server):
        """N clients hammer mixed queries; coalescing must not change
        any answer, and queries that queue while the model executor is
        busy must go out together as one batch."""
        bodies = [
            {
                "operating_point": {
                    "temperature_k": 77.0 + 20.0 * (i % 5),
                    "vdd_v": 0.64 + 0.05 * (i % 3),
                    "vth_v": 0.25,
                },
                "card": ("freepdk45", "industry_2z")[i % 2],
                "wire": {"layer": "global", "length_um": 2000.0 + 500.0 * (i % 4)},
            }
            for i in range(10)
        ]
        # Reference answers, one quiet request at a time.
        references = {}
        for i, body in enumerate(bodies):
            status, payload = _post(server, "/v1/query", body)
            assert status == 200
            references[i] = payload["metrics"]

        n_clients = 8
        answers = []
        lock = threading.Lock()

        def worker():
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                for i, body in enumerate(bodies):
                    conn.request("POST", "/v1/query", json.dumps(body).encode())
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    with lock:
                        answers.append((response.status, i, payload))
            finally:
                conn.close()

        def batching():
            return server.stats()["batching"]

        # Wedge the model executor, then send one pilot query: the
        # batcher dispatches it and waits on the executor, so every
        # client's first query queues behind it.
        release = threading.Event()
        blocker = server.server._model_executor.submit(release.wait, 30.0)
        submitted = batching()["requests"]
        pilot = {}
        pilot_thread = threading.Thread(
            target=lambda: pilot.update(answer=_post(server, "/v1/query", bodies[0]))
        )
        threads = [threading.Thread(target=worker) for _ in range(n_clients)]
        try:
            pilot_thread.start()
            _wait_until(
                lambda: batching()["requests"] == submitted + 1
                and batching()["queue_depth"] == 0
            )
            for thread in threads:
                thread.start()
            _wait_until(lambda: batching()["queue_depth"] == n_clients)
        finally:
            release.set()
        for thread in [pilot_thread, *threads]:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert blocker.result(timeout=5) is True
        status, payload = pilot["answer"]
        assert status == 200
        assert payload["metrics"] == references[0]
        assert len(answers) == n_clients * len(bodies)
        for status, i, payload in answers:
            assert status == 200
            assert payload["metrics"] == references[i]
        stats = batching()
        assert stats["max_batch_seen"] == n_clients
        assert stats["coalescing_rate"] > 0.0


class TestFailureIsolation:
    def test_poisoned_point_fails_alone_in_a_coalesced_batch(self):
        """A card-resolved overdrive collapse (invisible to the domain
        pre-screen: vdd rides below the low-Vth card's floor only after
        the cryogenic Vth shift) poisons the vectorized call; the
        service must retry the group scalar-wise and fail only the bad
        query."""
        service = ModelService()
        good = PointQuery(op=OperatingPoint.at(77.0, 0.64, 0.25))
        # cryo_lowvth: vth 0.18 + shift -> overdrive 0.23 - 0.18... pick
        # vdd barely above vth so the resolved overdrive is under 0.05 V
        # but the point itself screens clean (explicit vdd > vth > 0).
        bad = PointQuery(
            op=OperatingPoint.at(77.0, 0.24, 0.18), card_name="cryo_lowvth"
        )
        results = service.evaluate_points([good, bad, good])
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"]["code"] == "model_domain_error"
        assert "overdrive" in results[1]["error"]["message"]
        # The good queries' numbers match a clean evaluation exactly
        # (the scalar fallback is the same formula).
        clean = service.evaluate_points([good])[0]
        assert results[0]["metrics"] == clean["metrics"]
        assert service.stats()["requests"]["scalar_fallbacks"] >= 1

    def test_low_vth_card_trips_overdrive_guard_warning(self):
        service = ModelService()
        query = PointQuery(
            op=OperatingPoint.at(77.0, 0.22, 0.18), card_name="cryo_lowvth"
        )
        [result] = service.evaluate_points([query])
        assert result["ok"] is False or any(
            w["severity"] == "warning" for w in result.get("warnings", [])
        )

    def test_parse_rejects_non_object_wire(self):
        for wire in (
            "global",
            {"layer": "global", "length_um": "nan"},
            {"layer": "global", "length_um": "inf"},
            {"layer": "global", "length_um": float("inf")},
        ):
            with pytest.raises(QueryError) as excinfo:
                parse_point_query(
                    {"operating_point": {"temperature_k": 77}, "wire": wire}
                )
            assert excinfo.value.code == "invalid_wire", wire
            _strict_json(json.dumps(excinfo.value.to_dict()))


class _HeldHook:
    """Evaluate hook that holds every batch until :attr:`release` is set.

    :attr:`started` is set once a batch is on the executor, so a test
    can queue entries behind a running batch without sleeping.
    """

    def __init__(self):
        self.batches = []
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, queries):
        self.batches.append(list(queries))
        self.started.set()
        self.release.wait(5.0)
        return [q * 2 for q in queries]


async def _hold(batcher, hook):
    """Submit ``"held"`` to an idle batcher; return its task once the
    batch is on the executor, held by ``hook``."""
    task = asyncio.get_running_loop().create_task(batcher.submit("held"))
    assert await asyncio.to_thread(hook.started.wait, 5.0)
    return task


async def _until_queued(batcher, n):
    """Yield to the loop until ``n`` entries wait in the pending list."""
    for _ in range(1000):
        if batcher.stats()["queue_depth"] >= n:
            return
        await asyncio.sleep(0)
    raise AssertionError(f"{n} entries never queued")


class TestMicroBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_concurrent_submissions_coalesce(self):
        hook = _HeldHook()

        async def scenario():
            batcher = MicroBatcher(hook)
            batcher.start()
            loop = asyncio.get_running_loop()
            try:
                held = await _hold(batcher, hook)
                tasks = [loop.create_task(batcher.submit(i)) for i in range(10)]
                await _until_queued(batcher, 10)
                hook.release.set()
                results = await asyncio.gather(held, *tasks)
            finally:
                hook.release.set()
                await batcher.stop()
            return results[1:]

        assert self._run(scenario()) == [i * 2 for i in range(10)]
        assert hook.batches == [["held"], list(range(10))]

    def test_idle_dispatch_then_backlog_in_arrival_order(self):
        """The batching policy: a submission to an idle batcher is
        evaluated at once and alone; everything that queued behind it
        goes out next, in arrival order, chunked by ``max_batch``."""
        hook = _HeldHook()

        async def scenario():
            batcher = MicroBatcher(hook, max_batch=4)
            batcher.start()
            loop = asyncio.get_running_loop()
            try:
                held = await _hold(batcher, hook)
                tasks = [loop.create_task(batcher.submit(i)) for i in range(10)]
                await _until_queued(batcher, 10)
                hook.release.set()
                results = await asyncio.gather(held, *tasks)
            finally:
                hook.release.set()
                await batcher.stop()
            return results, batcher.stats()

        results, stats = self._run(scenario())
        assert results == ["heldheld"] + [i * 2 for i in range(10)]
        assert hook.batches == [["held"], [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert (stats["batches"], stats["points"], stats["max_batch_seen"]) == (
            4,
            11,
            4,
        )

    def test_disabled_mode_evaluates_singly(self):
        seen_batches = []

        def evaluate(queries):
            seen_batches.append(len(queries))
            return [q for q in queries]

        async def scenario():
            batcher = MicroBatcher(evaluate, enabled=False)
            try:
                return await asyncio.gather(
                    *(batcher.submit(i) for i in range(5))
                )
            finally:
                await batcher.stop()

        assert self._run(scenario()) == list(range(5))
        assert seen_batches == [1] * 5

    def test_evaluate_failure_fans_out_to_waiters(self):
        def evaluate(queries):
            raise RuntimeError("boom")

        async def scenario():
            batcher = MicroBatcher(evaluate)
            batcher.start()
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    await batcher.submit(1)
            finally:
                await batcher.stop()

        self._run(scenario())

    def test_max_batch_is_respected(self):
        seen_batches = []

        def evaluate(queries):
            seen_batches.append(len(queries))
            return list(queries)

        async def scenario():
            batcher = MicroBatcher(evaluate, max_batch=4)
            batcher.start()
            try:
                await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            finally:
                await batcher.stop()

        self._run(scenario())
        assert max(seen_batches) <= 4

    def test_stats_counters(self):
        def evaluate(queries):
            return list(queries)

        async def scenario():
            batcher = MicroBatcher(evaluate)
            batcher.start()
            try:
                await asyncio.gather(*(batcher.submit(i) for i in range(6)))
            finally:
                await batcher.stop()
            return batcher.stats()

        stats = self._run(scenario())
        assert stats["requests"] == 6
        assert stats["points"] == 6
        assert stats["batches"] >= 1
        assert 0.0 <= stats["coalescing_rate"] <= 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda q: q, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda q: q, max_queue=0)


class TestMicroBatcherDrain:
    """The stop() drain semantics: flush, force, refuse, bound."""

    def _run(self, coro):
        return asyncio.run(coro)

    def test_stop_flushes_pending_work(self):
        """Entries still queued when stop() is called are evaluated, not
        dropped: the drain flushes before the worker exits."""
        hook = _HeldHook()

        async def scenario():
            batcher = MicroBatcher(hook)
            batcher.start()
            loop = asyncio.get_running_loop()
            held = await _hold(batcher, hook)
            tasks = [loop.create_task(batcher.submit(i)) for i in range(5)]
            await _until_queued(batcher, 5)
            # Runs once stop() is waiting on the worker, so the entries
            # are still queued when the drain begins.
            loop.call_soon(hook.release.set)
            record = await batcher.stop(drain_timeout_s=5.0)
            results = await asyncio.gather(held, *tasks)
            return record, results[1:]

        record, results = self._run(scenario())
        assert results == [i * 2 for i in range(5)]
        assert record["outcome"] == "drained"
        assert record["pending_at_stop"] == 6  # 5 queued + the held one
        assert record["failed"] == 0
        assert hook.batches == [["held"], [0, 1, 2, 3, 4]]

    def test_forced_stop_fails_unresolved_futures_structured(self):
        """A drain that cannot finish in time fails every unresolved
        future with BatcherClosed — waiters get a structured error, not
        an eternal await."""
        hook = _HeldHook()

        async def scenario():
            batcher = MicroBatcher(hook)
            batcher.start()
            wedged = await _hold(batcher, hook)
            queued = asyncio.get_running_loop().create_task(
                batcher.submit("queued")
            )
            await _until_queued(batcher, 1)
            record = await batcher.stop(drain_timeout_s=0.05)
            outcomes = await asyncio.gather(
                wedged, queued, return_exceptions=True
            )
            hook.release.set()
            return record, outcomes

        record, outcomes = self._run(scenario())
        assert record["outcome"] == "forced"
        assert record["failed"] == 2
        assert all(isinstance(o, BatcherClosed) for o in outcomes)

    def test_submit_after_stop_is_refused(self):
        async def scenario():
            batcher = MicroBatcher(lambda q: list(q))
            batcher.start()
            await batcher.stop()
            with pytest.raises(BatcherClosed):
                await batcher.submit(1)

        self._run(scenario())

    def test_poisoned_batch_failure_races_drain(self):
        """The poisoned-batch fan-out (evaluate raises for the whole
        chunk) racing a concurrent stop(): every waiter sees the
        evaluation error, none is abandoned, and the drain still
        reports a clean flush."""

        def evaluate(queries):
            time.sleep(0.02)
            raise ValueError("poisoned batch")

        async def scenario():
            batcher = MicroBatcher(evaluate)
            batcher.start()
            loop = asyncio.get_running_loop()
            tasks = [loop.create_task(batcher.submit(i)) for i in range(3)]
            await asyncio.sleep(0)
            record = await batcher.stop(drain_timeout_s=5.0)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return record, outcomes

        record, outcomes = self._run(scenario())
        assert record["outcome"] == "drained"
        assert record["failed"] == 0  # resolved by fan-out, not by force
        assert all(
            isinstance(o, ValueError) and "poisoned" in str(o)
            for o in outcomes
        )

    def test_queue_bound_sheds_queue_full(self):
        hook = _HeldHook()

        async def scenario():
            batcher = MicroBatcher(hook, max_queue=2)
            batcher.start()
            loop = asyncio.get_running_loop()
            busy = await _hold(batcher, hook)
            queued = [loop.create_task(batcher.submit(i)) for i in range(2)]
            await _until_queued(batcher, 2)
            with pytest.raises(QueueFull):
                await batcher.submit("one too many")
            hook.release.set()
            await asyncio.gather(busy, *queued)
            return batcher.stats()

        stats = self._run(scenario())
        assert stats["shed_queue_full"] == 1

    def test_expired_deadline_is_shed_before_kernel_work(self):
        hook = _HeldHook()

        async def scenario():
            batcher = MicroBatcher(hook)
            batcher.start()
            loop = asyncio.get_running_loop()
            held = await _hold(batcher, hook)
            doomed = loop.create_task(
                batcher.submit("doomed", deadline=Deadline(20.0))
            )
            fine = loop.create_task(batcher.submit("fine"))
            await _until_queued(batcher, 2)
            # The budget runs out while the entry waits behind the held
            # batch; only then does the executor free up.
            await asyncio.wait({doomed})
            hook.release.set()
            outcomes = await asyncio.gather(
                held, doomed, fine, return_exceptions=True
            )
            await batcher.stop()
            return outcomes[1:]

        doomed_outcome, fine_outcome = self._run(scenario())
        assert isinstance(doomed_outcome, DeadlineExceeded)
        assert fine_outcome == "finefine"
        # The expired entry never reached the evaluate hook.
        assert hook.batches == [["held"], ["fine"]]


class TestOverloadControls:
    """Deadlines, admission, readiness — the non-chaos overload paths."""

    def test_readyz_is_ready_on_a_healthy_server(self):
        with serve_in_thread() as handle:
            status, payload = _get(handle, "/readyz")
            assert (status, payload) == (200, {"ready": True})

    def test_deadline_header_is_recorded_in_the_payload(self):
        with serve_in_thread() as handle:
            status, _, payload = _request_full(
                handle,
                "POST",
                "/v1/query",
                {"operating_point": dict(OP_CRYOSP_VOLTAGES)},
                headers={"X-CryoWire-Deadline-Ms": "5000"},
            )
            assert status == 200
            assert payload["deadline"]["budget_ms"] == 5000.0
            assert 0.0 < payload["deadline"]["remaining_ms"] <= 5000.0

    def test_tiny_deadline_is_structured_408(self):
        with serve_in_thread() as handle:
            status, _, payload = _request_full(
                handle,
                "POST",
                "/v1/query",
                {"operating_point": dict(OP_CRYOSP_VOLTAGES)},
                headers={"X-CryoWire-Deadline-Ms": "0.001"},
            )
            assert status == 408
            error = payload["error"]
            assert error["code"] == "deadline_exceeded"
            assert error["retryable"] is True
            assert error["budget_ms"] == 0.001

    def test_invalid_deadline_header_is_400(self):
        with serve_in_thread() as handle:
            for bad in ("soon", "-100", "0", "inf"):
                status, _, payload = _request_full(
                    handle,
                    "POST",
                    "/v1/query",
                    {"operating_point": dict(OP_CRYOSP_VOLTAGES)},
                    headers={"X-CryoWire-Deadline-Ms": bad},
                )
                assert status == 400, bad
                assert payload["error"]["code"] == "invalid_deadline"
                assert payload["error"]["retryable"] is False

    def test_full_gate_sheds_503_with_retry_after(self):
        with serve_in_thread(max_inflight=1) as handle:
            # Fill the gate from the outside (it is thread-safe), so the
            # next request is deterministically shed.
            assert handle.server.gate.try_acquire()
            try:
                status, headers, payload = _request_full(
                    handle,
                    "POST",
                    "/v1/query",
                    {"operating_point": dict(OP_CRYOSP_VOLTAGES)},
                )
                assert status == 503
                assert payload["error"]["code"] == "overloaded"
                assert payload["error"]["retryable"] is True
                assert headers["retry-after"] == "1"
            finally:
                handle.server.gate.release()
            status, _, payload = _request_full(
                handle,
                "POST",
                "/v1/query",
                {"operating_point": dict(OP_CRYOSP_VOLTAGES)},
            )
            assert status == 200
            stats = handle.stats()["overload"]
            assert stats["shed_overload"] == 1
            assert stats["admitted"] >= 1

    def test_health_probes_bypass_the_gate(self):
        with serve_in_thread(max_inflight=1) as handle:
            assert handle.server.gate.try_acquire()
            try:
                assert _get(handle, "/healthz")[0] == 200
                assert _get(handle, "/readyz")[0] == 200
                assert _get(handle, "/stats")[0] == 200
            finally:
                handle.server.gate.release()

    def test_stats_overload_shape(self):
        with serve_in_thread() as handle:
            status, payload = _get(handle, "/stats")
            assert status == 200
            overload = payload["overload"]
            assert {
                "max_inflight",
                "inflight",
                "admitted",
                "shed_overload",
                "shed_deadline",
                "shed_shutdown",
                "drain",
                "draining",
            } <= set(overload)
            assert overload["drain"] is None


class TestServerTeardown:
    def test_stop_reports_graceful_on_a_quiet_server(self):
        handle = serve_in_thread()
        assert handle.stop() == "graceful"
        assert handle.last_stop_outcome == "graceful"
        assert handle.server.last_drain["path"] == "graceful"

    def test_stop_is_idempotent(self):
        handle = serve_in_thread()
        assert handle.stop() == "graceful"
        # A second stop must not hang or error (the loop is gone).
        assert handle.stop(timeout=1.0) in ("graceful", "forced")

    def test_hung_drain_escalates_to_forced_loop_stop(self):
        """A stop() coroutine that never finishes must not leave the
        daemon thread holding the port: the handle escalates to a forced
        loop-stop and reports which path it took."""
        handle = serve_in_thread()

        async def hung_stop(drain_timeout_s=None):
            await asyncio.sleep(60)

        handle.server.stop = hung_stop
        t0 = time.monotonic()
        outcome = handle.stop(timeout=0.4)
        elapsed = time.monotonic() - t0
        assert outcome == "forced"
        assert handle.last_stop_outcome == "forced"
        assert elapsed < 5.0
        assert not handle._thread.is_alive()
