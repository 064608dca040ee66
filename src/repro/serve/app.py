"""CryoWireServer: routes, lifecycle, and the in-thread test harness.

The server wires four layers together:

* :class:`~repro.serve.service.ModelService` answers model questions;
* :class:`~repro.serve.batching.MicroBatcher` coalesces concurrent
  ``POST /v1/query`` requests into vectorized batches;
* :mod:`repro.serve.overload` enforces the request budgets — deadlines,
  admission, drain;
* :mod:`repro.serve.http` speaks just enough HTTP/1.1.

One single-thread *model* executor keeps the event loop responsive: it
runs point batches, grids, IPC solves and cryostat pricing, one at a
time, in submission order.

Overload semantics, hop by hop:

* every request gets a :class:`~repro.serve.overload.Deadline` from the
  ``X-CryoWire-Deadline-Ms`` header (or the server default); the budget
  covers queueing *and* compute, expired requests are answered ``408
  deadline_exceeded`` (shed before kernel work when they expire while
  queued), and every ``/v1/*`` response records the remaining budget;
* a bounded :class:`~repro.serve.overload.AdmissionGate` sheds excess
  load with ``503 overloaded`` + ``Retry-After`` instead of queuing
  without bound. It is the one load bound: every point the batcher
  queues belongs to an admitted request, which holds its slot while it
  waits and takes its point with it when it leaves;
* :meth:`CryoWireServer.stop` *drains*: the listener closes, in-flight
  requests finish (or are failed structured once the drain timeout
  expires), the batcher flushes, and the executor is joined — the
  path taken (``graceful``/``forced``) is recorded in ``/stats``.
  ``cryowire serve`` wires ``SIGTERM`` to this drain.
* ``GET /healthz`` is pure liveness; ``GET /readyz`` is readiness and
  goes 503 while draining.

On ``start()`` the server installs its service's
:class:`~repro.tech.context.TechContext` as the process-global active
context (and restores the previous one on ``stop()``). The context is
process-global rather than thread-local by design — every request
shares the *same* store of scalar memos (the batch kernels behind point
and grid queries compute on every call) — so the server installs it
once at startup; nothing swaps contexts per-request.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Dict, Optional, Set, Tuple

from repro.serve.batching import MicroBatcher
from repro.serve.http import (
    HttpError,
    Request,
    error_payload,
    read_request,
    wants_keep_alive,
    write_response,
)
from repro.serve.overload import (
    AdmissionGate,
    BatcherClosed,
    Deadline,
    DeadlineExceeded,
    InvalidDeadline,
)
from repro.serve.service import (
    ModelService,
    QueryError,
    parse_cryostat_request,
    parse_point_query,
)
from repro.tech.context import get_context, set_context

#: Routes that bypass admission control and deadlines: health probes and
#: stats must answer even when the service is saturated or draining.
_UNGATED = {("GET", "/healthz"), ("GET", "/readyz"), ("GET", "/stats")}

#: The request-deadline header (case-insensitive on the wire).
DEADLINE_HEADER = "x-cryowire-deadline-ms"


class CryoWireServer:
    """The ``cryowire serve`` application.

    ``default_deadline_ms`` is the budget of a request that sends no
    deadline header (``None`` or ``<= 0`` disables it), and
    ``drain_timeout_s`` is the graceful-drain window. Both must be
    finite: a NaN default would refuse every headerless request as the
    client's fault, and a NaN drain window would force every drain.
    """

    def __init__(
        self,
        service: Optional[ModelService] = None,
        host: str = "127.0.0.1",
        port: int = 8077,
        batching_enabled: bool = True,
        max_inflight: int = 64,
        default_deadline_ms: Optional[float] = 10_000.0,
        drain_timeout_s: float = 5.0,
    ) -> None:
        if default_deadline_ms is not None and not math.isfinite(default_deadline_ms):
            raise ValueError(
                f"default_deadline_ms must be finite, got {default_deadline_ms!r}"
            )
        if not (math.isfinite(drain_timeout_s) and drain_timeout_s >= 0):
            raise ValueError(
                f"drain_timeout_s must be finite and >= 0, got {drain_timeout_s!r}"
            )
        self.service = service if service is not None else ModelService()
        self.host = host
        self._port = port
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            default_deadline_ms = None
        self.default_deadline_ms = default_deadline_ms
        self.drain_timeout_s = drain_timeout_s
        self.gate = AdmissionGate(max_inflight)
        self._model_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="cryowire-model"
        )
        self.batcher = MicroBatcher(
            self.service.evaluate_points,
            enabled=batching_enabled,
            executor=self._model_executor,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._previous_context = None
        self._conn_tasks: Set["asyncio.Task"] = set()
        self._draining = False
        self._stopped = False
        #: Outcome record of the last drain (None until stop() runs).
        self.last_drain: Optional[Dict] = None
        self._n_connections = 0
        self._n_http_errors = 0
        self._n_shed_deadline = 0
        self._n_shed_shutdown = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` from :meth:`start` on)."""
        return self._port

    async def start(self) -> None:
        """Bind the socket, start the batcher, install the warm context."""
        if self._server is not None:
            return
        self._draining = False
        self._stopped = False
        self._previous_context = get_context()
        set_context(self.service.context)
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout_s: Optional[float] = None) -> Dict:
        """Graceful drain: unbind, flush, resolve everything, then join.

        Sequence: mark draining (``/readyz`` goes 503, new requests are
        refused with ``503 shutting_down``), stop accepting and close the
        listener, wait for in-flight requests to finish within the drain
        timeout, stop the batcher (flushing its queue; a timed-out flush
        fails the leftover futures with a structured ``shutting_down``
        error so no waiter is ever abandoned), close lingering
        connections, and join the executor — a blocking join only on the
        graceful path, so a wedged executor thread cannot hang shutdown.
        The outcome record (``path``: ``graceful``/``forced``) lands in
        :attr:`last_drain` and ``/stats``.
        """
        if self._stopped:
            return self.last_drain or {"path": "already-stopped"}
        timeout = self.drain_timeout_s if drain_timeout_s is None else drain_timeout_s
        t0 = time.monotonic()
        self._draining = True
        if self._server is not None:
            # Stop accepting before closing: a connection accepted but
            # not yet attached when the listener closes fails to attach
            # and is never answered. One yield lets the accepted ones
            # attach; they are then refused with 503 shutting_down.
            loop = asyncio.get_running_loop()
            for sock in self._server.sockets:
                loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        inflight_at_stop = self.gate.inflight
        # In-flight requests are still being answered (the batcher
        # worker and the executor are live); give them the drain window.
        drained = await self.gate.wait_idle(timeout)
        path = "graceful" if drained else "forced"
        remaining = max(0.0, timeout - (time.monotonic() - t0))
        batch_record = await self.batcher.stop(
            drain_timeout_s=remaining if drained else 0.0
        )
        if not drained:
            # The batcher just failed its unresolved futures with
            # shutting_down; give those requests a moment to turn the
            # failures into structured responses before we cut links.
            await self.gate.wait_idle(min(1.0, timeout or 1.0))
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        self._model_executor.shutdown(wait=drained)
        if self._previous_context is not None:
            set_context(self._previous_context)
            self._previous_context = None
        self.last_drain = {
            "path": path,
            "inflight_at_stop": inflight_at_stop,
            "abandoned_inflight": self.gate.inflight,
            "batcher": batch_record,
            "duration_s": round(time.monotonic() - t0, 4),
        }
        self._stopped = True
        return self.last_drain

    def run(self) -> None:
        """Blocking entry point (the ``cryowire serve`` CLI).

        ``SIGTERM``/``SIGINT`` trigger a graceful drain; a one-line
        overload/drain summary is printed on the way out.
        """

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            stop_requested = asyncio.Event()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop_requested.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix loop: KeyboardInterrupt still works
            print(f"cryowire serve listening on http://{self.host}:{self.port}")
            try:
                await stop_requested.wait()
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass
        print(self.shutdown_summary())

    def shutdown_summary(self) -> str:
        """The one-line account ``cryowire serve`` logs on shutdown."""
        stats = self.stats()
        overload = stats["overload"]
        batching = stats["batching"]
        drain = overload["drain"] or {}
        batch_drain = drain.get("batcher") or {}
        return (
            f"cryowire serve: shutdown [{drain.get('path', 'no-drain')}] "
            f"admitted={overload['admitted']} "
            f"shed_overload={overload['shed_overload']} "
            f"shed_deadline={overload['shed_deadline']} "
            f"shed_shutdown={overload['shed_shutdown']} "
            f"batches={batching['batches']} points={batching['points']} "
            f"drain_flushed={batch_drain.get('flushed', 0)} "
            f"drain_failed={batch_drain.get('failed', 0)}"
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._n_connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    self._n_http_errors += 1
                    await write_response(
                        writer, exc.status, exc.to_payload(), keep_alive=False
                    )
                    break
                if request is None:
                    break
                status, payload, headers = await self._admit_and_dispatch(
                    request
                )
                keep = wants_keep_alive(request) and not self._draining
                await write_response(
                    writer, status, payload, keep_alive=keep, headers=headers
                )
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _admit_and_dispatch(
        self, request: Request
    ) -> Tuple[int, Dict, Dict[str, str]]:
        """Budget enforcement in front of dispatch: deadline + admission."""
        if (request.method, request.path) in _UNGATED:
            return await self._dispatch(request, None)
        try:
            deadline = Deadline.from_header(
                request.headers.get(DEADLINE_HEADER), self.default_deadline_ms
            )
        except InvalidDeadline as exc:
            self._n_http_errors += 1
            return 400, error_payload("invalid_deadline", str(exc)), {}
        if self._draining:
            self._n_shed_shutdown += 1
            return (
                503,
                error_payload(
                    "shutting_down",
                    "server is draining and no longer accepts work",
                    retryable=True,
                ),
                {},
            )
        if not self.gate.try_acquire():
            return (
                503,
                error_payload(
                    "overloaded",
                    f"server at capacity ({self.gate.max_inflight} requests "
                    "in flight); shed instead of queued",
                    retryable=True,
                ),
                {"Retry-After": "1"},
            )
        try:
            status, payload, headers = await self._dispatch(request, deadline)
        finally:
            self.gate.release()
        if (
            deadline is not None
            and request.path.startswith("/v1/")
            and isinstance(payload, dict)
        ):
            # Every model response records what is left of its budget.
            payload["deadline"] = deadline.to_payload()
        return status, payload, headers

    async def _dispatch(
        self, request: Request, deadline: Optional[Deadline]
    ) -> Tuple[int, Dict, Dict[str, str]]:
        """Route one request; every outcome is (status, JSON, headers)."""
        try:
            status, payload = await self._route(request, deadline)
            return status, payload, {}
        except HttpError as exc:
            self._n_http_errors += 1
            headers = {"Retry-After": "1"} if exc.status in (429, 503) else {}
            return exc.status, exc.to_payload(), headers
        except QueryError as exc:
            err = exc.to_dict()
            err.setdefault("retryable", exc.status in (408, 429, 503))
            return exc.status, {"error": err}, {}
        except DeadlineExceeded as exc:
            self._n_shed_deadline += 1
            return (
                408,
                error_payload(
                    "deadline_exceeded",
                    str(exc),
                    retryable=True,
                    budget_ms=exc.deadline.budget_ms,
                ),
                {},
            )
        except BatcherClosed as exc:
            self._n_shed_shutdown += 1
            return (
                503,
                error_payload("shutting_down", str(exc), retryable=True),
                {},
            )
        except asyncio.CancelledError:
            if self._draining:
                # Forced drain cancelled this request mid-hop: answer it
                # structured rather than tearing the connection.
                self._n_shed_shutdown += 1
                return (
                    503,
                    error_payload(
                        "shutting_down",
                        "request cancelled by server drain",
                        retryable=True,
                    ),
                    {},
                )
            raise
        except Exception as exc:  # noqa: BLE001 - the 500 backstop
            return (
                500,
                error_payload(
                    "internal_error", f"{type(exc).__name__}: {exc}"
                ),
                {},
            )

    # ------------------------------------------------------------------
    # executor hops
    # ------------------------------------------------------------------
    async def _in_executor(self, deadline, fn, *args):
        """Run ``fn`` on the model executor inside the request's budget.

        The budget is checked *before* submission (an already-expired
        request is shed without spending executor time) and enforced
        while waiting: on expiry the waiter cancels the hop (work that
        has not started never runs; a late result is discarded) and the
        request answers ``408`` with bounded latency even if the
        executor thread is wedged.
        """
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(deadline, where="awaiting the executor")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._model_executor, fn, *args)
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), deadline.remaining_s()
            )
        except asyncio.TimeoutError:
            future.cancel()
            raise DeadlineExceeded(
                deadline, where="evaluating on the executor"
            ) from None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, request: Request, deadline: Optional[Deadline]
    ) -> Tuple[int, Dict]:
        key = (request.method, request.path)
        if key == ("GET", "/healthz"):
            return 200, {"status": "ok"}
        if key == ("GET", "/readyz"):
            if self._draining:
                return 503, {"ready": False, "reason": "draining"}
            return 200, {"ready": True}
        if key == ("GET", "/stats"):
            return 200, self.stats()
        if deadline is not None and deadline.expired:
            # Expired on arrival (or while parsing): shed before any
            # model work happens.
            raise DeadlineExceeded(deadline, where="admitted")
        if key == ("GET", "/v1/cards"):
            return 200, self.service.describe_cards()
        if key == ("POST", "/v1/query"):
            query = parse_point_query(request.json())
            payload = await self.batcher.submit(query, deadline=deadline)
            if payload["ok"]:
                return 200, payload
            error = dict(payload["error"])
            error.setdefault("retryable", False)
            return 422, {"error": error}
        if key == ("POST", "/v1/grid"):
            body = request.json()
            return 200, await self._in_executor(
                deadline, self.service.evaluate_grid, body
            )
        if key == ("POST", "/v1/ipc"):
            body = request.json()
            return 200, await self._in_executor(
                deadline, self.service.evaluate_ipc, body
            )
        if key == ("POST", "/v1/cryostat"):
            plan = parse_cryostat_request(request.json())
            payload = await self._in_executor(
                deadline, self.service.evaluate_cryostat, plan
            )
            # Silicon metrics per in-domain stage ride the micro-batched
            # point path: concurrent stage queries (and any simultaneous
            # /v1/query traffic) coalesce into one vectorized batch.
            stage_queries = self.service.stage_point_queries(plan)
            verdicts = await asyncio.gather(
                *(
                    self.batcher.submit(q, deadline=deadline)
                    for q in stage_queries.values()
                )
            )
            payload["stage_metrics"] = {
                name: verdict
                for name, verdict in zip(stage_queries, verdicts)
            }
            return 200, payload
        known_paths = {
            "/healthz",
            "/readyz",
            "/stats",
            "/v1/cards",
            "/v1/query",
            "/v1/grid",
            "/v1/ipc",
            "/v1/cryostat",
        }
        if request.path in known_paths:
            raise HttpError(
                405, "method_not_allowed", f"{request.method} {request.path}"
            )
        raise HttpError(404, "not_found", f"no route for {request.path}")

    def stats(self) -> Dict:
        payload = self.service.stats()
        payload["batching"] = self.batcher.stats()
        payload["http"] = {
            "connections": self._n_connections,
            "protocol_errors": self._n_http_errors,
        }
        gate = self.gate.stats()
        payload["overload"] = {
            **gate,
            "shed_deadline": self._n_shed_deadline,
            "shed_shutdown": self._n_shed_shutdown,
            "default_deadline_ms": self.default_deadline_ms,
            "drain_timeout_s": self.drain_timeout_s,
            "draining": self._draining,
            "drain": self.last_drain,
        }
        return payload


class ServerHandle:
    """A running in-thread server (tests, benchmarks, the load test)."""

    def __init__(
        self,
        server: CryoWireServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        #: How the last :meth:`stop` went: ``graceful`` (drain completed
        #: in time), ``forced`` (drain hung; the loop was stopped out
        #: from under it), or ``abandoned`` (even the forced loop-stop
        #: could not be joined — a wedged loop thread; it is a daemon,
        #: so the process can still exit, but the port may stay held).
        self.last_stop_outcome: Optional[str] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stats(self) -> Dict:
        """Server stats, fetched thread-safely off the loop."""
        future = asyncio.run_coroutine_threadsafe(
            _call_async(self.server.stats), self._loop
        )
        return future.result(timeout=10)

    def stop(self, timeout: float = 10.0) -> str:
        """Stop the server, escalating if the graceful drain hangs.

        First a graceful :meth:`CryoWireServer.stop` (bounded by
        ``timeout``); if that does not complete — a wedged drain loop,
        a hung executor join — the event loop is stopped outright so
        the daemon thread cannot keep holding the port. Returns which
        path was taken (also kept in :attr:`last_stop_outcome`).
        """
        outcome = "graceful"
        future = None
        coro = self.server.stop()
        try:
            future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        except RuntimeError:
            coro.close()  # loop already gone; don't leak the coroutine
            outcome = "forced"
        if future is not None:
            try:
                future.result(timeout=timeout)
            except FuturesTimeout:
                outcome = "forced"
                future.cancel()
            except Exception:  # noqa: BLE001 - stop() failed; escalate
                outcome = "forced"
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:
            pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            outcome = "abandoned"
        self.last_stop_outcome = outcome
        return outcome

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def _call_async(fn):
    return fn()


def serve_in_thread(
    service: Optional[ModelService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    batching_enabled: bool = True,
    start_timeout_s: float = 15.0,
    max_inflight: int = 64,
    default_deadline_ms: Optional[float] = 10_000.0,
    drain_timeout_s: float = 5.0,
) -> ServerHandle:
    """Boot a :class:`CryoWireServer` on a background thread.

    ``port=0`` binds an ephemeral port (read it back off the handle).
    The caller owns the handle and must :meth:`ServerHandle.stop` it
    (or use it as a context manager).
    """
    server = CryoWireServer(
        service=service,
        host=host,
        port=port,
        batching_enabled=batching_enabled,
        max_inflight=max_inflight,
        default_deadline_ms=default_deadline_ms,
        drain_timeout_s=drain_timeout_s,
    )
    ready = threading.Event()
    box: Dict[str, object] = {}

    def _target() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            box["error"] = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            # A forced stop leaves the listener open and tasks pending
            # (the hung drain, idle connection handlers): close the
            # listener so the port is free when stop() returns, cancel
            # the tasks and give them a bounded window to unwind, so the
            # loop closes without leaking.
            if server._server is not None:
                server._server.close()
                server._server = None
            try:
                pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
                for pending_task in pending:
                    pending_task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.wait(pending, timeout=2.0)
                    )
            except RuntimeError:
                pass
            finally:
                loop.close()

    thread = threading.Thread(
        target=_target, daemon=True, name="cryowire-serve"
    )
    thread.start()
    if not ready.wait(start_timeout_s):
        raise RuntimeError("server did not start within the timeout")
    if "error" in box:
        raise RuntimeError(f"server failed to start: {box['error']}")
    return ServerHandle(server, box["loop"], thread)
