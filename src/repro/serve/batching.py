"""MicroBatcher: coalesce concurrent point queries into one batch.

The serve layer's throughput story in one mechanism. Each HTTP request
carries a single :class:`~repro.serve.service.PointQuery`; evaluating
them one at a time serialises a Python-level model call per request.
Instead, requests are appended to a pending list and a single worker
task drains it: as soon as it wakes it hands *everything* pending — up
to ``max_batch`` — to the evaluate hook as one list, which
:meth:`~repro.serve.service.ModelService.evaluate_points` turns into
one :class:`~repro.tech.batch.OperatingPointBatch` per device card for
the vectorized kernels. One NumPy pass replaces N scalar passes, and
the per-call overhead (guard checks, context lookups, Python dispatch)
is paid once per batch instead of once per request.

The policy is *dispatch on idle*: there is no coalescing window. A
request that reaches an idle executor is evaluated at once, alone.
Evaluation runs on a dedicated single-thread executor so the event loop
never blocks, and requests that arrive while a batch computes queue
behind it and go out together as the next batch (in arrival order,
chunked by ``max_batch``). Batches therefore grow with the backlog,
which is exactly the back-pressure behaviour a micro-batching queue
wants, and a quiet server adds no latency. A fixed 2 ms window was
measured against this policy out of process (two CPUs, server and
client on separate cores): at 2, 8 and 32 closed-loop connections it
lost on throughput, p50 and p99 alike, because the sleep saves no CPU
when few requests overlap.

Overload behaviour is budgeted, not implicit:

* every pending entry may carry a :class:`~repro.serve.overload.Deadline`;
  entries whose budget expires **while queued** are shed with
  :class:`~repro.serve.overload.DeadlineExceeded` *before* the batch is
  built — no kernel time is spent on answers nobody is waiting for —
  and a waiter whose batch is still computing when the budget runs out
  abandons the future (the late result is discarded) so its latency
  stays bounded even if the executor is wedged;
* ``max_queue`` bounds the pending list; submissions beyond it are shed
  with :class:`~repro.serve.overload.QueueFull` instead of queuing
  unboundedly;
* :meth:`stop` *drains*: new submissions are refused with
  :class:`~repro.serve.overload.BatcherClosed`, the worker flushes what
  is pending (deadline sweeps still apply), and only if the flush
  overruns ``drain_timeout_s`` is the worker cancelled and the leftover
  futures failed — every future is resolved exactly once either way,
  and the outcome (``drained`` vs ``forced``, counts, duration) is
  recorded in :attr:`last_drain`.

The chaos fault site ``serve.batch.drain`` wraps each batch evaluation
on the executor thread, so seeded hangs and faults exercise exactly the
fan-out and drain paths above without wedging the event loop.

``enabled=False`` keeps the same code path but evaluates each query as
its own length-1 batch — the A/B control the load-test harness uses to
measure what coalescing is worth.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.overload import (
    BatcherClosed,
    Deadline,
    DeadlineExceeded,
    QueueFull,
    consume_result as _consume_result,
)
from repro.util.faults import fault_point

#: A queued request: the query, its waiter, and its (optional) budget.
_Entry = Tuple[object, asyncio.Future, Optional[Deadline]]


class MicroBatcher:
    """Coalescing request queue in front of a batch-evaluate hook.

    Dispatch on idle: a submission that finds the worker idle is handed
    to the executor at once, as a batch of one; submissions that arrive
    while a batch computes form the next batch, in arrival order, up to
    ``max_batch`` at a time. Nothing waits for a partner.

    Parameters
    ----------
    evaluate:
        ``(queries) -> [payload, ...]`` — must return exactly one result
        per query, in order. Runs on ``executor`` (never on the loop).
    max_batch:
        Hard cap per drained batch; the remainder stays pending and is
        drained immediately after.
    max_queue:
        Admission bound on the pending list; ``None`` = unbounded (the
        pre-overload-control behaviour, kept for direct library use).
    enabled:
        ``False`` evaluates each query individually (the A/B control).
    """

    def __init__(
        self,
        evaluate: Callable[[Sequence[object]], List[object]],
        max_batch: int = 256,
        enabled: bool = True,
        executor: Optional[ThreadPoolExecutor] = None,
        max_queue: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self._evaluate = evaluate
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.enabled = enabled
        self._executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="cryowire-model"
        )
        self._owns_executor = executor is None
        self._pending: List[_Entry] = []
        self._inflight_chunk: List[_Entry] = []
        self._wake: Optional[asyncio.Event] = None
        self._worker: Optional[asyncio.Task] = None
        self._closed = False
        #: Outcome record of the last :meth:`stop` (None until stopped).
        self.last_drain: Optional[Dict] = None
        # -- statistics (single-threaded: only touched on the loop) ----
        self._n_requests = 0
        self._n_batches = 0
        self._n_points = 0
        self._max_batch_seen = 0
        self._n_shed_queue_full = 0
        self._n_shed_deadline_queued = 0
        self._n_shed_deadline_wait = 0

    # ------------------------------------------------------------------
    # lifecycle (call on the event loop)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain worker on the running loop."""
        if self._worker is not None:
            return
        self._closed = False
        self._wake = asyncio.Event()
        self._worker = asyncio.get_running_loop().create_task(self._drain_loop())

    async def stop(self, drain_timeout_s: Optional[float] = 5.0) -> Dict:
        """Drain and stop: flush pending work, then shut the worker down.

        New submissions are refused immediately; the worker keeps
        draining until the pending list is empty (or ``drain_timeout_s``
        runs out, at which point it is cancelled and every unresolved
        future — pending *and* mid-batch — fails with
        :class:`BatcherClosed`). Returns the outcome record, also kept
        in :attr:`last_drain`.
        """
        t0 = time.monotonic()
        already_stopped = self._closed and self._worker is None
        self._closed = True
        pending_at_stop = len(self._pending) + len(self._inflight_chunk)
        if self._wake is not None:
            self._wake.set()
        outcome = "drained" if not already_stopped else "already-stopped"
        if self._worker is not None:
            if drain_timeout_s is not None and drain_timeout_s > 0:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._worker), drain_timeout_s
                    )
                except asyncio.TimeoutError:
                    outcome = "forced"
                except asyncio.CancelledError:
                    outcome = "forced"
            else:
                outcome = "forced"
            if outcome == "forced":
                self._worker.cancel()
                try:
                    await self._worker
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            self._worker = None
        failed = 0
        for _, future, _ in self._inflight_chunk + self._pending:
            if not future.done():
                failed += 1
                future.set_exception(
                    BatcherClosed(
                        "batcher shutting down: drain timed out with this "
                        "request unresolved"
                    )
                )
        self._inflight_chunk = []
        self._pending.clear()
        if self._owns_executor:
            self._executor.shutdown(wait=(outcome != "forced"))
        record = {
            "outcome": outcome,
            "pending_at_stop": pending_at_stop,
            "flushed": pending_at_stop - failed,
            "failed": failed,
            "duration_s": round(time.monotonic() - t0, 4),
        }
        if not already_stopped or self.last_drain is None:
            self.last_drain = record
        return record

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(
        self, query: object, deadline: Optional[Deadline] = None
    ) -> object:
        """Enqueue one query and await its individual result.

        ``deadline`` bounds the whole wait (queueing + compute): expired
        on arrival → shed immediately; expired while queued → shed by
        the drain sweep before kernel work; expired while the batch is
        computing → the waiter abandons the future and the late result
        is discarded.
        """
        if self._closed:
            raise BatcherClosed("batcher is draining; not accepting new work")
        if deadline is not None and deadline.expired:
            self._n_shed_deadline_wait += 1
            raise DeadlineExceeded(deadline, where="awaiting admission")
        loop = asyncio.get_running_loop()
        self._n_requests += 1
        if not self.enabled:
            # A/B control: one length-1 evaluation per request, still on
            # the model executor so the comparison isolates coalescing.
            future = loop.run_in_executor(
                self._executor, self._evaluate_batch, [query]
            )
            results = await self._await_with_deadline(future, deadline)
            self._account(1)
            return results[0]
        if self.max_queue is not None and len(self._pending) >= self.max_queue:
            self._n_shed_queue_full += 1
            raise QueueFull(len(self._pending), self.max_queue)
        if self._worker is None:
            self.start()
        future: asyncio.Future = loop.create_future()
        self._pending.append((query, future, deadline))
        self._wake.set()
        return await self._await_with_deadline(future, deadline)

    async def _await_with_deadline(
        self, future: "asyncio.Future", deadline: Optional[Deadline]
    ) -> object:
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), deadline.remaining_s()
            )
        except asyncio.TimeoutError:
            # Abandon: the batch may still complete; its result for this
            # query is discarded (co-batched neighbours are unaffected).
            if not future.done():
                self._n_shed_deadline_wait += 1
            future.add_done_callback(_consume_result)
            raise DeadlineExceeded(deadline, where="awaiting evaluation") from None

    # ------------------------------------------------------------------
    # the drain worker
    # ------------------------------------------------------------------
    def _evaluate_batch(self, queries: List[object]) -> List[object]:
        """Executor-side wrapper: the ``serve.batch.drain`` chaos site."""
        fault_point("serve.batch.drain")
        return self._evaluate(queries)

    def _sweep_expired(self) -> None:
        """Shed queued entries whose budget ran out (before kernel work)."""
        if not self._pending:
            return
        keep: List[_Entry] = []
        for entry in self._pending:
            _, future, deadline = entry
            if future.done():
                # Abandoned waiter (deadline fired mid-wait): drop the
                # entry entirely — evaluating it would be wasted work.
                continue
            if deadline is not None and deadline.expired:
                self._n_shed_deadline_queued += 1
                future.set_exception(
                    DeadlineExceeded(deadline, where="queued for a batch")
                )
                continue
            keep.append(entry)
        self._pending[:] = keep

    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._sweep_expired()
            if not self._pending:
                if self._closed:
                    return
                await self._wake.wait()
                self._wake.clear()
                continue
            # Dispatch on idle: whatever is pending goes out now; what
            # arrives during the executor call below is the next batch.
            chunk = self._pending[: self.max_batch]
            del self._pending[: len(chunk)]
            self._inflight_chunk = chunk
            queries = [q for q, _, _ in chunk]
            try:
                # A cancellation here (forced drain) deliberately leaves
                # _inflight_chunk populated: stop() fails those futures
                # so no waiter is ever abandoned.
                results = await loop.run_in_executor(
                    self._executor, self._evaluate_batch, queries
                )
                if len(results) != len(queries):
                    raise RuntimeError(
                        f"evaluate returned {len(results)} results "
                        f"for {len(queries)} queries"
                    )
            except Exception as exc:  # noqa: BLE001 - fan the failure out
                for _, future, _ in chunk:
                    if not future.done():
                        future.set_exception(exc)
                self._inflight_chunk = []
                continue
            self._account(len(queries))
            for (_, future, _), result in zip(chunk, results):
                if not future.done():
                    future.set_result(result)
            self._inflight_chunk = []

    def _account(self, batch_size: int) -> None:
        self._n_batches += 1
        self._n_points += batch_size
        self._max_batch_seen = max(self._max_batch_seen, batch_size)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Coalescing effectiveness + overload counters.

        ``coalescing_rate`` is the fraction of requests that rode along
        in someone else's batch (``1 - batches/points``): 0 when every
        request paid its own evaluate call, approaching 1 as batches
        grow. Batches only form behind a running one, so it stays near
        0 until requests overlap; the load test asserts it is non-zero
        under a closed-loop backlog.
        """
        coalesced = self._n_points - self._n_batches
        return {
            "enabled": self.enabled,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "queue_depth": len(self._pending),
            "requests": self._n_requests,
            "batches": self._n_batches,
            "points": self._n_points,
            "max_batch_seen": self._max_batch_seen,
            "mean_batch_size": (
                self._n_points / self._n_batches if self._n_batches else 0.0
            ),
            "coalescing_rate": (
                coalesced / self._n_points if self._n_points else 0.0
            ),
            "shed_queue_full": self._n_shed_queue_full,
            "shed_deadline_queued": self._n_shed_deadline_queued,
            "shed_deadline_wait": self._n_shed_deadline_wait,
            "last_drain": self.last_drain,
        }


#: Type of the evaluate hook (documentation only; kept loose at runtime).
EvaluateHook = Callable[[Sequence[object]], Awaitable[List[object]]]
