"""Overload-resilience primitives for the serve layer.

A model-query service that fronts user traffic needs explicit budgets —
time, queue depth, concurrency — enforced at every hop, the same way a
cryogenic link budget prices every component against a hard envelope.
This module is the serve layer's budget vocabulary:

* :class:`Deadline` — a per-request wall-clock budget, carried from the
  HTTP header (``X-CryoWire-Deadline-Ms``) or the server default through
  dispatch, the micro-batcher queue and the executor hop. Work is shed
  the moment the budget expires — *before* kernel time is spent on an
  answer nobody is waiting for.
* :class:`AdmissionGate` — a bounded in-flight counter. Excess load is
  refused up front with ``503 overloaded`` + ``Retry-After`` instead of
  queuing without bound (shed, don't queue: bounded queues are what keep
  admitted-request latency bounded under overload).

The structured exceptions (:class:`DeadlineExceeded`, :class:`QueueFull`,
:class:`BatcherClosed`) are the contract between the batcher/executor
layers and the transport: each maps to exactly one HTTP status + stable
error code in :mod:`repro.serve.app`, so every overload outcome is a
structured response, never a torn connection.

Everything here is stdlib-only and thread-safe (counters are touched
from the event loop *and* from test/driver threads).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

__all__ = [
    "AdmissionGate",
    "BatcherClosed",
    "Deadline",
    "DeadlineExceeded",
    "InvalidDeadline",
    "QueueFull",
]


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class InvalidDeadline(ValueError):
    """An ``X-CryoWire-Deadline-Ms`` header that cannot be honoured."""


class DeadlineExceeded(Exception):
    """The request's time budget ran out (maps to ``408``)."""

    def __init__(self, deadline: "Deadline", where: str = "") -> None:
        detail = f" while {where}" if where else ""
        super().__init__(
            f"deadline of {deadline.budget_ms:g} ms exceeded{detail}"
        )
        self.deadline = deadline
        self.where = where


class Deadline:
    """A monotonic-clock time budget for one request.

    ``budget_ms`` is what the client asked for (or the server default);
    the expiry instant is pinned at construction so the budget covers
    queueing *and* compute. ``remaining_s()`` is what the executor hop
    may still spend; once it hits zero the request is shed wherever it
    happens to be waiting.
    """

    __slots__ = ("budget_ms", "_expires_at")

    def __init__(self, budget_ms: float) -> None:
        budget_ms = float(budget_ms)
        if not budget_ms > 0 or budget_ms != budget_ms or budget_ms == float("inf"):
            raise InvalidDeadline(
                f"deadline budget must be a positive finite number of "
                f"milliseconds, got {budget_ms!r}"
            )
        self.budget_ms = budget_ms
        self._expires_at = time.monotonic() + budget_ms / 1000.0

    @classmethod
    def from_header(
        cls, raw: Optional[str], default_ms: Optional[float]
    ) -> Optional["Deadline"]:
        """Parse ``X-CryoWire-Deadline-Ms``; fall back to the default.

        ``None`` (no header, no default) means the request runs on the
        house's time. A header that is not a positive finite number
        raises :class:`InvalidDeadline` (the transport answers ``400``).
        """
        if raw is None:
            if default_ms is None:
                return None
            return cls(default_ms)
        try:
            budget_ms = float(raw)
        except (TypeError, ValueError):
            raise InvalidDeadline(
                f"X-CryoWire-Deadline-Ms must be a number of milliseconds, "
                f"got {raw!r}"
            ) from None
        return cls(budget_ms)

    def remaining_s(self) -> float:
        return max(0.0, self._expires_at - time.monotonic())

    def remaining_ms(self) -> float:
        return self.remaining_s() * 1000.0

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def to_payload(self) -> Dict:
        """The budget record every response carries."""
        return {
            "budget_ms": round(self.budget_ms, 3),
            "remaining_ms": round(self.remaining_ms(), 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget_ms={self.budget_ms:g}, "
            f"remaining_ms={self.remaining_ms():.1f})"
        )


def consume_result(future) -> None:
    """Swallow an abandoned future's outcome.

    Done-callback for futures whose waiter gave up (deadline fired while
    the batch was still computing): retrieves the late result/exception
    so asyncio never logs 'exception was never retrieved'.
    """
    if not future.cancelled():
        future.exception()


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class QueueFull(Exception):
    """The batcher's pending queue is at capacity (maps to ``503``)."""

    def __init__(self, depth: int, max_queue: int) -> None:
        super().__init__(
            f"batch queue is full ({depth} pending, cap {max_queue})"
        )
        self.depth = depth
        self.max_queue = max_queue


class BatcherClosed(RuntimeError):
    """The batcher is draining or stopped (maps to ``503 shutting_down``)."""


class AdmissionGate:
    """A bounded in-flight request counter.

    ``try_acquire`` either admits the request (counted, must be paired
    with ``release``) or sheds it; there is no waiting state — a full
    service answers ``503`` immediately rather than building an
    unbounded backlog whose tail latency nobody survives.
    """

    def __init__(self, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._inflight = 0
        self._peak_inflight = 0
        self._admitted = 0
        self._shed = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._shed += 1
                return False
            self._inflight += 1
            self._admitted += 1
            if self._inflight > self._peak_inflight:
                self._peak_inflight = self._inflight
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    async def wait_idle(self, timeout_s: float) -> bool:
        """Await all in-flight requests finishing; ``False`` on timeout."""
        import asyncio

        deadline = time.monotonic() + max(0.0, timeout_s)
        while self.inflight > 0:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    def stats(self) -> Dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "peak_inflight": self._peak_inflight,
                "admitted": self._admitted,
                "shed_overload": self._shed,
            }

