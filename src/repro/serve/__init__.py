"""``cryowire serve``: the long-running model-query service.

The package turns the registry/engine/batch stack into an async
HTTP/JSON API (stdlib ``asyncio`` only — no framework):

* :mod:`repro.serve.service` — :class:`ModelService`, the protocol-free
  domain layer: point / grid / IPC / cryostat model queries against the
  vectorized batch kernels, and the service-wide statistics
  (`TechContext` hit rates, guard tallies).
* :mod:`repro.serve.batching` — :class:`MicroBatcher`, the request
  queue that coalesces concurrent point queries into one
  :class:`~repro.tech.batch.OperatingPointBatch` per device card.
* :mod:`repro.serve.overload` — the budget vocabulary: per-request
  :class:`Deadline` time budgets and the bounded :class:`AdmissionGate`
  (shed, don't queue).
* :mod:`repro.serve.http` — a minimal asyncio HTTP/1.1 layer (request
  parsing, keep-alive, structured JSON errors).
* :mod:`repro.serve.app` — :class:`CryoWireServer`, wiring routes to
  the service and owning the process lifecycle (admission, deadlines,
  graceful drain), plus :func:`serve_in_thread` for tests and
  benchmarks.
"""

from repro.serve.app import CryoWireServer, ServerHandle, serve_in_thread
from repro.serve.batching import MicroBatcher
from repro.serve.overload import (
    AdmissionGate,
    BatcherClosed,
    Deadline,
    DeadlineExceeded,
    InvalidDeadline,
    QueueFull,
)
from repro.serve.service import ModelService, PointQuery, QueryError, WireSpec

__all__ = [
    "AdmissionGate",
    "BatcherClosed",
    "CryoWireServer",
    "Deadline",
    "DeadlineExceeded",
    "InvalidDeadline",
    "MicroBatcher",
    "ModelService",
    "PointQuery",
    "QueryError",
    "QueueFull",
    "ServerHandle",
    "serve_in_thread",
    "WireSpec",
]
