"""Shared load-latency measurement core for the NoC engines.

Every headline NoC claim in the paper (Figs. 18/21/25/26) rests on
load-latency curves. Two engines measure them: the packet-level
simulator (:mod:`repro.noc.simulator`) and the 256-core hybrid
(:mod:`repro.noc.hybrid`). What the numbers *mean* lives here, once:

* **offered** -- measured packets the pattern injected after warmup,
  *including* packets whose source and destination share a router
  (those still cost an injection and an ejection, and dropping them
  from the count would deflate acceptance on concentrated topologies);
* **delivered** -- measured packets whose latency was recorded before
  the engine's horizon; everything else counts as undelivered;
* **saturated** -- mean latency above ``SATURATION_FACTOR`` x zero-load,
  or more than 10 % of offered packets undelivered.

:class:`LatencyMeter` is the per-run accumulator each engine drives;
:func:`load_latency_curve` sweeps injection rates through any engine and
stops simulating once the curve saturates (higher rates are synthesised
as saturated points -- their exact latency is a drain-cap artefact, not
a measurement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

#: A mean latency above this multiple of zero-load (or >10 % undelivered
#: measured packets) marks the point as saturated.
SATURATION_FACTOR = 20.0

#: Cap applied to latencies when rendering curves (plot-friendly stand-in
#: for infinity used by the figure drivers).
LATENCY_CAP = 1e6


@dataclass(frozen=True)
class LoadLatencyPoint:
    """One point of a load-latency curve."""

    injection_rate: float
    mean_latency_cycles: float
    p95_latency_cycles: float
    delivered_packets: int
    offered_packets: int
    saturated: bool

    @property
    def acceptance(self) -> float:
        if self.offered_packets == 0:
            return 1.0
        return self.delivered_packets / self.offered_packets

    @property
    def capped_latency_cycles(self) -> float:
        """Mean latency clamped to :data:`LATENCY_CAP` for plotting."""
        return min(self.mean_latency_cycles, LATENCY_CAP)


def summarise(
    injection_rate: float,
    latencies: List[int],
    offered: int,
    zero_load_estimate: float,
) -> LoadLatencyPoint:
    """Fold recorded latencies into a :class:`LoadLatencyPoint`."""
    if not latencies:
        return LoadLatencyPoint(injection_rate, math.inf, math.inf, 0, offered, True)
    latencies.sort()
    mean = sum(latencies) / len(latencies)
    p95 = latencies[min(int(0.95 * len(latencies)), len(latencies) - 1)]
    saturated = (
        mean > SATURATION_FACTOR * max(zero_load_estimate, 1.0)
        or len(latencies) < 0.9 * offered
    )
    return LoadLatencyPoint(
        injection_rate=injection_rate,
        mean_latency_cycles=mean,
        p95_latency_cycles=float(p95),
        delivered_packets=len(latencies),
        offered_packets=offered,
        saturated=saturated,
    )


class LatencyMeter:
    """Offered/delivered accounting for one simulation run.

    Engines register injected packets with :meth:`offer_all` (or
    :meth:`offer`, one at a time) and record each measured packet that
    completes with :meth:`deliver_all`, :meth:`deliver` or
    :meth:`deliver_local`.  Undelivered packets need no bookkeeping:
    they are the gap between offered and delivered.
    """

    __slots__ = ("warmup", "offered", "latencies")

    def __init__(self, warmup: int):
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        self.warmup = warmup
        self.offered = 0
        self.latencies: List[int] = []

    def offer(self, inject_cycle: int) -> bool:
        """Register an injected packet; return whether it is measured."""
        measured = inject_cycle >= self.warmup
        if measured:
            self.offered += 1
        return measured

    def offer_all(self, inject_cycles) -> None:
        """Register every packet of a trace from its array of inject
        cycles, for an engine that needs no per-packet measured flag."""
        self.offered += int((inject_cycles >= self.warmup).sum())

    def deliver(self, inject_cycle: int, done_cycle: int) -> None:
        """Record a measured packet completing at ``done_cycle``."""
        self.latencies.append(done_cycle - inject_cycle)

    def deliver_all(self, latencies: List[int]) -> None:
        """Record measured packets by their latencies, for an engine that
        computes them in bulk."""
        self.latencies.extend(latencies)

    def deliver_local(self, packet_flits: int) -> None:
        """Record a same-router delivery: injection + ejection +
        tail-flit serialisation, no fabric traversal."""
        self.latencies.append(2 + packet_flits - 1)

    def summarise(
        self, injection_rate: float, zero_load_estimate: float
    ) -> LoadLatencyPoint:
        return summarise(
            injection_rate, self.latencies, self.offered, zero_load_estimate
        )


def saturated_point(injection_rate: float) -> LoadLatencyPoint:
    """A synthesised saturated point (no packets simulated)."""
    return LoadLatencyPoint(injection_rate, math.inf, math.inf, 0, 0, True)


def load_latency_curve(
    simulate: Callable[..., LoadLatencyPoint],
    rates: Sequence[float],
    stop_on_saturation: bool = True,
    **kwargs,
) -> List[LoadLatencyPoint]:
    """Sweep injection rates through ``simulate`` (any engine).

    ``simulate`` is called as ``simulate(injection_rate=rate, **kwargs)``
    -- bind topology/pattern/engine arguments via ``functools.partial``.

    With ``stop_on_saturation`` (the default), once a rate saturates, any
    later rate at or above it is synthesised as a saturated point instead
    of being simulated: past the saturation knee the measured latency is
    an artefact of the drain cap, and simulating it is the single most
    expensive part of a sweep.  Rates below the saturating rate (out of
    order inputs) are still simulated.
    """
    points: List[LoadLatencyPoint] = []
    sat_rate: float | None = None
    for rate in rates:
        if stop_on_saturation and sat_rate is not None and rate >= sat_rate:
            points.append(saturated_point(rate))
            continue
        point = simulate(injection_rate=rate, **kwargs)
        points.append(point)
        if point.saturated and (sat_rate is None or rate < sat_rate):
            sat_rate = rate
    return points
