"""Synthetic traffic patterns for load-latency analysis (Figs. 18/21/25).

Patterns follow BookSim's definitions:

* **uniform** -- destination drawn uniformly among other nodes;
* **transpose** -- node (x, y) sends to (y, x) on the square grid;
* **hotspot** -- a fraction of traffic targets a small set of hot nodes;
* **bit_reverse** -- destination is the bit-reversed node id;
* **burst** -- uniform destinations, but injection arrives in on/off
  bursts (Markov-modulated) at the same average rate.

A pattern draws a whole trace at once (:meth:`TrafficPattern.trace`).
Injections are Bernoulli per node and cycle, drawn :data:`BLOCK_CYCLES`
cycles at a time as one ``(cycles, nodes)`` uniform matrix compared with
the rate; after the last block, every destination of the trace comes
from one vectorized draw. The generator is asked only for uniforms and
bounded integers, never for geometric, exponential or binomial variates,
whose libm ``log``/``exp`` can round differently on another host, so a
trace is the same on every SIMD path numpy takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.util.rng import make_rng

#: Cycles of injections drawn per generator call, which bounds the
#: uniform matrix a trace holds at once. It fixes how the stream is
#: consumed: changing it changes every trace and re-records the NoC
#: goldens.
BLOCK_CYCLES = 256

#: Maps an array of sources to their destinations. The generator type
#: stays a string: evaluating ``np.random`` here would load numpy's random
#: package into every process that imports :mod:`repro.noc`.
DestinationMap = Callable[[np.ndarray, "np.random.Generator"], np.ndarray]


@dataclass(frozen=True, eq=False)
class Trace:
    """The packets a pattern injects, in injection order (by cycle, then
    by source): three integer arrays of one length."""

    cycle: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        """``(cycle, src, dst)`` per packet, as Python ints."""
        return zip(self.cycle.tolist(), self.src.tolist(), self.dst.tolist())


@dataclass(frozen=True)
class TrafficPattern:
    """A named destination map plus an injection process."""

    name: str
    n_nodes: int
    destination: DestinationMap
    #: Burstiness: mean on/off lengths in cycles (None = Bernoulli).
    burst_on_off: Optional[Tuple[float, float]] = None

    def trace(
        self, injection_rate: float, n_cycles: int, seed: str = "traffic"
    ) -> Trace:
        """Every packet injected over ``n_cycles`` at per-node
        ``injection_rate``. A packet addressed to its own source is not
        sent."""
        if not (0.0 <= injection_rate <= 1.0):
            raise ValueError("injection rate must lie in [0, 1]")
        rng = make_rng(seed, stream=f"{self.name}/{injection_rate}")
        cycle, src = self._injections(injection_rate, n_cycles, rng)
        dst = self.destination(src, rng)
        sent = dst != src
        return Trace(cycle[sent], src[sent], dst[sent])

    def _injections(
        self, injection_rate: float, n_cycles: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(cycle, src) of every injection, by cycle and then by source."""
        n = self.n_nodes
        rate = injection_rate
        if self.burst_on_off is not None:
            on_len, off_len = self.burst_on_off
            # During a burst the node injects at elevated rate so the
            # average still equals injection_rate.
            rate = min(injection_rate * (on_len + off_len) / on_len, 1.0)
            # One uniform u per node and cycle steps the on/off chain:
            # u < 1/on_len switches the node off, u >= 1 - 1/off_len
            # switches it on, anything between keeps its state. Those are
            # the chain's transition probabilities, and since no draw
            # toggles, a node's state is that of its last switch.
            go_off, go_on = 1.0 / on_len, 1.0 - 1.0 / off_len
            on = rng.random(n) < on_len / (on_len + off_len)
        cycles = [np.empty(0, dtype=np.intp)]
        sources = [np.empty(0, dtype=np.intp)]
        for start in range(0, n_cycles, BLOCK_CYCLES):
            rows = min(BLOCK_CYCLES, n_cycles - start)
            if self.burst_on_off is None:
                fires = rng.random((rows, n)) < rate
            else:
                u = rng.random((rows, n))
                switch_on = u >= go_on
                # Per node and cycle: 2 * (row of its last switch) + (1 if
                # that switch was on), or -1 before its first switch in
                # this block, where it keeps the state it carried in.
                last = np.maximum.accumulate(
                    np.where(
                        switch_on | (u < go_off),
                        2 * np.arange(rows)[:, None] + switch_on,
                        -1,
                    ),
                    axis=0,
                )
                state = np.where(last >= 0, (last & 1) == 1, on)
                on = state[-1]
                fires = state & (rng.random((rows, n)) < rate)
            cycle, src = np.divmod(np.flatnonzero(fires), n)
            cycles.append(cycle + start)
            sources.append(src)
        return np.concatenate(cycles), np.concatenate(sources)


def _uniform(n_nodes: int) -> DestinationMap:
    def pick(src: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        dst = rng.integers(0, n_nodes - 1, size=len(src))
        return dst + (dst >= src)

    return pick


def _fixed(table: np.ndarray) -> DestinationMap:
    def pick(src: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return table[src]

    return pick


def _transpose(n_nodes: int) -> DestinationMap:
    side = math.isqrt(n_nodes)
    if side * side != n_nodes:
        raise ValueError("transpose needs a square node count")
    node = np.arange(n_nodes)
    return _fixed((node % side) * side + node // side)


def _bit_reverse(n_nodes: int) -> DestinationMap:
    bits = n_nodes.bit_length() - 1
    if 1 << bits != n_nodes:
        raise ValueError("bit_reverse needs a power-of-two node count")
    node = np.arange(n_nodes)
    table = np.zeros_like(node)
    for b in range(bits):
        table |= ((node >> b) & 1) << (bits - 1 - b)
    return _fixed(table)


def _hotspot(
    n_nodes: int, n_hot: int = 4, hot_fraction: float = 0.3
) -> DestinationMap:
    if n_nodes < n_hot:
        raise ValueError(f"hotspot needs at least {n_hot} nodes")
    hot = np.arange(n_hot) * (n_nodes // n_hot)
    # A node's index among the hot nodes; n_hot for a cold node.
    rank = np.full(n_nodes, n_hot)
    rank[hot] = np.arange(n_hot)

    def pick(src: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # A hot source draws among the *other* hot nodes: letting it draw
        # itself would drop the packet and deflate the hotspot fraction
        # (and the offered load) below nominal.
        to_hot = rng.random(len(src)) < hot_fraction
        src_rank = rank[src]
        high = np.where(to_hot, n_hot - (src_rank < n_hot), n_nodes - 1)
        draw = rng.integers(0, high)
        dst = draw + (draw >= src)
        hot_draw = draw[to_hot]
        dst[to_hot] = hot[hot_draw + (hot_draw >= src_rank[to_hot])]
        return dst

    return pick


def make_pattern(name: str, n_nodes: int) -> TrafficPattern:
    """Build one of the Fig. 21/25 traffic patterns by name."""
    if name == "uniform":
        return TrafficPattern("uniform", n_nodes, _uniform(n_nodes))
    if name == "transpose":
        return TrafficPattern("transpose", n_nodes, _transpose(n_nodes))
    if name == "bit_reverse":
        return TrafficPattern("bit_reverse", n_nodes, _bit_reverse(n_nodes))
    if name == "hotspot":
        return TrafficPattern("hotspot", n_nodes, _hotspot(n_nodes))
    if name == "burst":
        return TrafficPattern(
            "burst", n_nodes, _uniform(n_nodes), burst_on_off=(16.0, 48.0)
        )
    raise ValueError(
        f"unknown traffic pattern {name!r}; choose from uniform, transpose, "
        "bit_reverse, hotspot, burst"
    )
