"""Synthetic traffic patterns for load-latency analysis (Figs. 18/21/25).

Patterns follow BookSim's definitions:

* **uniform** -- destination drawn uniformly among other nodes;
* **transpose** -- node (x, y) sends to (y, x) on the square grid;
* **hotspot** -- a fraction of traffic targets a small set of hot nodes;
* **bit_reverse** -- destination is the bit-reversed node id;
* **burst** -- uniform destinations, but injection arrives in on/off
  bursts (Markov-modulated) at the same average rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.util.rng import make_rng

#: One injected packet: (cycle, src, dst).
Packet = Tuple[int, int, int]


@dataclass(frozen=True)
class TrafficPattern:
    """A named destination distribution plus an injection process."""

    name: str
    n_nodes: int
    destination: Callable[[int, np.random.Generator], int]
    #: Burstiness: mean on/off lengths in cycles (None = Bernoulli).
    burst_on_off: Optional[Tuple[float, float]] = None

    def packets(
        self,
        injection_rate: float,
        n_cycles: int,
        seed: str = "traffic",
    ) -> Iterator[Packet]:
        """Yield (cycle, src, dst) with per-node ``injection_rate``."""
        if not (0.0 <= injection_rate <= 1.0):
            raise ValueError("injection rate must lie in [0, 1]")
        rng = make_rng(seed, stream=f"{self.name}/{injection_rate}")
        if self.burst_on_off is None:
            for cycle in range(n_cycles):
                fires = rng.random(self.n_nodes) < injection_rate
                for src in fires.nonzero()[0]:
                    dst = self.destination(int(src), rng)
                    if dst != src:
                        yield cycle, int(src), dst
            return

        on_len, off_len = self.burst_on_off
        # During a burst the node injects at elevated rate so the average
        # still equals injection_rate: rate_on = rate * (on+off)/on.
        rate_on = min(injection_rate * (on_len + off_len) / on_len, 1.0)
        state_on = rng.random(self.n_nodes) < on_len / (on_len + off_len)
        for cycle in range(n_cycles):
            flips_on = rng.random(self.n_nodes) < 1.0 / off_len
            flips_off = rng.random(self.n_nodes) < 1.0 / on_len
            state_on = np.where(state_on, ~flips_off, flips_on)
            fires = state_on & (rng.random(self.n_nodes) < rate_on)
            for src in fires.nonzero()[0]:
                dst = self.destination(int(src), rng)
                if dst != src:
                    yield cycle, int(src), dst


def _uniform(n_nodes: int) -> Callable[[int, np.random.Generator], int]:
    def pick(src: int, rng: np.random.Generator) -> int:
        dst = int(rng.integers(0, n_nodes - 1))
        return dst if dst < src else dst + 1

    return pick


def _transpose(n_nodes: int) -> Callable[[int, np.random.Generator], int]:
    side = int(round(math.sqrt(n_nodes)))
    if side * side != n_nodes:
        raise ValueError("transpose needs a square node count")

    def pick(src: int, rng: np.random.Generator) -> int:
        x, y = src % side, src // side
        return x * side + y

    return pick


def _bit_reverse(n_nodes: int) -> Callable[[int, np.random.Generator], int]:
    bits = n_nodes.bit_length() - 1
    if 1 << bits != n_nodes:
        raise ValueError("bit_reverse needs a power-of-two node count")

    def pick(src: int, rng: np.random.Generator) -> int:
        out = 0
        for b in range(bits):
            if src & (1 << b):
                out |= 1 << (bits - 1 - b)
        return out

    return pick


def _hotspot(
    n_nodes: int, n_hot: int = 4, hot_fraction: float = 0.3
) -> Callable[[int, np.random.Generator], int]:
    uniform = _uniform(n_nodes)
    hot = [i * (n_nodes // n_hot) for i in range(n_hot)]

    def pick(src: int, rng: np.random.Generator) -> int:
        if rng.random() < hot_fraction:
            # A hot source must not draw itself: the dst != src filter
            # would silently drop the packet, deflating the effective
            # hotspot fraction (and the offered load) below nominal.
            others = [node for node in hot if node != src]
            if others:
                return others[int(rng.integers(0, len(others)))]
        return uniform(src, rng)

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
