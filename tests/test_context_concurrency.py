"""TechContext: what a warm context saves, under threads, and the LRU
cap a long-running owner needs.

A warm context must return the same floats as a cold one without
re-deriving anything. The serve layer shares one process-global context
across worker threads; these tests pin the two properties that makes
safe:

* concurrent lookups never tear the store or the counters — every
  lookup is accounted exactly once, and warm lookups hand back one
  shared object (store-wins, no single-flight);
* with ``max_entries`` set, the store behaves as a strict LRU whose
  size never exceeds the cap, even mid-race.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.noc.link import WireLinkModel
from repro.noc.router import RouterModel
from repro.system.config import EVALUATION_SYSTEMS
from repro.system.multicore import MulticoreSystem
from repro.tech.context import TechContext, use_context
from repro.tech.mosfet import FREEPDK45_CARD, cryo_mosfet
from repro.tech.operating_point import OperatingPoint
from repro.tech.wire import CryoWireModel
from repro.workloads.profiles import PARSEC_2_1


class TestWarmReuse:
    @staticmethod
    def _physics_sweep() -> float:
        """Re-price wires, links and routers across a temperature sweep."""
        wires, links, router = CryoWireModel(), WireLinkModel(), RouterModel()
        acc = 0.0
        for t in range(77, 301, 8):
            op = OperatingPoint.at(float(t))
            for length_um in (500.0, 1000.0, 2000.0, 4000.0, 6220.0):
                acc += wires.repeated_delay("global", length_um, op)
                acc += wires.unrepeated_delay("semi_global", length_um, op)
            acc += links.hop_delay_ns(op)
            acc += router.frequency_ghz(op)
        return acc

    def test_warm_sweep_is_transparent_and_twice_as_fast(self):
        """A 2-vCPU host reads about 3 ms warm against 70 ms cold."""
        with use_context(TechContext()) as ctx:
            start = time.perf_counter()
            cold_value = self._physics_sweep()
            cold_s = time.perf_counter() - start
            cold = ctx.stats()
            warm_s = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                warm_value = self._physics_sweep()
                warm_s = min(warm_s, time.perf_counter() - start)
            warm = ctx.stats()
        assert warm_value == cold_value
        assert cold.misses > 100  # the sweep really derives physics
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits
        assert warm_s < cold_s / 2.0

    def test_table4_suite_rederives_nothing_warm(self):
        """The Fig. 17/23 workload: 5 systems x PARSEC, run twice."""
        def suite():
            for config in EVALUATION_SYSTEMS:
                MulticoreSystem(config).evaluate_suite(PARSEC_2_1)

        with use_context(TechContext()) as ctx:
            suite()
            cold = ctx.stats()
            suite()
            warm = ctx.stats()
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits


class TestThreadSafety:
    def test_counters_account_every_lookup(self):
        """N threads x M lookups over a small key set: hits + misses must
        equal the exact number of memo() calls, and every key must end up
        stored once."""
        context = TechContext()
        n_threads, n_rounds, n_keys = 8, 200, 10
        barrier = threading.Barrier(n_threads)

        def worker(seed):
            barrier.wait()
            for round_i in range(n_rounds):
                key = ("stress", (seed + round_i) % n_keys)
                context.memo(key, lambda k=key: {"value": k[1]})

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = context.stats()
        assert stats.lookups == n_threads * n_rounds
        assert stats.entries == n_keys
        # Misses can exceed n_keys (no single-flight: concurrent misses
        # both compute), but every lookup is either a hit or a miss.
        assert stats.misses >= n_keys
        assert stats.hits == stats.lookups - stats.misses

    def test_store_wins_and_warm_lookups_share_one_object(self):
        """Even when two threads race the same cold key, every caller
        receives the single stored object."""
        context = TechContext()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        received = []
        lock = threading.Lock()

        def worker():
            barrier.wait()
            value = context.memo(("race", 1), lambda: object())
            with lock:
                received.append(value)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(received) == n_threads
        first = received[0]
        assert all(value is first for value in received)
        assert context.memo(("race", 1), lambda: object()) is first

    def test_model_kernels_through_one_shared_context(self):
        """The real serve-shaped workload: threads pricing overlapping
        operating points through the model layer must agree bit-for-bit
        with a quiet single-threaded evaluation."""
        points = [OperatingPoint.at(77.0 + 30.0 * i, 0.7 + 0.05 * i, 0.25) for i in range(5)]
        with use_context(TechContext()):
            mosfet = cryo_mosfet(FREEPDK45_CARD)
            expected = [mosfet.gate_delay_factor(op) for op in points]

        shared = TechContext()
        results = {}
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def worker(worker_i):
            barrier.wait()
            local = []
            for op in points:
                local.append(mosfet_shared.gate_delay_factor(op))
            with lock:
                results[worker_i] = local

        with use_context(shared):
            mosfet_shared = cryo_mosfet(FREEPDK45_CARD)
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert len(results) == 6
        for local in results.values():
            assert local == expected
        assert shared.stats().hits > 0


class TestLRUEviction:
    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            TechContext(max_entries=0)

    def test_unbounded_by_default(self):
        context = TechContext()
        for i in range(100):
            context.memo(("fam", i), lambda i=i: i)
        stats = context.stats()
        assert stats.entries == 100
        assert stats.evictions == 0
        assert stats.max_entries is None

    def test_cap_evicts_least_recently_used(self):
        context = TechContext(max_entries=3)
        for i in range(3):
            context.memo(("fam", i), lambda i=i: i)
        context.memo(("fam", 3), lambda: 3)  # evicts key 0
        assert len(context) == 3
        sentinel = object()
        # Key 0 is gone (recomputes), keys 1-3 are warm.
        assert context.memo(("fam", 0), lambda: sentinel) is sentinel
        assert context.stats().evictions == 2  # key 0, then key 1 for 0's return

    def test_hit_refreshes_recency(self):
        context = TechContext(max_entries=2)
        context.memo(("fam", "a"), lambda: "a")
        context.memo(("fam", "b"), lambda: "b")
        context.memo(("fam", "a"), lambda: "stale")  # hit: refresh "a"
        context.memo(("fam", "c"), lambda: "c")  # evicts "b", not "a"
        assert context.memo(("fam", "a"), lambda: "recomputed") == "a"
        assert context.memo(("fam", "b"), lambda: "recomputed") == "recomputed"

    def test_eviction_counters_per_family_roll_up(self):
        context = TechContext(max_entries=2)
        for i in range(5):
            context.memo(("alpha", i), lambda i=i: i)
        for i in range(2):
            context.memo(("beta", i), lambda i=i: i)
        stats = context.stats()
        assert stats.entries == 2
        assert stats.evictions == 5
        assert stats.max_entries == 2

    def test_clear_resets_store_and_counters(self):
        context = TechContext(max_entries=2)
        for i in range(4):
            context.memo(("fam", i), lambda i=i: i)
        context.clear()
        stats = context.stats()
        assert (stats.hits, stats.misses, stats.entries, stats.evictions) == (0, 0, 0, 0)

    def test_cap_holds_under_concurrent_misses(self):
        """The store must never exceed the cap, even while many threads
        miss simultaneously; the counters still account every lookup."""
        cap = 16
        context = TechContext(max_entries=cap)
        n_threads, n_rounds = 8, 300
        barrier = threading.Barrier(n_threads)
        overflows = []

        def worker(seed):
            barrier.wait()
            for round_i in range(n_rounds):
                key = ("lru", (seed * 7 + round_i) % 64)
                context.memo(key, lambda k=key: k)
                size = len(context)
                if size > cap:
                    overflows.append(size)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not overflows, f"store exceeded cap: {overflows[:5]}"
        stats = context.stats()
        assert stats.lookups == n_threads * n_rounds
        assert stats.entries <= cap
        assert stats.evictions > 0
