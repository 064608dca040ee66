"""Analytic multicore system simulator (the gem5-substitute).

For one (system, workload) pair the simulator solves a closed loop:

    IPC -> NoC injection rate -> contended latencies -> CPI -> IPC

damped fixed-point iteration, exactly the equilibrium a full-system
simulation settles into (slow fabrics throttle their own traffic). The
result is a CPI stack (Fig. 3's buckets: core, branch, private cache,
NoC, shared cache, DRAM, synchronisation) and the execution-time-based
performance used in Figs. 17/23/24.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.core.ipc import IPCModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.noc.bus import CryoBusDesign, HTreeBus300K, SharedBusDesign
from repro.noc.latency import AnalyticNocModel, IdealNoc
from repro.noc.router import RouterModel
from repro.noc.topology import Mesh
from repro.system.config import SystemConfig
from repro.util.guards import (
    get_guards,
    validate_operating_point,
    validate_workload_profile,
)
from repro.workloads.prefetch import StridePrefetcher
from repro.workloads.profiles import WorkloadProfile

#: Memory-level-parallelism exposure: fraction of raw miss latency that
#: shows up as pipeline stall (the rest overlaps with execution).
MLP_EXPOSURE = 0.6

#: Residual at or below this certifies convergence even when the loop
#: exhausted its iteration budget without an exact-repeat/tolerance exit.
CONVERGENCE_RTOL = 1e-6

#: Initial damping of the fixed-point update (fraction of the previous
#: iterate retained). Raised adaptively when the iterate oscillates.
INITIAL_DAMPING = 0.5

#: Ceiling for adaptive damping (retaining more would stall progress).
MAX_DAMPING = 0.9



@lru_cache(maxsize=None)
def _shared_mesh(n_cores: int) -> Mesh:
    """One mesh per core count, shared by every system: its derived
    geometry (average hops, link count) is memoized on the instance."""
    return Mesh(n_cores)


@dataclass(frozen=True)
class CpiStack:
    """CPI decomposition in core cycles (the Fig. 3 buckets)."""

    core: float
    branch: float
    private_cache: float
    noc: float
    shared_cache: float
    dram: float
    sync: float

    @property
    def total(self) -> float:
        return (
            self.core
            + self.branch
            + self.private_cache
            + self.noc
            + self.shared_cache
            + self.dram
            + self.sync
        )

    def fractions(self) -> Dict[str, float]:
        total = self.total
        names = (
            "core",
            "branch",
            "private_cache",
            "noc",
            "shared_cache",
            "dram",
            "sync",
        )
        # A degenerate all-zero stack (synthetic inputs, trace replay of
        # an empty window) has no meaningful decomposition; report zeros
        # rather than dividing by zero.
        if total == 0.0:
            return {name: 0.0 for name in names}
        return {name: getattr(self, name) / total for name in names}


@dataclass(frozen=True)
class ConvergenceInfo:
    """Certificate for one fixed-point solve of :meth:`MulticoreSystem.evaluate`.

    ``converged`` is True when the loop exited on an exact repeat, met
    the caller's tolerance, or finished with a relative residual at or
    below :data:`CONVERGENCE_RTOL`. ``damping`` is the final damping
    factor in effect (> :data:`INITIAL_DAMPING` means the iterate
    oscillated and the loop stabilised itself); ``saturation_clamped``
    records whether the final iterate's NoC load had to be clamped below
    saturation, i.e. whether the answer sits on the 98 % clamp. An early
    iterate that overshoots capacity on a solve that then settles below
    it does not count.
    """

    converged: bool
    residual: float
    damping: float
    saturation_clamped: bool = False


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of evaluating one workload on one system."""

    system_name: str
    workload_name: str
    cpi_stack: CpiStack
    ipc: float
    frequency_ghz: float
    injection_rate_per_core: float
    noc_aggregate_rate: float
    #: Fixed-point iterations actually run (0 for results built by code
    #: paths that do not iterate, e.g. trace replay).
    iterations_used: int = 0
    #: Convergence certificate (None for non-iterative code paths).
    convergence: Optional[ConvergenceInfo] = None

    @property
    def time_per_kilo_instruction_ns(self) -> float:
        return 1000.0 * self.cpi_stack.total / self.frequency_ghz

    @property
    def performance(self) -> float:
        """Inverse execution time (instructions per ns)."""
        return self.frequency_ghz / self.cpi_stack.total


class MulticoreSystem:
    """Evaluate workloads on one Table 4 system configuration."""

    def __init__(
        self,
        config: SystemConfig,
        ipc_model: Optional[IPCModel] = None,
        exposure: float = MLP_EXPOSURE,
    ):
        if not (0.0 < exposure <= 1.0):
            raise ValueError("exposure must lie in (0, 1]")
        self.config = config
        self.ipc_model = ipc_model if ipc_model is not None else IPCModel()
        self.exposure = exposure
        self.noc = self._build_noc()
        self.hierarchy = MemoryHierarchy(
            config.caches, config.dram, self.noc, config.noc.protocol
        )

    # ------------------------------------------------------------------
    def _build_noc(self):
        spec = self.config.noc
        op = spec.operating_point
        if spec.kind == "ideal":
            # Even a zero-latency fabric needs a clock: multi-flit
            # transfers serialise against it in the memory hierarchy.
            return IdealNoc(clock_ghz=spec.reference_clock_ghz)
        if spec.kind == "mesh":
            return AnalyticNocModel(
                topology=_shared_mesh(self.config.n_cores),
                op=op,
                router=RouterModel(pipeline_cycles=spec.router_cycles),
                reference_clock_ghz=spec.reference_clock_ghz,
            )
        if spec.kind == "bus":
            bus = SharedBusDesign(self.config.n_cores)
        elif spec.kind == "htree_bus":
            bus = HTreeBus300K(self.config.n_cores)
        else:  # cryobus
            bus = CryoBusDesign(self.config.n_cores, spec.interleave_ways)
        return AnalyticNocModel(
            bus=bus,
            op=op,
            reference_clock_ghz=spec.reference_clock_ghz,
        )

    # ------------------------------------------------------------------
    def _miss_split(
        self, profile: WorkloadProfile, prefetcher: Optional[StridePrefetcher]
    ) -> Dict[str, float]:
        """Per-kilo-instruction rates for each access class."""
        l2_mpki = profile.l2_mpki
        if prefetcher is not None:
            l2_mpki = prefetcher.effective_l2_mpki(profile)
        # sharing_fraction is a fraction of L2 misses, so coherence
        # traffic can never exceed the misses themselves; clamp so a
        # duck-typed profile with sharing_fraction > 1 cannot push the
        # DRAM/L3 split negative.
        c2c = min(l2_mpki * profile.sharing_fraction, l2_mpki)
        dram = min(profile.l3_mpki, l2_mpki - c2c)
        dram = max(dram, 0.0)
        l3_hit = max(l2_mpki - c2c - dram, 0.0)
        noc_requests = profile.l2_mpki
        if prefetcher is not None:
            noc_requests = prefetcher.noc_requests_pki(profile)
        return {
            "c2c_pki": c2c,
            "dram_pki": dram,
            "l3_hit_pki": l3_hit,
            "noc_requests_pki": noc_requests,
        }

    def _aggregate_rate(self, inj_per_core: float) -> float:
        """Per-core injection (packets/core-cycle) -> packets/NoC-cycle."""
        f_core = self.config.core.frequency_ghz
        f_noc = self.noc.clock_ghz
        return inj_per_core * self.config.n_cores * f_core / f_noc

    # ------------------------------------------------------------------
    def evaluate(
        self,
        profile: WorkloadProfile,
        prefetcher: Optional[StridePrefetcher] = None,
        iterations: int = 40,
        tolerance: float = 0.0,
    ) -> WorkloadResult:
        """Closed-loop evaluation of one workload.

        The damped fixed-point loop stops early once successive IPC
        iterates converge: with the default ``tolerance=0.0`` only an
        *exact* repeat stops it (every further iteration would reproduce
        the same state bit for bit, so the result is identical to running
        all ``iterations``); a positive ``tolerance`` accepts a relative
        IPC change at or below it. ``iterations_used`` on the result
        reports how many iterations actually ran, and ``convergence``
        carries the certificate: final relative residual, the damping in
        effect (raised adaptively if the iterate oscillated), and whether
        the final iterate sits on the saturation clamp. A solve that ends
        uncertified (residual above :data:`CONVERGENCE_RTOL`) or clamped
        records a guard warning (an error under a strict
        :class:`GuardContext`).
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if tolerance < 0.0:
            raise ValueError("tolerance must be non-negative")
        cfg = self.config
        guards = get_guards()
        validate_workload_profile(profile, site="multicore.workload", guards=guards)
        validate_operating_point(
            cfg.noc.operating_point, site="multicore.operating_point", guards=guards
        )
        f_core = cfg.core.frequency_ghz
        core_cpi = self.ipc_model.issue_cpi(cfg.core.config, profile)
        branch_cpi = self.ipc_model.restart_cpi(cfg.core.config, profile)
        split = self._miss_split(profile, prefetcher)

        ipc = 1.0 / (core_cpi + branch_cpi)  # optimistic start
        stack = None
        load = 0.0
        iterations_used = 0
        damping = INITIAL_DAMPING
        residual = float("inf")
        prev_delta = 0.0
        osc_streak = 0
        saturation_clamped = False
        converged = False
        for _ in range(iterations):
            # Contention is driven by request packets: snooping buses
            # carry data on a separate wide data path (only the address
            # bus arbitrates), and mesh data responses ride links with
            # ample headroom at these rates.
            inj = split["noc_requests_pki"] / 1000.0 * ipc
            load = self._aggregate_rate(inj)
            # Clamp into the stable region; the fixed point settles just
            # below saturation when demand exceeds capacity (the
            # equilibrium latency at 98 % utilisation matches the
            # throughput-limited operating point). The flag describes
            # this iterate, so after the loop it describes the final one:
            # an early overshoot the solve later leaves behind is not a
            # saturated answer.
            sat = self.noc.saturation_rate()
            saturation_clamped = load >= sat
            if saturation_clamped:
                load = 0.98 * sat

            hit = self.hierarchy.l3_hit(load)
            miss = self.hierarchy.l3_miss(load)
            c2c = self.hierarchy.cache_to_cache(load)
            barrier_ns = self.hierarchy.barrier_ns(cfg.n_cores, load)
            lock_ns = self.hierarchy.lock_ns(load)

            def stall(rate_pki: float, latency_ns: float) -> float:
                return rate_pki / 1000.0 * latency_ns * f_core * self.exposure

            noc_cpi = (
                stall(split["l3_hit_pki"], hit.noc_ns)
                + stall(split["dram_pki"], miss.noc_ns)
                + stall(split["c2c_pki"], c2c.noc_ns)
            )
            shared_cpi = (
                stall(split["l3_hit_pki"], hit.cache_ns)
                + stall(split["dram_pki"], miss.cache_ns)
                + stall(split["c2c_pki"], c2c.cache_ns)
            )
            dram_cpi = stall(split["dram_pki"], miss.dram_ns)
            private_cpi = stall(profile.l1d_mpki, cfg.caches.l2_latency_ns)
            # Synchronisation stalls are fully exposed (nothing overlaps
            # a barrier wait or a contended lock handoff).
            sync_cpi = (
                profile.barrier_pki / 1000.0 * barrier_ns
                + profile.lock_pki / 1000.0 * lock_ns
            ) * f_core

            stack = CpiStack(
                core=core_cpi,
                branch=branch_cpi,
                private_cache=private_cpi,
                noc=noc_cpi,
                shared_cache=shared_cpi,
                dram=dram_cpi,
                sync=sync_cpi,
            )
            # Damped update keeps the loop stable around saturation.
            iterations_used += 1
            new_ipc = damping * ipc + (1.0 - damping) * (1.0 / stack.total)
            delta = new_ipc - ipc
            residual = abs(delta) / abs(ipc)
            converged = new_ipc == ipc or (
                tolerance > 0.0 and abs(delta) <= tolerance * abs(ipc)
            )
            # Adaptive damping: two consecutive sign-flipping,
            # non-shrinking steps mean the iterate is bouncing across
            # the fixed point — retain more of the previous iterate.
            # (Two events, not one, so a single overshoot on an
            # otherwise contracting path leaves the solve untouched.)
            if delta * prev_delta < 0.0 and abs(delta) >= abs(prev_delta):
                osc_streak += 1
                if osc_streak >= 2:
                    damping = min(MAX_DAMPING, 0.5 * (1.0 + damping))
                    osc_streak = 0
            else:
                osc_streak = 0
            prev_delta = delta
            ipc = new_ipc
            if converged:
                break

        assert stack is not None
        certified = converged or residual <= CONVERGENCE_RTOL
        if saturation_clamped:
            guards.warn(
                "multicore.saturation",
                f"{cfg.name}/{profile.name}: NoC demand exceeded saturation; "
                "load clamped to 98% of capacity (throughput-limited regime)",
                op=cfg.noc.operating_point,
            )
        if not certified:
            guards.warn(
                "multicore.convergence",
                f"{cfg.name}/{profile.name}: fixed point uncertified after "
                f"{iterations_used} iterations (residual {residual:.3g} > "
                f"{CONVERGENCE_RTOL:g}, damping {damping:g})",
                op=cfg.noc.operating_point,
            )
        return WorkloadResult(
            system_name=cfg.name,
            workload_name=profile.name,
            cpi_stack=stack,
            ipc=1.0 / stack.total,
            frequency_ghz=f_core,
            injection_rate_per_core=split["noc_requests_pki"] / 1000.0 * ipc,
            noc_aggregate_rate=load,
            iterations_used=iterations_used,
            convergence=ConvergenceInfo(
                converged=certified,
                residual=residual,
                damping=damping,
                saturation_clamped=saturation_clamped,
            ),
        )

    def evaluate_suite(
        self,
        profiles,
        prefetcher: Optional[StridePrefetcher] = None,
    ) -> Dict[str, WorkloadResult]:
        """Evaluate many workloads; returns results keyed by name."""
        return {
            profile.name: self.evaluate(profile, prefetcher) for profile in profiles
        }
