"""Analytic multicore system simulator (the gem5-substitute).

For one (system, workload) pair the simulator solves a closed loop:

    IPC -> NoC injection rate -> contended latencies -> CPI -> IPC

as one bracketed root in NoC load: the load at which the traffic the
cores inject at that load's latencies equals the load itself, exactly
the equilibrium a full-system simulation settles into (slow fabrics
throttle their own traffic). The result is a CPI stack (Fig. 3's
buckets: core, branch, private cache, NoC, shared cache, DRAM,
synchronisation) and the execution-time-based performance used in
Figs. 17/23/24.
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

#: A final relative excess ``|demand(L) - L| / L`` at or below this
#: certifies the equilibrium.
CONVERGENCE_RTOL = 1e-6


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
    """Certificate for one equilibrium solve of :meth:`MulticoreSystem.evaluate`.

    ``residual`` is the final relative excess ``|demand(L) - L| / L`` at
    the returned NoC load ``L``, 0 on the clamp; ``converged`` is True
    when it is at or below :data:`CONVERGENCE_RTOL` (a NaN residual is
    not). ``saturation_clamped`` records whether the answer sits on the
    98 % clamp, which it does exactly when the demand at the clamp still
    reaches the clamp. A contention-free demand above capacity on a
    solve that settles below the clamp does not count.
    """

    converged: bool
    residual: float
    saturation_clamped: bool


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
    #: Loads at which the equilibrium solve priced the CPI stack.
    iterations_used: int
    #: Equilibrium certificate of the solve.
    convergence: ConvergenceInfo

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
    def _stack_at(
        self,
        load: float,
        profile: WorkloadProfile,
        split: Dict[str, float],
        core_cpi: float,
        branch_cpi: float,
    ) -> CpiStack:
        """The CPI stack when the NoC carries ``load`` packets/NoC-cycle."""
        cfg = self.config
        f_core = cfg.core.frequency_ghz
        latencies = self.hierarchy.at_load(load, cfg.n_cores)
        hit = latencies.l3_hit
        miss = latencies.l3_miss
        c2c = latencies.cache_to_cache

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
            profile.barrier_pki / 1000.0 * latencies.barrier_ns
            + profile.lock_pki / 1000.0 * latencies.lock_ns
        ) * f_core

        return CpiStack(
            core=core_cpi,
            branch=branch_cpi,
            private_cache=private_cpi,
            noc=noc_cpi,
            shared_cache=shared_cpi,
            dram=dram_cpi,
            sync=sync_cpi,
        )

    def evaluate(
        self,
        profile: WorkloadProfile,
        prefetcher: Optional[StridePrefetcher] = None,
    ) -> WorkloadResult:
        """Closed-loop evaluation of one workload.

        ``demand(L)`` is the NoC load the cores inject when every access
        is priced at load ``L``'s contended latencies; it never rises
        with ``L``. The equilibrium is the root of ``demand(L) - L``. An
        Illinois regula falsi finds it on ``[0, min(0.98 * capacity,
        demand(0))]``, one CPI-stack evaluation per step, and stops on
        an exact root or when the next secant point does not fall
        strictly inside the bracket; the bracket end with the smaller
        excess is the answer. When the demand at the 98 % clamp still
        reaches the clamp, the answer sits on the clamp: the equilibrium
        latency at 98 % utilisation matches the throughput-limited
        operating point.

        ``iterations_used`` on the result counts the CPI-stack
        evaluations, and ``convergence`` carries the certificate: the
        final relative excess and whether the answer sits on the clamp.
        A solve that ends uncertified (excess above
        :data:`CONVERGENCE_RTOL`, or NaN) or clamped records a guard
        warning (an error under a strict :class:`GuardContext`).
        """
        cfg = self.config
        guards = get_guards()
        validate_workload_profile(profile, site="multicore.workload", guards=guards)
        validate_operating_point(
            cfg.noc.operating_point, site="multicore.operating_point", guards=guards
        )
        core_cpi = self.ipc_model.issue_cpi(cfg.core.config, profile)
        branch_cpi = self.ipc_model.restart_cpi(cfg.core.config, profile)
        split = self._miss_split(profile, prefetcher)
        # Contention is driven by request packets: snooping buses carry
        # data on a separate wide data path (only the address bus
        # arbitrates), and mesh data responses ride links with ample
        # headroom at these rates.
        requests = split["noc_requests_pki"] / 1000.0
        clamp = 0.98 * self.noc.saturation_rate()
        stacks: Dict[float, CpiStack] = {}

        def excess(load: float) -> float:
            """``demand(load) - load``; keeps the stack priced at ``load``."""
            stacks[load] = stack = self._stack_at(
                load, profile, split, core_cpi, branch_cpi
            )
            return self._aggregate_rate(requests * (1.0 / stack.total)) - load

        lo, f_lo = 0.0, excess(0.0)
        hi = min(clamp, f_lo)
        f_hi = excess(hi)
        saturation_clamped = hi == clamp and f_hi >= 0.0
        # Illinois: when the same end moves twice running, halve the
        # excess the secant uses for the other end, so the next point
        # lands nearer to it.
        g_lo, g_hi, side = f_lo, f_hi, 0
        while g_lo > 0.0 > g_hi:
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if not lo < x < hi:
                break
            f_x = excess(x)
            if f_x > 0.0:
                lo, f_lo, g_lo = x, f_x, f_x
                if side > 0:
                    g_hi /= 2.0
                side = 1
            else:
                hi, f_hi, g_hi = x, f_x, f_x
                if side < 0:
                    g_lo /= 2.0
                side = -1
        if saturation_clamped:
            load, residual = hi, 0.0
            guards.warn(
                "multicore.saturation",
                f"{cfg.name}/{profile.name}: NoC demand exceeded saturation; "
                "load clamped to 98% of capacity (throughput-limited regime)",
                op=cfg.noc.operating_point,
            )
        else:
            load, f = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
            residual = abs(f) / load if f else 0.0
        certified = residual <= CONVERGENCE_RTOL
        if not certified:
            guards.warn(
                "multicore.convergence",
                f"{cfg.name}/{profile.name}: fixed point uncertified after "
                f"{len(stacks)} stack evaluations (residual {residual:.3g} > "
                f"{CONVERGENCE_RTOL:g})",
                op=cfg.noc.operating_point,
            )
        stack = stacks[load]
        ipc = 1.0 / stack.total
        return WorkloadResult(
            system_name=cfg.name,
            workload_name=profile.name,
            cpi_stack=stack,
            ipc=ipc,
            frequency_ghz=cfg.core.frequency_ghz,
            injection_rate_per_core=requests * ipc,
            noc_aggregate_rate=load,
            iterations_used=len(stacks),
            convergence=ConvergenceInfo(
                converged=certified,
                residual=residual,
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
