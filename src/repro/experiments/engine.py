"""Fault-tolerant parallel experiment execution engine with result caching.

``cryowire all`` used to recompute all 27 figures/tables serially on
every invocation. The engine keeps the experiment drivers untouched and
wraps them in four layers:

* **fan-out** — experiments are independent, so cache misses are
  dispatched to a ``ProcessPoolExecutor`` (``--jobs N``). Scheduling is
  longest-first: specs registered with ``cost="slow"`` enter the pool
  before the fast ones, which minimises the makespan tail.
* **memoization** — results are looked up in the content-addressed
  :class:`~repro.experiments.cache.ResultCache` before any work is
  submitted; misses are computed and written back. Keys include the
  experiment module's source digest, so editing a driver invalidates
  exactly its own entries.
* **fault tolerance** — every execution runs under a per-experiment
  wall-clock timeout (spec override > engine override > cost-scaled
  default). Transient failures (injected :class:`TransientFault`s and
  timeouts) retry with capped exponential backoff and seeded jitter. A
  worker crash (``BrokenProcessPool``) respawns the pool and re-runs
  the in-flight experiments *isolated* — one per single-worker pool —
  so the crasher is attributed precisely; an experiment is quarantined
  after ``crash_strikes`` attributed crashes, so one poison driver can
  never wedge the fleet. ``run(..., keep_going=True)`` salvages every
  completed result instead of raising, and the raising path attaches
  the partial :class:`RunOutcome` to :class:`ExperimentExecutionError`.
* **instrumentation** — every run produces a :class:`RunManifest`
  recording per-experiment wall time, status, attempts and worker
  attribution. The manifest is written next to the cache
  (``last_run.json``), rendered by ``cryowire stats``, and consumed by
  ``run(..., resume=True)`` to skip experiments the previous run
  already completed.

Determinism: the experiment drivers are pure functions of their kwargs
(all randomness goes through seeded ``make_rng``), so parallel execution
returns byte-identical tables to the serial path — a property the test
suite asserts over the full registry. Fault injection (see
:mod:`repro.util.faults`) is equally deterministic: the chaos suite
replays identical fault sequences from a fixed seed.
"""

from __future__ import annotations

import datetime as _datetime
import json
import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, cache_disabled_by_env
from repro.experiments.registry import ExperimentSpec, get_spec
from repro.util.faults import TransientFault, fault_point
from repro.util.guards import GuardContext, use_guards
from repro.util.rng import make_rng

_LOG = logging.getLogger(__name__)

#: Record statuses.
HIT = "hit"  # served from the cache
MISS = "miss"  # computed, then written to the cache
UNCACHED = "uncached"  # computed; caching off or kwargs not cacheable
ERROR = "error"  # the driver raised (after any retries)
TIMEOUT = "timeout"  # the driver exceeded its wall-clock budget (after retries)
QUARANTINED = "quarantined"  # crashed too many workers; benched for this run
SKIPPED = "skipped"  # completed by a previous run (``resume=True``)

#: Statuses that mean "this run produced no usable result".
FAILURE_STATUSES = (ERROR, TIMEOUT, QUARANTINED)
#: Statuses a ``--resume`` run treats as already done.
COMPLETED_STATUSES = (HIT, MISS, UNCACHED, SKIPPED)

#: Default wall-clock budget per experiment, scaled by the spec's cost
#: tag. Generous on purpose: the timeout exists to unwedge hung drivers,
#: not to police slow ones. ``ExperimentSpec.timeout_s`` or the engine's
#: ``timeout_s`` override it; ``0`` disables.
DEFAULT_TIMEOUT_S = {"fast": 600.0, "slow": 3600.0}


class ExperimentTimeout(RuntimeError):
    """A driver exceeded its wall-clock budget (retryable)."""


class LeakedThreadLimit(RuntimeError):
    """Too many abandoned timeout threads are still running.

    A timed-out driver's daemon thread keeps computing after the engine
    gives up on it (see :func:`_call_with_timeout`). In a one-shot CLI
    run that costs nothing — the process exits — but a long-running
    service accumulates them. Past ``leak_threshold`` live leaked
    threads the engine *refuses new submissions* with this error rather
    than silently degrading under the hidden CPU load.
    """


# -- leaked-thread accounting ------------------------------------------------

#: Daemon threads abandoned by the timeout path that may still be
#: running. Pruned of finished threads on every access.
_LEAKED_THREADS: List[threading.Thread] = []
_LEAK_LOCK = threading.Lock()


def _register_leaked_thread(thread: threading.Thread) -> None:
    with _LEAK_LOCK:
        _LEAKED_THREADS[:] = [t for t in _LEAKED_THREADS if t.is_alive()]
        if thread.is_alive():
            _LEAKED_THREADS.append(thread)


def leaked_thread_count() -> int:
    """Live driver threads abandoned by timeouts in *this* process."""
    with _LEAK_LOCK:
        _LEAKED_THREADS[:] = [t for t in _LEAKED_THREADS if t.is_alive()]
        return len(_LEAKED_THREADS)


def check_leak_budget(threshold: int) -> None:
    """Raise :class:`LeakedThreadLimit` once the leak budget is spent.

    ``threshold <= 0`` disables the check.
    """
    if threshold <= 0:
        return
    count = leaked_thread_count()
    if count >= threshold:
        raise LeakedThreadLimit(
            f"{count} leaked driver thread(s) still running (threshold "
            f"{threshold}); refusing new submissions until they drain"
        )


class ExperimentExecutionError(RuntimeError):
    """One or more experiments failed; the manifest was still written.

    ``outcome`` carries the partial :class:`RunOutcome` — every result
    that *did* complete plus the full manifest — so callers can salvage
    finished work instead of recomputing it.
    """

    def __init__(self, message: str, outcome: Optional["RunOutcome"] = None) -> None:
        super().__init__(message)
        self.outcome = outcome


@dataclass
class RunRecord:
    """Provenance of one experiment execution inside a run."""

    experiment_id: str
    status: str
    wall_time_s: float = 0.0
    worker_pid: int = 0
    error: str = ""
    attempts: int = 1
    #: Structured model-validity warnings the driver's guard context
    #: collected (``ModelWarning.to_dict()`` payloads).
    warnings: List[Dict] = field(default_factory=list)
    #: Live leaked timeout threads in the executing worker when this
    #: record was produced (a per-worker gauge, not a per-record delta).
    leaked_threads: int = 0

    def to_dict(self) -> Dict:
        return {
            "experiment_id": self.experiment_id,
            "status": self.status,
            "wall_time_s": self.wall_time_s,
            "worker_pid": self.worker_pid,
            "error": self.error,
            "attempts": self.attempts,
            "warnings": list(self.warnings),
            "leaked_threads": self.leaked_threads,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunRecord":
        return cls(
            experiment_id=data["experiment_id"],
            status=data["status"],
            wall_time_s=data.get("wall_time_s", 0.0),
            worker_pid=data.get("worker_pid", 0),
            error=data.get("error", ""),
            attempts=data.get("attempts", 1),
            warnings=list(data.get("warnings", [])),
            leaked_threads=data.get("leaked_threads", 0),
        )


@dataclass
class RunManifest:
    """What happened during one engine run (rendered by ``cryowire stats``)."""

    jobs: int = 1
    cache_dir: str = ""
    cache_enabled: bool = True
    created_at: str = ""
    elapsed_s: float = 0.0
    records: List[RunRecord] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for record in self.records if record.status == status)

    @property
    def n_hits(self) -> int:
        return self._count(HIT)

    @property
    def n_misses(self) -> int:
        return self._count(MISS)

    @property
    def n_uncached(self) -> int:
        return self._count(UNCACHED)

    @property
    def n_errors(self) -> int:
        return self._count(ERROR)

    @property
    def n_timeouts(self) -> int:
        return self._count(TIMEOUT)

    @property
    def n_quarantined(self) -> int:
        return self._count(QUARANTINED)

    @property
    def n_skipped(self) -> int:
        return self._count(SKIPPED)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if r.status in FAILURE_STATUSES)

    @property
    def n_retries(self) -> int:
        """Executions beyond each experiment's first attempt."""
        return sum(max(0, record.attempts - 1) for record in self.records)

    @property
    def n_model_warnings(self) -> int:
        """Model-validity warnings collected across all records."""
        return sum(len(record.warnings) for record in self.records)

    @property
    def n_leaked_threads(self) -> int:
        """Leaked timeout threads still live across the worker fleet.

        Each record carries its worker's gauge at completion time, so
        the fleet total is the max per worker pid summed over pids —
        summing records would count the same leak once per experiment.
        """
        per_worker: Dict[int, int] = {}
        for record in self.records:
            pid = record.worker_pid
            per_worker[pid] = max(per_worker.get(pid, 0), record.leaked_threads)
        return sum(per_worker.values())

    @property
    def hit_rate(self) -> float:
        return self.n_hits / len(self.records) if self.records else 0.0

    @property
    def compute_s(self) -> float:
        return sum(record.wall_time_s for record in self.records)

    def to_dict(self) -> Dict:
        return {
            "schema": 5,
            "created_at": self.created_at,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "cache_enabled": self.cache_enabled,
            "elapsed_s": self.elapsed_s,
            "totals": {
                "experiments": len(self.records),
                "hits": self.n_hits,
                "misses": self.n_misses,
                "uncached": self.n_uncached,
                "errors": self.n_errors,
                "timeouts": self.n_timeouts,
                "quarantined": self.n_quarantined,
                "skipped": self.n_skipped,
                "retries": self.n_retries,
                "model_warnings": self.n_model_warnings,
                "leaked_threads": self.n_leaked_threads,
                "hit_rate": self.hit_rate,
                "compute_s": self.compute_s,
            },
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        return cls(
            jobs=data.get("jobs", 1),
            cache_dir=data.get("cache_dir", ""),
            cache_enabled=data.get("cache_enabled", True),
            created_at=data.get("created_at", ""),
            elapsed_s=data.get("elapsed_s", 0.0),
            records=[RunRecord.from_dict(r) for r in data.get("records", [])],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def summary(self) -> str:
        """Human-readable rendering (the body of ``cryowire stats``)."""
        lines = [
            f"# cryowire run manifest ({self.created_at or 'unknown time'})",
            f"jobs={self.jobs}  cache={'on' if self.cache_enabled else 'off'}"
            f"  dir={self.cache_dir}",
            "",
            f"{'experiment':26s} {'status':12s} {'wall_s':>8s} {'worker':>8s}"
            f" {'tries':>5s}",
            "-" * 64,
        ]
        for record in self.records:
            line = (
                f"{record.experiment_id:26s} {record.status:12s} "
                f"{record.wall_time_s:8.3f} {record.worker_pid:8d} "
                f"{record.attempts:5d}"
            )
            if record.error:
                line += f"  {record.error}"
            lines.append(line)
        lines.append("-" * 64)
        lines.append(
            f"{len(self.records)} experiments: {self.n_hits} hits, "
            f"{self.n_misses} misses, {self.n_uncached} uncached, "
            f"{self.n_errors} errors; hit rate {self.hit_rate:.1%}"
        )
        lines.append(
            f"retries {self.n_retries}, timeouts {self.n_timeouts}, "
            f"quarantined {self.n_quarantined}, skipped {self.n_skipped}"
        )
        if self.n_model_warnings:
            lines.append(f"model warnings {self.n_model_warnings}")
        if self.n_leaked_threads:
            lines.append(f"leaked timeout threads {self.n_leaked_threads}")
        lines.append(
            f"total compute {self.compute_s:.2f}s, elapsed {self.elapsed_s:.2f}s"
        )
        return "\n".join(lines)


@dataclass
class RunOutcome:
    """Engine output: results keyed by experiment id, plus provenance."""

    results: Dict[str, ExperimentResult]
    manifest: RunManifest

    @property
    def failures(self) -> List[RunRecord]:
        return [r for r in self.manifest.records if r.status in FAILURE_STATUSES]

    @property
    def leaked_threads(self) -> int:
        """Leaked timeout threads live across workers (see the manifest)."""
        return self.manifest.n_leaked_threads


# -- worker-side execution ---------------------------------------------------


def _invoke(
    experiment_id: str,
    kwargs: Dict,
    strict: bool = False,
    warning_sink: Optional[List[Dict]] = None,
) -> ExperimentResult:
    """Run one driver inside a fresh guard context.

    Model-validity warnings the driver trips are collected into
    ``warning_sink`` (even when the driver raises — including a
    :class:`~repro.util.guards.ModelValidityError` under ``strict``) and
    attached to the returned result's ``warnings`` field. The context is
    installed here, not in the caller, because the timeout path runs
    this function on a separate thread and guard contexts are
    thread-local.
    """
    fault_point("engine.worker")
    fault_point(f"driver.{experiment_id}")
    with use_guards(GuardContext(strict=strict)) as guards:
        try:
            result = get_spec(experiment_id).runner(**kwargs)
        finally:
            if warning_sink is not None:
                warning_sink.extend(guards.to_dicts())
    result.warnings = guards.to_dicts()
    return result


def _call_with_timeout(
    experiment_id: str,
    kwargs: Dict,
    timeout_s: Optional[float],
    strict: bool = False,
    warning_sink: Optional[List[Dict]] = None,
) -> ExperimentResult:
    """Invoke the driver, bounding its wall clock when a budget is set.

    The driver runs on a daemon thread; if it outlives the budget the
    main (worker) thread raises :class:`ExperimentTimeout` and abandons
    it. A sleeping hang costs nothing further; a spinning hang leaks one
    CPU until the worker process is recycled — which the engine's crash
    handling tolerates by design.
    """
    if timeout_s is None:
        return _invoke(experiment_id, kwargs, strict, warning_sink)
    box: Dict[str, object] = {}

    def _target() -> None:
        try:
            box["result"] = _invoke(experiment_id, kwargs, strict, warning_sink)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller
            box["error"] = exc

    thread = threading.Thread(
        target=_target, daemon=True, name=f"cryowire-{experiment_id}"
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        # The daemon thread is abandoned but keeps computing; track it
        # so long-running owners can see (and bound) the accumulation.
        _register_leaked_thread(thread)
        raise ExperimentTimeout(
            f"{experiment_id} exceeded its {timeout_s:g}s wall-clock budget"
        )
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]


def _error_payload(
    experiment_id: str,
    exc: BaseException,
    wall: float,
    pid: int,
    warnings: Optional[List[Dict]] = None,
) -> Dict:
    return {
        "id": experiment_id,
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "kind": "timeout" if isinstance(exc, ExperimentTimeout) else "error",
        "transient": isinstance(exc, (TransientFault, ExperimentTimeout)),
        "wall": wall,
        "pid": pid,
        "warnings": list(warnings or []),
        "leaked": leaked_thread_count(),
    }


def _execute(
    experiment_id: str,
    kwargs: Dict,
    timeout_s: Optional[float] = None,
    strict: bool = False,
    leak_threshold: int = 0,
) -> Dict:
    """Worker-side execution: always returns a picklable payload.

    Driver exceptions are captured here — *inside* the worker — so the
    payload carries the real elapsed time and worker pid even for
    failures (a crash is the only outcome that loses attribution).
    Guard warnings the driver collected travel in the payload either
    way: under ``strict`` a tripped guard is the error *and* its
    structured record is still delivered. ``leaked`` reports the live
    leaked-thread count of this worker process; a positive
    ``leak_threshold`` refuses execution outright once that budget is
    spent (a non-transient failure — retrying cannot help).
    """
    start = time.perf_counter()
    pid = os.getpid()
    sink: List[Dict] = []
    try:
        check_leak_budget(leak_threshold)
        result = _call_with_timeout(experiment_id, kwargs, timeout_s, strict, sink)
    except Exception as exc:  # noqa: BLE001 - serialized back to the parent
        return _error_payload(
            experiment_id, exc, time.perf_counter() - start, pid, sink
        )
    return {
        "id": experiment_id,
        "ok": True,
        "result": result.to_dict(),
        "wall": time.perf_counter() - start,
        "pid": pid,
        "warnings": sink,
        "leaked": leaked_thread_count(),
    }


@dataclass
class _Task:
    """Parent-side bookkeeping for one experiment in flight."""

    experiment_id: str
    kwargs: Dict
    key: Optional[str]
    timeout_s: Optional[float]
    attempts: int = 0  # executions submitted so far
    transient_failures: int = 0  # retryable failures consumed so far
    strikes: int = 0  # attributed worker crashes
    submitted_at: float = 0.0


class ExecutionEngine:
    """Runs experiments through the cache and (optionally) a process pool.

    ``jobs`` caps the worker processes; ``jobs=0`` means one per CPU.
    ``use_cache=False`` (or the ``CRYOWIRE_NO_CACHE`` env var) disables
    memoization but keeps the manifest instrumentation.

    Fault-tolerance knobs:

    ``retries``
        How many times a *transient* failure (timeout or
        :class:`~repro.util.faults.TransientFault`) is re-executed,
        with capped exponential backoff and seeded jitter between
        attempts. Deterministic driver exceptions are never retried.
    ``timeout_s``
        Engine-wide wall-clock budget per experiment. ``None`` defers
        to the spec's ``timeout_s`` and then to the cost-scaled
        :data:`DEFAULT_TIMEOUT_S`; ``0`` disables timeouts.
    ``crash_strikes``
        A worker crash respawns the pool and re-runs the in-flight
        experiments isolated (one single-worker pool each) to attribute
        the crash; an experiment is quarantined once it has crashed
        ``crash_strikes`` isolated workers.
    ``leak_threshold``
        Timed-out drivers leave their daemon thread computing (see
        :func:`leaked_thread_count`). Once a worker process holds this
        many *live* leaked threads, it refuses new submissions
        (non-transient :class:`LeakedThreadLimit` failures) instead of
        silently degrading. ``0`` disables the check; the default keeps
        a long-running service honest while never triggering in a
        healthy batch run.
    ``strict``
        Drivers run under a strict guard context: the first
        model-validity warning raises
        :class:`~repro.util.guards.ModelValidityError` inside the worker
        and the experiment fails (non-transient) instead of producing a
        result with caveats.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir: Optional[Union[str, Path]] = None,
        retries: int = 0,
        timeout_s: Optional[float] = None,
        crash_strikes: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        strict: bool = False,
        leak_threshold: int = 32,
    ) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if crash_strikes < 1:
            raise ValueError(f"crash_strikes must be >= 1, got {crash_strikes}")
        if leak_threshold < 0:
            raise ValueError(f"leak_threshold must be >= 0, got {leak_threshold}")
        self.jobs = jobs or os.cpu_count() or 1
        self.cache = ResultCache(cache_dir)
        self.use_cache = use_cache and not cache_disabled_by_env()
        self.retries = retries
        self.timeout_s = timeout_s
        self.crash_strikes = crash_strikes
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.strict = strict
        self.leak_threshold = leak_threshold
        self._backoff_rng = make_rng(None, stream="engine.backoff")

    # -- scheduling ---------------------------------------------------------

    @staticmethod
    def schedule(experiment_ids: Sequence[str]) -> List[str]:
        """Slow experiments first (longest-processing-time-first), then id."""
        return sorted(
            experiment_ids,
            key=lambda eid: (get_spec(eid).cost != "slow", eid),
        )

    def _timeout_for(self, spec: ExperimentSpec) -> Optional[float]:
        """Effective budget: engine override > spec override > cost default."""
        if self.timeout_s is not None:
            return self.timeout_s if self.timeout_s > 0 else None
        if spec.timeout_s is not None:
            return spec.timeout_s if spec.timeout_s > 0 else None
        return DEFAULT_TIMEOUT_S[spec.cost]

    def _backoff_s(self, failure_index: int) -> float:
        """Capped exponential backoff with seeded jitter (failure_index >= 1)."""
        delay = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (failure_index - 1))
        )
        return delay * (0.5 + 0.5 * float(self._backoff_rng.random()))

    # -- execution ----------------------------------------------------------

    def run_one(self, experiment_id: str, **kwargs) -> ExperimentResult:
        """Cached serial execution of a single experiment (with retries)."""
        spec = get_spec(experiment_id)
        cacheable = self.use_cache and self.cache.is_cacheable(kwargs)
        key = self.cache.key_for(spec, kwargs) if cacheable else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        task = _Task(experiment_id, kwargs, key, self._timeout_for(spec))
        while True:
            task.attempts += 1
            payload = _execute(
                experiment_id,
                kwargs,
                task.timeout_s,
                self.strict,
                self.leak_threshold,
            )
            if self._wants_retry(task, payload):
                time.sleep(self._backoff_s(task.transient_failures))
                continue
            if payload["ok"]:
                result = ExperimentResult.from_dict(payload["result"])
                if key is not None:
                    self.cache.put(key, result)
                return result
            raise ExperimentExecutionError(
                f"{experiment_id} failed after {task.attempts} attempt(s): "
                f"{payload['error']}"
            )

    def run(
        self,
        experiment_ids: Sequence[str],
        kwargs_by_id: Optional[Dict[str, Dict]] = None,
        keep_going: bool = False,
        resume: bool = False,
    ) -> RunOutcome:
        """Run ``experiment_ids`` (cache-first, misses fanned out).

        Returns every result plus the run manifest. If any experiment
        fails after retries, ``keep_going=True`` returns the partial
        :class:`RunOutcome` anyway; otherwise the fleet still drains
        and an :class:`ExperimentExecutionError` carrying that partial
        outcome (``exc.outcome``) is raised. ``resume=True`` skips
        experiments the previous manifest already marks completed.
        """
        kwargs_by_id = kwargs_by_id or {}
        started = time.perf_counter()
        manifest = RunManifest(
            jobs=self.jobs,
            cache_dir=str(self.cache.cache_dir),
            cache_enabled=self.use_cache,
            created_at=_datetime.datetime.now(_datetime.timezone.utc).isoformat(),
        )
        results: Dict[str, ExperimentResult] = {}
        pending: List[_Task] = []
        done_before = self._previously_completed() if resume else frozenset()

        for experiment_id in self.schedule(experiment_ids):
            kwargs = kwargs_by_id.get(experiment_id, {})
            spec = get_spec(experiment_id)  # fail fast on unknown ids
            cacheable = self.use_cache and self.cache.is_cacheable(kwargs)
            key = self.cache.key_for(spec, kwargs) if cacheable else None
            if experiment_id in done_before:
                start = time.perf_counter()
                cached = self.cache.get(key) if key is not None else None
                if cached is not None:
                    results[experiment_id] = cached
                manifest.records.append(
                    RunRecord(
                        experiment_id,
                        SKIPPED,
                        time.perf_counter() - start,
                        os.getpid(),
                        attempts=0,
                    )
                )
                continue
            cached = self.cache.get(key) if key is not None else None
            if cached is not None:
                results[experiment_id] = cached
                manifest.records.append(
                    RunRecord(experiment_id, HIT, 0.0, os.getpid())
                )
            else:
                pending.append(
                    _Task(experiment_id, kwargs, key, self._timeout_for(spec))
                )

        if self.jobs > 1 and len(pending) > 1:
            self._run_pool(pending, results, manifest)
        else:
            self._run_inline(pending, results, manifest)

        manifest.elapsed_s = time.perf_counter() - started
        manifest.save(self.cache.manifest_path)
        outcome = RunOutcome(results=results, manifest=manifest)
        failures = outcome.failures
        if failures and not keep_going:
            detail = "; ".join(
                f"{r.experiment_id} [{r.status}]: {r.error}" for r in failures
            )
            raise ExperimentExecutionError(
                f"{len(failures)} experiment(s) failed: {detail}", outcome=outcome
            )
        return outcome

    def _previously_completed(self) -> frozenset:
        """Experiment ids the last manifest marks done (for ``resume``)."""
        last = load_last_manifest(self.cache.cache_dir)
        if last is None:
            _LOG.warning(
                "resume requested but no previous manifest is readable; "
                "running everything"
            )
            return frozenset()
        return frozenset(
            r.experiment_id for r in last.records if r.status in COMPLETED_STATUSES
        )

    # -- outcome bookkeeping ------------------------------------------------

    def _wants_retry(self, task: _Task, payload: Dict) -> bool:
        """Consume one retry budget slot for a transient failure."""
        if payload["ok"] or not payload.get("transient"):
            return False
        if task.transient_failures >= self.retries:
            return False
        task.transient_failures += 1
        _LOG.info(
            "%s: transient failure (%s), retry %d/%d",
            task.experiment_id,
            payload["error"],
            task.transient_failures,
            self.retries,
        )
        return True

    def _finish(
        self,
        task: _Task,
        payload: Dict,
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        """Record the final outcome of ``task`` (success or failure)."""
        warnings = list(payload.get("warnings", []))
        leaked = payload.get("leaked", 0)
        if payload["ok"]:
            result = ExperimentResult.from_dict(payload["result"])
            results[task.experiment_id] = result
            if task.key is not None:
                self.cache.put(task.key, result)
            status = MISS if task.key is not None else UNCACHED
            manifest.records.append(
                RunRecord(
                    task.experiment_id,
                    status,
                    payload["wall"],
                    payload["pid"],
                    attempts=max(1, task.attempts),
                    warnings=warnings,
                    leaked_threads=leaked,
                )
            )
            return
        status = TIMEOUT if payload.get("kind") == "timeout" else ERROR
        manifest.records.append(
            RunRecord(
                task.experiment_id,
                status,
                payload["wall"],
                payload["pid"],
                error=payload["error"],
                attempts=max(1, task.attempts),
                warnings=warnings,
                leaked_threads=leaked,
            )
        )

    # -- serial path --------------------------------------------------------

    def _run_inline(
        self,
        pending: List[_Task],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        for task in pending:
            while True:
                task.attempts += 1
                payload = _execute(
                    task.experiment_id,
                    task.kwargs,
                    task.timeout_s,
                    self.strict,
                    self.leak_threshold,
                )
                if self._wants_retry(task, payload):
                    time.sleep(self._backoff_s(task.transient_failures))
                    continue
                self._finish(task, payload, results, manifest)
                break

    # -- pool path ----------------------------------------------------------

    def _new_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=max(1, min(self.jobs, n_tasks)))

    def _run_pool(
        self,
        pending: List[_Task],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        tasks = {task.experiment_id: task for task in pending}
        order = {task.experiment_id: i for i, task in enumerate(pending)}
        ready = deque(task.experiment_id for task in pending)
        deferred: List[Tuple[float, str]] = []  # (monotonic due time, id)
        pool = self._new_pool(len(pending))
        futures: Dict = {}
        try:
            while ready or deferred or futures:
                now = time.monotonic()
                if deferred:
                    due = [eid for t, eid in deferred if t <= now]
                    if due:
                        deferred = [(t, eid) for t, eid in deferred if t > now]
                        ready.extend(due)
                while ready and len(futures) < self.jobs:
                    task = tasks[ready.popleft()]
                    task.attempts += 1
                    task.submitted_at = time.perf_counter()
                    try:
                        future = pool.submit(
                            _execute,
                            task.experiment_id,
                            task.kwargs,
                            task.timeout_s,
                            self.strict,
                            self.leak_threshold,
                        )
                    except BrokenProcessPool:
                        # A crash landed between the last harvest and
                        # this submit, so the break surfaces here rather
                        # than at future.result(). This task never ran —
                        # put it back — and recover the in-flight set
                        # exactly as the harvest path would.
                        task.attempts -= 1
                        ready.appendleft(task.experiment_id)
                        pool = self._recover_broken_pool(
                            pool, futures, tasks, order, ready, deferred,
                            results, manifest,
                        )
                        continue
                    futures[future] = task.experiment_id
                if not futures:
                    # Everything is waiting out a backoff window.
                    next_due = min(t for t, _ in deferred)
                    time.sleep(max(0.0, next_due - time.monotonic()))
                    continue
                wait_timeout = None
                if deferred:
                    wait_timeout = max(
                        0.0, min(t for t, _ in deferred) - time.monotonic()
                    )
                done, _ = wait(
                    set(futures), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                broken: List[str] = []
                for future in done:
                    experiment_id = futures.pop(future)
                    task = tasks[experiment_id]
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken.append(experiment_id)
                        continue
                    except Exception as exc:  # noqa: BLE001 - submission failure
                        payload = _error_payload(
                            experiment_id,
                            exc,
                            time.perf_counter() - task.submitted_at,
                            0,
                        )
                    if self._wants_retry(task, payload):
                        deferred.append(
                            (
                                time.monotonic()
                                + self._backoff_s(task.transient_failures),
                                experiment_id,
                            )
                        )
                    else:
                        self._finish(task, payload, results, manifest)
                if broken:
                    pool = self._recover_broken_pool(
                        pool, futures, tasks, order, ready, deferred,
                        results, manifest, crashed=broken,
                    )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _recover_broken_pool(
        self,
        pool,
        futures: Dict,
        tasks: Dict[str, "_Task"],
        order: Dict[str, int],
        ready: Deque[str],
        deferred: List[Tuple[float, str]],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
        crashed: Sequence[str] = (),
    ):
        """Shut a broken pool down, re-run the in-flight set isolated,
        and hand back a fresh pool sized for the remaining work.

        Every submitted-but-unharvested experiment is a crash candidate
        (``crashed`` seeds the list with the ones whose futures already
        reported the break).
        """
        candidates = list(crashed)
        candidates.extend(futures.values())
        futures.clear()
        pool.shutdown(wait=True, cancel_futures=True)
        if candidates:
            candidates.sort(key=lambda eid: order[eid])
            _LOG.warning(
                "worker crash broke the pool; re-running %d in-flight "
                "experiment(s) isolated: %s",
                len(candidates),
                ", ".join(candidates),
            )
            self._recover_crashed(candidates, tasks, results, manifest)
        return self._new_pool(max(1, len(ready) + len(deferred)))

    def _run_isolated(self, task: _Task) -> Tuple[Optional[Dict], bool]:
        """One execution in a fresh single-worker pool.

        Returns ``(payload, crashed)``: a crash here is unambiguously
        attributable to ``task``.
        """
        with ProcessPoolExecutor(max_workers=1) as solo:
            future = solo.submit(
                _execute,
                task.experiment_id,
                task.kwargs,
                task.timeout_s,
                self.strict,
                self.leak_threshold,
            )
            try:
                return future.result(), False
            except BrokenProcessPool:
                return None, True
            except Exception as exc:  # noqa: BLE001 - submission failure
                return _error_payload(task.experiment_id, exc, 0.0, 0), False

    def _recover_crashed(
        self,
        candidate_ids: Sequence[str],
        tasks: Dict[str, _Task],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        """Re-run crash candidates isolated, striking the real crasher.

        Experiments that merely shared the pool with the crasher
        complete here; the one that keeps killing its own worker
        accumulates strikes and is quarantined at ``crash_strikes``.
        """
        for experiment_id in candidate_ids:
            task = tasks[experiment_id]
            while True:
                task.attempts += 1
                payload, crashed = self._run_isolated(task)
                if crashed:
                    task.strikes += 1
                    _LOG.warning(
                        "%s crashed its isolated worker (strike %d/%d)",
                        experiment_id,
                        task.strikes,
                        self.crash_strikes,
                    )
                    if task.strikes >= self.crash_strikes:
                        manifest.records.append(
                            RunRecord(
                                experiment_id,
                                QUARANTINED,
                                0.0,
                                0,
                                error=(
                                    f"quarantined after {task.strikes} "
                                    f"worker crash(es)"
                                ),
                                attempts=task.attempts,
                            )
                        )
                        break
                    time.sleep(self._backoff_s(task.strikes))
                    continue
                if self._wants_retry(task, payload):
                    time.sleep(self._backoff_s(task.transient_failures))
                    continue
                self._finish(task, payload, results, manifest)
                break


def run_experiments(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    strict: bool = False,
    **run_kwargs,
) -> RunOutcome:
    """One-shot convenience wrapper around :class:`ExecutionEngine`."""
    engine = ExecutionEngine(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        retries=retries,
        timeout_s=timeout_s,
        strict=strict,
    )
    return engine.run(experiment_ids, **run_kwargs)


def load_last_manifest(
    cache_dir: Optional[Union[str, Path]] = None,
) -> Optional[RunManifest]:
    """The manifest of the most recent engine run, if any.

    Distinguishes the two failure modes so resume problems are
    diagnosable: a missing manifest is normal (first run) and logged at
    debug level; an unreadable one — not JSON, or JSON of the wrong
    shape — is logged as a warning.
    """
    path = ResultCache(cache_dir).manifest_path
    try:
        return RunManifest.load(path)
    except FileNotFoundError:
        _LOG.debug("no run manifest at %s", path)
        return None
    except (OSError, ValueError, KeyError, AttributeError, TypeError) as exc:
        _LOG.warning("unreadable run manifest at %s: %s", path, exc)
        return None
