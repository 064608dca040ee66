"""Parallel experiment execution engine with result caching.

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
  exactly its own entries. A corrupt entry is quarantined and
  recomputed like any other miss.
* **one failure path** — every execution runs under a per-experiment
  wall-clock timeout (the engine's ``timeout_s``, else a cost-scaled
  default). A driver exception, a timeout and a dead worker
  (``BrokenProcessPool`` fails every unfinished experiment) each become
  one ``error`` or ``timeout`` record; nothing is retried, because the
  drivers are pure and seeded. ``run(..., keep_going=True)`` returns
  every completed result instead of raising, and the raising path
  attaches the partial :class:`RunOutcome` to
  :class:`ExperimentExecutionError`. ``run(..., resume=True)`` then
  re-runs exactly what the cache cannot serve.
* **instrumentation** — every run produces a :class:`RunManifest`
  recording per-experiment wall time, status and worker attribution.
  The manifest is written next to the cache (``last_run.json``),
  rendered by ``cryowire stats``, and consumed by ``run(...,
  resume=True)`` to mark the experiments the previous run already
  completed.

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
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, cache_disabled_by_env
from repro.experiments.registry import ExperimentSpec, get_spec
from repro.util.faults import fault_point
from repro.util.guards import GuardContext, use_guards

_LOG = logging.getLogger(__name__)

#: Record statuses.
HIT = "hit"  # served from the cache
MISS = "miss"  # computed, then written to the cache
UNCACHED = "uncached"  # computed; caching off or kwargs not cacheable
ERROR = "error"  # the driver raised, or its worker died
TIMEOUT = "timeout"  # the driver exceeded its wall-clock budget
SKIPPED = "skipped"  # completed by a previous run and served from the cache

#: Statuses that mean "this run produced no usable result".
FAILURE_STATUSES = (ERROR, TIMEOUT)
#: Statuses a ``--resume`` run treats as already done.
COMPLETED_STATUSES = (HIT, MISS, UNCACHED, SKIPPED)

#: Default wall-clock budget per experiment, scaled by the spec's cost
#: tag. Generous on purpose: the timeout exists to unwedge hung drivers,
#: not to police slow ones. The engine's ``timeout_s`` overrides it;
#: ``0`` disables.
DEFAULT_TIMEOUT_S = {"fast": 600.0, "slow": 3600.0}


class ExperimentTimeout(RuntimeError):
    """A driver exceeded its wall-clock budget."""


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
    #: Structured model-validity warnings the driver's guard context
    #: collected (``ModelWarning.to_dict()`` payloads).
    warnings: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "experiment_id": self.experiment_id,
            "status": self.status,
            "wall_time_s": self.wall_time_s,
            "worker_pid": self.worker_pid,
            "error": self.error,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunRecord":
        return cls(
            experiment_id=data["experiment_id"],
            status=data["status"],
            wall_time_s=data.get("wall_time_s", 0.0),
            worker_pid=data.get("worker_pid", 0),
            error=data.get("error", ""),
            warnings=list(data.get("warnings", [])),
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
    def n_skipped(self) -> int:
        return self._count(SKIPPED)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if r.status in FAILURE_STATUSES)

    @property
    def n_model_warnings(self) -> int:
        """Model-validity warnings collected across all records."""
        return sum(len(record.warnings) for record in self.records)

    @property
    def hit_rate(self) -> float:
        return self.n_hits / len(self.records) if self.records else 0.0

    @property
    def compute_s(self) -> float:
        return sum(record.wall_time_s for record in self.records)

    def to_dict(self) -> Dict:
        return {
            "schema": 6,
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
                "skipped": self.n_skipped,
                "model_warnings": self.n_model_warnings,
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
            f"{'experiment':26s} {'status':12s} {'wall_s':>8s} {'worker':>8s}",
            "-" * 57,
        ]
        for record in self.records:
            line = (
                f"{record.experiment_id:26s} {record.status:12s} "
                f"{record.wall_time_s:8.3f} {record.worker_pid:8d}"
            )
            if record.error:
                line += f"  {record.error}"
            lines.append(line)
        lines.append("-" * 57)
        lines.append(
            f"{len(self.records)} experiments: {self.n_hits} hits, "
            f"{self.n_misses} misses, {self.n_uncached} uncached, "
            f"{self.n_errors} errors; hit rate {self.hit_rate:.1%}"
        )
        lines.append(f"timeouts {self.n_timeouts}, skipped {self.n_skipped}")
        if self.n_model_warnings:
            lines.append(f"model warnings {self.n_model_warnings}")
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
    it. The abandoned thread ends with its process: a ``cryowire`` run
    is a short-lived one.
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
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "kind": "timeout" if isinstance(exc, ExperimentTimeout) else "error",
        "wall": wall,
        "pid": pid,
        "warnings": list(warnings or []),
    }


def _execute(
    experiment_id: str,
    kwargs: Dict,
    timeout_s: Optional[float] = None,
    strict: bool = False,
) -> Dict:
    """Worker-side execution: always returns a picklable payload.

    Driver exceptions are captured here — *inside* the worker — so the
    payload carries the real elapsed time and worker pid even for
    failures (a dead worker is the only outcome that loses attribution).
    Guard warnings the driver collected travel in the payload either
    way: under ``strict`` a tripped guard is the error *and* its
    structured record is still delivered.
    """
    start = time.perf_counter()
    pid = os.getpid()
    sink: List[Dict] = []
    try:
        result = _call_with_timeout(experiment_id, kwargs, timeout_s, strict, sink)
    except Exception as exc:  # noqa: BLE001 - serialized back to the parent
        return _error_payload(
            experiment_id, exc, time.perf_counter() - start, pid, sink
        )
    return {
        "ok": True,
        "result": result.to_dict(),
        "wall": time.perf_counter() - start,
        "pid": pid,
        "warnings": sink,
    }


@dataclass
class _Task:
    """Parent-side bookkeeping for one experiment to execute."""

    experiment_id: str
    kwargs: Dict
    key: Optional[str]
    timeout_s: Optional[float]


class ExecutionEngine:
    """Runs experiments through the cache and (optionally) a process pool.

    ``jobs`` caps the worker processes; ``jobs=0`` means one per CPU.
    ``use_cache=False`` (or the ``CRYOWIRE_NO_CACHE`` env var) disables
    memoization but keeps the manifest instrumentation. ``timeout_s`` is
    the wall-clock budget per experiment: ``None`` defers to the
    cost-scaled :data:`DEFAULT_TIMEOUT_S`, and ``0`` disables timeouts
    (the driver then runs on the calling thread). Under ``strict`` the
    drivers run in a strict guard context: the first model-validity
    warning raises :class:`~repro.util.guards.ModelValidityError` inside
    the worker and the experiment fails instead of producing a result
    with caveats.
    """

    def __init__(
        self,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir: Optional[Union[str, Path]] = None,
        timeout_s: Optional[float] = None,
        strict: bool = False,
    ) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        self.cache = ResultCache(cache_dir)
        self.use_cache = use_cache and not cache_disabled_by_env()
        self.timeout_s = timeout_s
        self.strict = strict

    # -- scheduling ---------------------------------------------------------

    @staticmethod
    def schedule(experiment_ids: Sequence[str]) -> List[str]:
        """Slow experiments first (longest-processing-time-first), then id."""
        return sorted(
            experiment_ids,
            key=lambda eid: (get_spec(eid).cost != "slow", eid),
        )

    def _timeout_for(self, spec: ExperimentSpec) -> Optional[float]:
        """Effective budget: the engine's ``timeout_s``, else the cost default."""
        if self.timeout_s is None:
            return DEFAULT_TIMEOUT_S[spec.cost]
        return self.timeout_s if self.timeout_s > 0 else None

    def _task(self, experiment_id: str, kwargs: Dict) -> _Task:
        """Resolve the spec (failing fast on unknown ids) and cache key."""
        spec = get_spec(experiment_id)
        cacheable = self.use_cache and self.cache.is_cacheable(kwargs)
        key = self.cache.key_for(spec, kwargs) if cacheable else None
        return _Task(experiment_id, kwargs, key, self._timeout_for(spec))

    def _cached(self, task: _Task) -> Optional[ExperimentResult]:
        return self.cache.get(task.key) if task.key is not None else None

    # -- execution ----------------------------------------------------------

    def run_one(self, experiment_id: str, **kwargs) -> ExperimentResult:
        """Cached serial execution of a single experiment."""
        task = self._task(experiment_id, kwargs)
        cached = self._cached(task)
        if cached is not None:
            return cached
        results: Dict[str, ExperimentResult] = {}
        manifest = RunManifest()
        self._run_inline([task], results, manifest)
        if experiment_id not in results:
            raise ExperimentExecutionError(
                f"{experiment_id} failed: {manifest.records[0].error}"
            )
        return results[experiment_id]

    def run(
        self,
        experiment_ids: Sequence[str],
        kwargs_by_id: Optional[Dict[str, Dict]] = None,
        keep_going: bool = False,
        resume: bool = False,
    ) -> RunOutcome:
        """Run ``experiment_ids`` (cache-first, misses fanned out).

        Returns every result plus the run manifest. If any experiment
        fails, ``keep_going=True`` returns the partial
        :class:`RunOutcome` anyway; otherwise the rest still run and an
        :class:`ExperimentExecutionError` carrying that partial outcome
        (``exc.outcome``) is raised. ``resume=True`` records the
        experiments the previous manifest marks completed as ``skipped``
        when the cache still serves their result; the rest run as usual.
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
            task = self._task(experiment_id, kwargs_by_id.get(experiment_id, {}))
            cached = self._cached(task)
            if cached is None:
                pending.append(task)
                continue
            results[experiment_id] = cached
            status = SKIPPED if experiment_id in done_before else HIT
            manifest.records.append(RunRecord(experiment_id, status, 0.0, os.getpid()))

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

    def _finish(
        self,
        task: _Task,
        payload: Dict,
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        """Record the outcome of ``task`` (success or failure)."""
        if payload["ok"]:
            result = ExperimentResult.from_dict(payload["result"])
            results[task.experiment_id] = result
            if task.key is not None:
                self.cache.put(task.key, result)
            status, error = (MISS if task.key is not None else UNCACHED), ""
        else:
            status = TIMEOUT if payload["kind"] == "timeout" else ERROR
            error = payload["error"]
        manifest.records.append(
            RunRecord(
                task.experiment_id,
                status,
                payload["wall"],
                payload["pid"],
                error,
                list(payload["warnings"]),
            )
        )

    def _run_inline(
        self,
        pending: List[_Task],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        for task in pending:
            payload = _execute(
                task.experiment_id, task.kwargs, task.timeout_s, self.strict
            )
            self._finish(task, payload, results, manifest)

    def _run_pool(
        self,
        pending: List[_Task],
        results: Dict[str, ExperimentResult],
        manifest: RunManifest,
    ) -> None:
        """Fan ``pending`` out over one pool, in schedule order.

        A future that raises becomes one ``error`` record: a worker that
        dies fails every unfinished future with ``BrokenProcessPool``,
        and an argument that cannot be pickled fails its own.
        """
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(pending)))
        try:
            futures: Dict[Future, _Task] = {}
            for task in pending:
                try:
                    future = pool.submit(
                        _execute,
                        task.experiment_id,
                        task.kwargs,
                        task.timeout_s,
                        self.strict,
                    )
                except BrokenProcessPool as exc:
                    # A worker died before this task was submitted.
                    future = Future()
                    future.set_exception(exc)
                futures[future] = task
            for future in as_completed(futures):
                task = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:  # noqa: BLE001 - recorded, not raised
                    payload = _error_payload(task.experiment_id, exc, 0.0, 0)
                self._finish(task, payload, results, manifest)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def run_experiments(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Union[str, Path]] = None,
    timeout_s: Optional[float] = None,
    strict: bool = False,
    **run_kwargs,
) -> RunOutcome:
    """One-shot convenience wrapper around :class:`ExecutionEngine`."""
    engine = ExecutionEngine(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
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
