"""Deterministic, site-addressed fault injection.

The execution engine must survive worker crashes, hung drivers,
transient exceptions and corrupted cache bytes. This module provides
the harness that *provokes* those failures on demand, so the chaos test
suite can prove each recovery path instead of waiting for production to
exercise it.

A :class:`FaultPlan` names *injection sites* — stable string labels the
production code declares by calling :func:`fault_point` (for control
faults) or :func:`maybe_corrupt` (for data faults). Engine sites:

* ``engine.worker``        — inside a pool worker, before the driver runs
* ``driver.<experiment>``  — one site per experiment driver (globbable:
  a spec with site ``driver.*`` matches every driver)
* ``cache.read`` / ``cache.write`` — byte-corruption sites in the
  result cache

Serve-path sites (the ``cryowire serve`` stack, exercised by
``tests/test_serve_chaos.py``):

* ``serve.connection``          — per-request, on the event loop right
  after the request is parsed (connection-level transients/fatals)
* ``serve.batch.drain``         — around each coalesced batch
  evaluation, on the model executor thread (a ``hang`` here wedges the
  batch, not the event loop)
* ``serve.executor.model``      — entry of the model-executor work
  (point batches, grids, cryostat pricing)
* ``serve.executor.experiment`` — entry of the experiment-executor work
  (IPC solves, registry experiments); failures here feed the circuit
  breaker

``kill`` faults are for out-of-process workers only — the serve sites
run in the host process, so plans targeting them should stick to
``transient`` / ``fatal`` / ``hang``.

Determinism: every fire/no-fire decision is a pure function of the plan
seed, the site label and the per-site trial index (a SHA-256 hash mapped
to ``[0, 1)`` and compared against the spec's probability — no salted
``hash()``, no wall clock). Replaying the same plan against the same
call sequence reproduces the identical fault sequence, which is what
lets the chaos suite assert manifest equality across runs.

Crossing the process boundary: :func:`install` serializes the plan into
the ``CRYOWIRE_FAULT_PLAN`` environment variable, so worker processes
spawned by a ``ProcessPoolExecutor`` (fork *or* spawn start methods)
reconstruct the same injector. Budgeted faults (``max_fires``) count
fires in a shared *ledger directory* — one append-only file per spec —
so "crash exactly once, then succeed" survives the worker that fired it
being killed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Environment variable carrying the serialized plan across processes.
FAULT_PLAN_ENV = "CRYOWIRE_FAULT_PLAN"

# -- fault kinds -------------------------------------------------------------

TRANSIENT = "transient"  # raise TransientFault (retryable)
FATAL = "fatal"  # raise FatalFault (never retried)
HANG = "hang"  # sleep delay_s at the site (provokes timeouts)
KILL = "kill"  # os._exit: simulates a worker crash / OOM kill
CORRUPT = "corrupt"  # mangle bytes passing through maybe_corrupt()

KINDS = (TRANSIENT, FATAL, HANG, KILL, CORRUPT)


class InjectedFault(RuntimeError):
    """Base class of every exception the injector raises."""


class TransientFault(InjectedFault):
    """An injected failure the engine is expected to retry away."""


class FatalFault(InjectedFault):
    """An injected failure that must *not* be retried."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it strikes, what it does, and how often.

    ``site`` is a glob pattern matched case-sensitively against the
    site label (``driver.*`` hits every driver). ``probability`` is the
    per-trial fire chance; ``max_fires`` caps total fires across *all*
    processes (``None`` = unlimited). ``delay_s`` is the sleep length
    for ``hang`` faults; ``exit_code`` the status for ``kill``.
    """

    site: str
    kind: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    delay_s: float = 0.25
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "probability": self.probability,
            "max_fires": self.max_fires,
            "delay_s": self.delay_s,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultSpec":
        return cls(
            site=data["site"],
            kind=data["kind"],
            probability=data.get("probability", 1.0),
            max_fires=data.get("max_fires"),
            delay_s=data.get("delay_s", 0.25),
            exit_code=data.get("exit_code", 13),
        )

    @property
    def ledger_name(self) -> str:
        """Filename of this spec's fire ledger (stable across processes)."""
        material = f"{self.site}|{self.kind}".encode("utf-8")
        return hashlib.sha256(material).hexdigest()[:16] + ".fires"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs, serializable through the environment."""

    specs: Tuple[FaultSpec, ...]
    seed: int = 0
    ledger_dir: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "ledger_dir": self.ledger_dir,
                "specs": [spec.to_dict() for spec in self.specs],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in data["specs"]),
            seed=data.get("seed", 0),
            ledger_dir=data.get("ledger_dir"),
        )


def _decision(seed: int, label: str, trial: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one fire decision."""
    material = f"{seed}|{label}|{trial}".encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at injection sites.

    Per-``(spec, site)`` trial counters are process-local (each worker
    replays its own deterministic sequence); *fire* counters honouring
    ``max_fires`` go through the plan's ledger directory when one is
    set, so budgets hold across pool respawns and killed workers.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._trials: Dict[Tuple[int, str], int] = {}
        self._local_fires: Dict[int, int] = {}

    # -- fire accounting ----------------------------------------------------

    def _ledger_path(self, spec: FaultSpec) -> Optional[Path]:
        if self.plan.ledger_dir is None:
            return None
        return Path(self.plan.ledger_dir) / spec.ledger_name

    def fire_count(self, spec_index: int) -> int:
        spec = self.plan.specs[spec_index]
        ledger = self._ledger_path(spec)
        if ledger is None:
            return self._local_fires.get(spec_index, 0)
        try:
            return ledger.stat().st_size
        except OSError:
            return 0

    def _record_fire(self, spec_index: int) -> None:
        spec = self.plan.specs[spec_index]
        ledger = self._ledger_path(spec)
        if ledger is None:
            self._local_fires[spec_index] = self._local_fires.get(spec_index, 0) + 1
            return
        ledger.parent.mkdir(parents=True, exist_ok=True)
        # One byte per fire, O_APPEND so concurrent workers don't clobber.
        fd = os.open(str(ledger), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, b"x")
        finally:
            os.close(fd)

    # -- decisions ----------------------------------------------------------

    def _should_fire(self, spec_index: int, spec: FaultSpec, site: str) -> bool:
        if spec.max_fires is not None and self.fire_count(spec_index) >= spec.max_fires:
            return False
        counter_key = (spec_index, site)
        trial = self._trials.get(counter_key, 0)
        self._trials[counter_key] = trial + 1
        if spec.probability >= 1.0:
            fire = True
        else:
            fire = _decision(self.plan.seed, f"{spec.site}|{site}", trial) < spec.probability
        if fire:
            self._record_fire(spec_index)
        return fire

    def check(self, site: str) -> None:
        """Apply every matching control fault (raise / sleep / exit)."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind == CORRUPT or not fnmatchcase(site, spec.site):
                continue
            if not self._should_fire(index, spec, site):
                continue
            if spec.kind == TRANSIENT:
                raise TransientFault(f"injected transient fault at {site}")
            if spec.kind == FATAL:
                raise FatalFault(f"injected fatal fault at {site}")
            if spec.kind == HANG:
                time.sleep(spec.delay_s)
            elif spec.kind == KILL:
                os._exit(spec.exit_code)

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Apply matching ``corrupt`` faults to ``data`` (deterministic)."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != CORRUPT or not fnmatchcase(site, spec.site):
                continue
            if self._should_fire(index, spec, site):
                data = _mangle(data)
        return data


def _mangle(data: bytes) -> bytes:
    """Deterministic corruption: truncate and flip the leading byte."""
    if not data:
        return b"\xff"
    keep = max(1, len(data) // 2)
    head = bytes([data[0] ^ 0xFF])
    return head + data[1:keep]


# -- module-level installation ----------------------------------------------

_INSTALLED: Optional[FaultInjector] = None
#: Cache of the injector parsed from the environment, keyed by raw value.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def install(plan: FaultPlan) -> FaultInjector:
    """Activate ``plan`` in this process *and* export it to children.

    The plan rides the ``CRYOWIRE_FAULT_PLAN`` environment variable, so
    pool workers created after this call reconstruct the same injector
    regardless of start method.
    """
    global _INSTALLED
    _INSTALLED = FaultInjector(plan)
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    return _INSTALLED


def clear() -> None:
    """Deactivate fault injection in this process and for new children."""
    global _INSTALLED, _ENV_CACHE
    _INSTALLED = None
    _ENV_CACHE = (None, None)
    os.environ.pop(FAULT_PLAN_ENV, None)


def active() -> Optional[FaultInjector]:
    """The installed injector, else one parsed from the environment."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    cached_raw, cached_injector = _ENV_CACHE
    if raw != cached_raw:
        try:
            cached_injector = FaultInjector(FaultPlan.from_json(raw))
        except (ValueError, KeyError, TypeError):
            cached_injector = None
        _ENV_CACHE = (raw, cached_injector)
    return cached_injector


def fault_point(site: str) -> None:
    """Declare a control-fault injection site (no-op without a plan)."""
    injector = active()
    if injector is not None:
        injector.check(site)


def maybe_corrupt(site: str, data: bytes) -> bytes:
    """Declare a data-fault site: returns ``data``, possibly mangled."""
    injector = active()
    if injector is None:
        return data
    return injector.corrupt(site, data)
