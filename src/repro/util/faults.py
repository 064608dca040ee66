"""Fault injection for the experiment engine's pool workers.

The engine runs each experiment driver inside a ``ProcessPoolExecutor``
worker. A driver that raises, hangs or takes its worker down with it is
the one failure a test cannot provoke from outside, so the engine
declares one injection site per driver, ``driver.<experiment>``, by
calling :func:`fault_point` just before the driver runs. A
:class:`FaultPlan` names the sites to strike and what happens there:

* ``fatal`` raises :class:`FatalFault`: the driver fails;
* ``hang`` sleeps ``delay_s``: the driver overruns its timeout;
* ``kill`` ends the worker with ``os._exit``: a crash or an OOM kill.

Every other failure is provoked the way it happens in practice: a
corrupt cache entry by writing bad bytes into its file, a failing or
stalled serve call by handing the server a ``ModelService`` whose
method raises or sleeps.

Sites match exactly, and a matching spec fires on every call, so the
same plan against the same run gives the same failures. A test that
wants a clean rerun calls :func:`clear` first.

Crossing the process boundary: :func:`install` serializes the plan into
the ``CRYOWIRE_FAULT_PLAN`` environment variable, which is where
:func:`active` reads it, so pool workers see the plan under the fork
*and* the spawn start method.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

#: Environment variable carrying the serialized plan across processes.
FAULT_PLAN_ENV = "CRYOWIRE_FAULT_PLAN"

# -- fault kinds -------------------------------------------------------------

FATAL = "fatal"  # raise FatalFault
HANG = "hang"  # sleep delay_s at the site (provokes timeouts)
KILL = "kill"  # os._exit: simulates a worker crash / OOM kill

KINDS = (FATAL, HANG, KILL)

#: Exit status of a worker ended by a ``kill`` fault.
KILL_EXIT_CODE = 13


class FatalFault(RuntimeError):
    """An injected failure: the work at the site fails."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: the site it strikes and what it does there.

    ``delay_s`` is the sleep length of a ``hang`` fault.
    """

    site: str
    kind: str
    delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {KINDS}")


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault specs, serializable through the environment."""

    specs: Tuple[FaultSpec, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"specs": [asdict(spec) for spec in self.specs]}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(specs=tuple(FaultSpec(**spec) for spec in data["specs"]))


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process *and* in its future children."""
    os.environ[FAULT_PLAN_ENV] = plan.to_json()


def clear() -> None:
    """Deactivate fault injection in this process and for new children."""
    os.environ.pop(FAULT_PLAN_ENV, None)


def active() -> Optional[FaultPlan]:
    """The plan in the environment; ``None`` when unset or unreadable."""
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    try:
        return FaultPlan.from_json(raw)
    except (ValueError, KeyError, TypeError):
        return None


def fault_point(site: str) -> None:
    """Declare an injection site: apply every spec naming it, in order."""
    plan = active()
    if plan is None:
        return
    for spec in plan.specs:
        if spec.site != site:
            continue
        if spec.kind == FATAL:
            raise FatalFault(f"injected fatal fault at {site}")
        if spec.kind == HANG:
            time.sleep(spec.delay_s)
        else:
            os._exit(KILL_EXIT_CODE)
