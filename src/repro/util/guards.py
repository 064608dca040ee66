"""Physics guardrails: structured model-validity warnings and watchdogs.

Every model in the repo happily evaluates whatever numbers it is handed;
the calibration behind those models does not. This module is the
contract layer between the two: production code declares *guard points*
(domain validators and convergence/degradation warnings), and a
:class:`GuardContext` decides what happens when one trips — collect a
structured :class:`ModelWarning` (the default), or, under
``strict=True``, escalate to :class:`ModelValidityError` on the spot.

The design mirrors the two existing cross-cutting layers:

* like :class:`repro.tech.context.TechContext`, the active context is
  ambient — ``use_guards()`` installs one for a ``with`` block; model
  code calls :func:`get_guards` (or the module-level :func:`warn`)
  without threading a handle through every signature. Unlike the tech
  context, the active context is **thread-local**: the execution
  engine's worker threads each collect their own warnings.
* like :func:`repro.util.faults.fault_point`, a guard point on a hot
  path must cost next to nothing when it has nothing to report —
  :func:`check_operating_point` is a handful of comparisons for an
  in-domain point and allocates only when something is actually wrong.

Domain bounds mirror :mod:`repro.tech.constants` (this module sits below
the tech layer and must not import it; ``tests/test_guards.py`` asserts
the mirrored values stay in sync):

* hard validity range ``[2, 400] K`` — outside it not even the thermal
  stage model applies, so a point there is an *error*;
* device-model floor ``60 K`` — the resistivity and MOSFET models raise
  below it; points in ``[2, 60) K`` are the deep-cryogenic cryostat
  stage domain (the 4 K quantum-controller scenario): modeled by the
  thermal layer, described with a *distinct calibration-confidence
  warning tier* rather than an out-of-range error;
* calibration anchors ``[77, 300] K`` — between them the models
  interpolate measured behaviour; outside (but inside the device range)
  they extrapolate, which is a *warning*;
* electrical sanity ``vdd > vth > 0`` with at least the drive model's
  0.05 V overdrive floor.

:class:`SimulationStalled` also lives here: the bus simulator's
no-forward-progress watchdog raises it with a state snapshot instead of
crashing opaquely.
"""

from __future__ import annotations

import numbers
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

# -- severity levels ---------------------------------------------------------

INFO = "info"
WARNING = "warning"
ERROR = "error"
SEVERITIES = (INFO, WARNING, ERROR)
_RANK = {INFO: 0, WARNING: 1, ERROR: 2}

# -- domain bounds (mirrors of the tech-layer calibration constants) ---------

#: Hard *device-model* validity range; mirrors
#: ``repro.tech.constants.T_MODEL_MIN/MAX``. The silicon models
#: (resistivity, MOSFET, DRAM timing) raise outside it.
T_HARD_MIN_K = 60.0
T_HARD_MAX_K = 400.0
#: Calibration anchors; mirrors ``repro.tech.constants.T_LN2/T_ROOM``.
T_CALIBRATED_MIN_K = 77.0
T_CALIBRATED_MAX_K = 300.0
#: Deep-cryogenic stage floor; mirrors ``repro.tech.constants.T_STAGE_MIN``.
#: Between it and :data:`T_HARD_MIN_K` lies the multi-stage cryostat
#: domain (the 4 K quantum-controller stage): the thermal/cooling models
#: apply, the device models do not — a *distinct* calibration-confidence
#: warning tier rather than an out-of-range error. Below the floor is an
#: error again.
T_DEEP_CRYO_MIN_K = 2.0
#: Overdrive floor; mirrors ``repro.tech.mosfet.MIN_OVERDRIVE_V``.
MIN_OVERDRIVE_V = 0.05
#: Longest wire that still plausibly lives on one die (10 cm; the paper's
#: largest structure, the 400-core bus spine, is ~64 mm).
MAX_WIRE_LENGTH_UM = 100_000.0


@dataclass(frozen=True)
class ModelWarning:
    """One structured validity finding from a guard point.

    ``op`` is the ``(temperature_k, vdd_v, vth_v)`` triple of the
    operating point being evaluated when the guard tripped (``None``
    when the finding is not tied to a point), ``op_name`` its label.
    """

    site: str
    message: str
    severity: str = WARNING
    op: Optional[Tuple[float, Optional[float], Optional[float]]] = None
    op_name: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> Dict:
        """Plain-data rendering (what run manifests and results carry)."""
        return {
            "site": self.site,
            "severity": self.severity,
            "message": self.message,
            "op": list(self.op) if self.op is not None else None,
            "op_name": self.op_name,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ModelWarning":
        op = data.get("op")
        return cls(
            site=data["site"],
            message=data["message"],
            severity=data.get("severity", WARNING),
            op=tuple(op) if op is not None else None,
            op_name=data.get("op_name", ""),
        )

    def render(self) -> str:
        where = f" @ {self.op_name or self.op}" if self.op is not None else ""
        return f"[{self.severity}] {self.site}{where}: {self.message}"


class ModelValidityError(ValueError):
    """A guard point tripped under ``strict=True``."""

    def __init__(self, warning: ModelWarning) -> None:
        super().__init__(warning.render())
        self.warning = warning


class SimulationStalled(RuntimeError):
    """A simulator made no forward progress; ``snapshot`` says where.

    Raised by the watchdog in
    :meth:`repro.noc.simulator.NocSimulator.simulate_bus` when requests
    are pending but the arbiter grants none of them; the snapshot holds
    the cycle, the ``winner`` and the ``requesters``.
    """

    def __init__(self, message: str, snapshot: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.snapshot: Dict = dict(snapshot or {})


class GuardContext:
    """Collector (and, under ``strict``, escalator) of model warnings.

    Storage is bounded (``max_records``); the per-severity counters keep
    counting past the bound, so ``dropped`` says how many records aged
    out.
    """

    def __init__(self, strict: bool = False, max_records: int = 10_000) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.strict = strict
        self._records: Deque[ModelWarning] = deque(maxlen=max_records)
        self._counts: Dict[str, int] = {s: 0 for s in SEVERITIES}
        self._seen: Set[Tuple] = set()

    # -- recording ----------------------------------------------------------

    def record(self, warning: ModelWarning) -> None:
        """Count ``warning`` and store it (first occurrence only).

        Identical findings (same site, severity, message and point) are
        deduplicated in storage — a guard point inside a sweep loop trips
        once per distinct problem, not once per call — but every
        occurrence increments the counters and, under ``strict``,
        escalates.
        """
        self._counts[warning.severity] += 1
        key = (warning.site, warning.severity, warning.message, warning.op)
        if key not in self._seen:
            self._seen.add(key)
            self._records.append(warning)
        if self.strict and warning.severity != INFO:
            raise ModelValidityError(warning)

    def warn(
        self,
        site: str,
        message: str,
        severity: str = WARNING,
        op: object = None,
    ) -> None:
        """Build and record a :class:`ModelWarning` (accepts any op form)."""
        triple, name = _op_identity(op)
        self.record(
            ModelWarning(
                site=site, message=message, severity=severity, op=triple, op_name=name
            )
        )

    # -- inspection ---------------------------------------------------------

    @property
    def warnings(self) -> Tuple[ModelWarning, ...]:
        return tuple(self._records)

    def to_dicts(self) -> List[Dict]:
        """The recorded warnings as plain-data payloads.

        What run manifests, experiment results and serve responses
        carry — ``ModelWarning.to_dict()`` per stored record.
        """
        return [warning.to_dict() for warning in self._records]

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def dropped(self) -> int:
        """Distinct findings that aged out of the bounded store."""
        return len(self._seen) - len(self._records)


# -- ambient (thread-local) context -----------------------------------------

#: Fallback context: always collecting, never strict. Bounded storage
#: keeps long-lived processes safe; ``use_guards`` is the way to get an
#: isolated, inspectable collection scope.
_DEFAULT = GuardContext()

_LOCAL = threading.local()


def get_guards() -> GuardContext:
    """The active context of this thread (the shared default if none)."""
    return getattr(_LOCAL, "active", _DEFAULT)


@contextmanager
def use_guards(
    context: Optional[GuardContext] = None, *, strict: bool = False
) -> Iterator[GuardContext]:
    """Run a block under ``context`` (or a fresh one), then restore.

    Nested scopes restore their parent on exit, so a strict inner block
    does not leak strictness into the surrounding code.
    """
    if context is None:
        context = GuardContext(strict=strict)
    previous = getattr(_LOCAL, "active", None)
    _LOCAL.active = context
    try:
        yield context
    finally:
        if previous is None:
            del _LOCAL.active
        else:
            _LOCAL.active = previous


def warn(
    site: str, message: str, severity: str = WARNING, op: object = None
) -> None:
    """Record a warning against this thread's active context."""
    get_guards().warn(site, message, severity=severity, op=op)


# -- operating-point coercion ------------------------------------------------


def _op_identity(op: object) -> Tuple[Optional[Tuple], str]:
    """``(triple, name)`` of any operating-point-ish value.

    Accepts an ``OperatingPoint`` (duck-typed on ``key``/``name`` — this
    module must not import the tech layer), a ``(t, vdd, vth)`` tuple, a
    bare temperature, or ``None``.
    """
    if op is None:
        return None, ""
    key = getattr(op, "key", None)
    if key is not None:
        return tuple(key), getattr(op, "name", "")
    if isinstance(op, (tuple, list)):
        values = tuple(op) + (None,) * (3 - len(op))
        return values[:3], ""
    if isinstance(op, numbers.Real):
        return (float(op), None, None), ""
    raise TypeError(f"cannot interpret {op!r} as an operating point")


# -- domain validators -------------------------------------------------------


def validate_operating_point(
    op: object,
    *,
    site: str = "guards.operating_point",
    guards: Optional[GuardContext] = None,
) -> Tuple[ModelWarning, ...]:
    """Check one operating point against the calibrated domain.

    Findings are recorded against ``guards`` (default: the active
    context) and returned. Accepts a raw ``(t, vdd, vth)`` triple as
    well as an ``OperatingPoint``, so out-of-domain points the
    ``OperatingPoint`` constructor itself rejects (``vth >= vdd``) can
    still be *described* rather than crashed on.
    """
    context = guards if guards is not None else get_guards()
    triple, name = _op_identity(op)
    if triple is None:
        raise TypeError("validate_operating_point needs a point, got None")
    t, vdd, vth = triple
    found: List[ModelWarning] = []

    def emit(severity: str, message: str) -> None:
        finding = ModelWarning(
            site=site, message=message, severity=severity, op=triple, op_name=name
        )
        found.append(finding)
        context.record(finding)

    if not (t > 0.0) or t != t:  # catches NaN and non-physical temperatures
        emit(ERROR, f"temperature {t!r} K is not physical")
    elif t < T_DEEP_CRYO_MIN_K or t > T_HARD_MAX_K:
        emit(
            ERROR,
            f"temperature {t:g} K outside the hard model range "
            f"[{T_DEEP_CRYO_MIN_K:g}, {T_HARD_MAX_K:g}] K",
        )
    elif t < T_HARD_MIN_K:
        emit(
            WARNING,
            f"temperature {t:g} K is in the deep-cryogenic stage domain "
            f"[{T_DEEP_CRYO_MIN_K:g}, {T_HARD_MIN_K:g}) K: thermal and "
            f"cooling models apply, but the silicon device models are "
            f"uncalibrated here (low calibration confidence)",
        )
    elif t < T_CALIBRATED_MIN_K or t > T_CALIBRATED_MAX_K:
        emit(
            WARNING,
            f"temperature {t:g} K extrapolates beyond the "
            f"[{T_CALIBRATED_MIN_K:g}, {T_CALIBRATED_MAX_K:g}] K "
            f"calibration anchors",
        )
    if vdd is not None and not (vdd > 0.0):
        emit(ERROR, f"Vdd {vdd:g} V must be positive")
    if vth is not None and not (vth > 0.0):
        emit(ERROR, f"Vth {vth:g} V must be positive (vdd > vth > 0)")
    if vdd is not None and vth is not None and vdd > 0.0 and vth > 0.0:
        if vdd <= vth:
            emit(ERROR, f"Vdd {vdd:g} V must exceed Vth {vth:g} V")
        elif vdd - vth < MIN_OVERDRIVE_V:
            emit(
                WARNING,
                f"overdrive {vdd - vth:.3f} V below the "
                f"{MIN_OVERDRIVE_V:g} V drive-model validity floor",
            )
    return tuple(found)


def check_operating_point(op, site: str = "guards.operating_point"):
    """Hot-path guard: validate ``op`` and return it unchanged.

    The clean path — an in-domain :class:`OperatingPoint` — is a
    handful of comparisons with no allocation; anything suspicious
    falls through to the full validator. Model entry points call this
    on every evaluation.
    """
    context = getattr(_LOCAL, "active", _DEFAULT)
    t = op.temperature_k
    vdd = op.vdd_v
    vth = op.vth_v
    if (
        T_CALIBRATED_MIN_K <= t <= T_CALIBRATED_MAX_K
        and (vdd is None or vdd > 0.0)
        and (vth is None or vth > 0.0)
        and (vdd is None or vth is None or vdd - vth >= MIN_OVERDRIVE_V)
    ):
        return op
    validate_operating_point(op, site=site, guards=context)
    return op


def validate_operating_point_batch(
    batch,
    *,
    site: str = "guards.operating_point",
    guards: Optional[GuardContext] = None,
) -> Tuple[ModelWarning, ...]:
    """Vectorized :func:`validate_operating_point` over a whole batch.

    ``batch`` is duck-typed on ``temperature_k``/``vdd_v``/``vth_v``
    array columns (NaN in a voltage column encodes "card nominal", the
    scalar layer's ``None``) — this module must not import the tech
    layer. Each violated domain *region* produces **one** deduplicated
    :class:`ModelWarning` carrying the number of affected points and the
    first violating point, rather than one warning per point: a dense
    sweep that strays past an anchor trips each guard once, not ten
    thousand times. Severities match the scalar validator exactly.
    """
    import numpy as np

    context = guards if guards is not None else get_guards()
    t = np.asarray(batch.temperature_k, dtype=float)
    vdd = np.asarray(batch.vdd_v, dtype=float)
    vth = np.asarray(batch.vth_v, dtype=float)
    n = t.shape[0]
    if n == 0:
        return ()
    found: List[ModelWarning] = []

    def emit(mask: "np.ndarray", severity: str, describe: str) -> None:
        count = int(mask.sum())
        if not count:
            return
        i = int(np.argmax(mask))
        op = (
            float(t[i]),
            None if np.isnan(vdd[i]) else float(vdd[i]),
            None if np.isnan(vth[i]) else float(vth[i]),
        )
        message = (
            f"{count} of {n} point(s): {describe} "
            f"(first at index {i}: T={op[0]:g} K"
            + (f", Vdd={op[1]:g} V" if op[1] is not None else "")
            + (f", Vth={op[2]:g} V" if op[2] is not None else "")
            + ")"
        )
        finding = ModelWarning(
            site=site, message=message, severity=severity, op=op
        )
        found.append(finding)
        context.record(finding)

    has_vdd = ~np.isnan(vdd)
    has_vth = ~np.isnan(vth)
    physical = (t > 0.0) & ~np.isnan(t)
    emit(~physical, ERROR, "temperature is not physical")
    in_hard = physical & (t >= T_DEEP_CRYO_MIN_K) & (t <= T_HARD_MAX_K)
    emit(
        physical & ~in_hard,
        ERROR,
        f"temperature outside the hard model range "
        f"[{T_DEEP_CRYO_MIN_K:g}, {T_HARD_MAX_K:g}] K",
    )
    emit(
        in_hard & (t < T_HARD_MIN_K),
        WARNING,
        f"temperature is in the deep-cryogenic stage domain "
        f"[{T_DEEP_CRYO_MIN_K:g}, {T_HARD_MIN_K:g}) K: thermal and "
        f"cooling models apply, but the silicon device models are "
        f"uncalibrated here (low calibration confidence)",
    )
    emit(
        in_hard
        & (t >= T_HARD_MIN_K)
        & ((t < T_CALIBRATED_MIN_K) | (t > T_CALIBRATED_MAX_K)),
        WARNING,
        f"temperature extrapolates beyond the "
        f"[{T_CALIBRATED_MIN_K:g}, {T_CALIBRATED_MAX_K:g}] K "
        f"calibration anchors",
    )
    emit(has_vdd & ~(vdd > 0.0), ERROR, "Vdd must be positive")
    emit(
        has_vth & ~(vth > 0.0),
        ERROR,
        "Vth must be positive (vdd > vth > 0)",
    )
    electrical = has_vdd & has_vth & (vdd > 0.0) & (vth > 0.0)
    emit(electrical & (vdd <= vth), ERROR, "Vdd must exceed Vth")
    emit(
        electrical & (vdd > vth) & (vdd - vth < MIN_OVERDRIVE_V),
        WARNING,
        f"overdrive below the {MIN_OVERDRIVE_V:g} V drive-model "
        f"validity floor",
    )
    return tuple(found)


def check_operating_point_batch(batch, site: str = "guards.operating_point"):
    """Hot-path batch guard: validate ``batch`` and return it unchanged.

    The clean path — every point inside the calibration anchors with a
    healthy overdrive — is a handful of vectorized comparisons; anything
    suspicious falls through to :func:`validate_operating_point_batch`.
    The batch analogue of :func:`check_operating_point`; batch model
    entry points call this on every evaluation.
    """
    import numpy as np

    context = getattr(_LOCAL, "active", _DEFAULT)
    t = batch.temperature_k
    vdd = batch.vdd_v
    vth = batch.vth_v
    if t.shape[0] == 0:
        return batch
    no_vdd = np.isnan(vdd)
    no_vth = np.isnan(vth)
    ok = (t >= T_CALIBRATED_MIN_K) & (t <= T_CALIBRATED_MAX_K)
    ok &= no_vdd | (vdd > 0.0)
    ok &= no_vth | (vth > 0.0)
    ok &= no_vdd | no_vth | (vdd - vth >= MIN_OVERDRIVE_V)
    if bool(np.all(ok)):
        return batch
    validate_operating_point_batch(batch, site=site, guards=context)
    return batch


def validate_wire_geometry(
    length_um: float,
    *,
    layer_name: str = "",
    site: str = "guards.geometry",
    guards: Optional[GuardContext] = None,
) -> Tuple[ModelWarning, ...]:
    """Check a wire length against physical plausibility."""
    context = guards if guards is not None else get_guards()
    label = f"{layer_name} wire" if layer_name else "wire"
    found: List[ModelWarning] = []

    def emit(severity: str, message: str) -> None:
        finding = ModelWarning(site=site, message=message, severity=severity)
        found.append(finding)
        context.record(finding)

    if length_um != length_um or length_um in (float("inf"), float("-inf")):
        emit(ERROR, f"{label} length {length_um!r} um is not finite")
    elif length_um <= 0.0:
        emit(ERROR, f"{label} length {length_um:g} um must be positive")
    elif length_um > MAX_WIRE_LENGTH_UM:
        emit(
            WARNING,
            f"{label} length {length_um:g} um exceeds the plausible "
            f"on-die span ({MAX_WIRE_LENGTH_UM:g} um)",
        )
    return tuple(found)


def validate_wire_geometry_batch(
    lengths_um,
    *,
    layer_name: str = "",
    site: str = "guards.geometry",
    guards: Optional[GuardContext] = None,
) -> Tuple[ModelWarning, ...]:
    """Vectorized :func:`validate_wire_geometry` over a length column.

    Like :func:`validate_operating_point_batch`, each violated region
    yields one deduplicated warning carrying the count and the first
    offending length, not one warning per element.
    """
    import numpy as np

    context = guards if guards is not None else get_guards()
    lengths = np.asarray(lengths_um, dtype=float)
    n = lengths.shape[0]
    if n == 0:
        return ()
    label = f"{layer_name} wire" if layer_name else "wire"
    found: List[ModelWarning] = []

    def emit(mask: "np.ndarray", severity: str, describe: str) -> None:
        count = int(mask.sum())
        if not count:
            return
        i = int(np.argmax(mask))
        finding = ModelWarning(
            site=site,
            message=(
                f"{count} of {n} length(s): {label} {describe} "
                f"(first at index {i}: {lengths[i]:g} um)"
            ),
            severity=severity,
        )
        found.append(finding)
        context.record(finding)

    finite = np.isfinite(lengths)
    emit(~finite, ERROR, "length is not finite")
    emit(finite & (lengths <= 0.0), ERROR, "length must be positive")
    emit(
        finite & (lengths > MAX_WIRE_LENGTH_UM),
        WARNING,
        f"length exceeds the plausible on-die span "
        f"({MAX_WIRE_LENGTH_UM:g} um)",
    )
    return tuple(found)


def validate_workload_profile(
    profile,
    *,
    site: str = "guards.workload",
    guards: Optional[GuardContext] = None,
) -> Tuple[ModelWarning, ...]:
    """Check a :class:`~repro.workloads.profiles.WorkloadProfile`.

    The profile constructor enforces most of this already; this guard
    re-checks duck-typed or mutated profile objects on their way into
    the system model, where a bad rate silently corrupts the CPI stack.
    """
    context = guards if guards is not None else get_guards()
    name = getattr(profile, "name", "<profile>")
    found: List[ModelWarning] = []

    def emit(severity: str, message: str) -> None:
        finding = ModelWarning(site=site, message=message, severity=severity)
        found.append(finding)
        context.record(finding)

    if not (getattr(profile, "base_cpi", 1.0) > 0.0):
        emit(ERROR, f"{name}: base_cpi must be positive")
    if not (getattr(profile, "ilp", 1.0) > 0.0):
        emit(ERROR, f"{name}: ilp must be positive")
    for rate_name in (
        "restarts_pki",
        "l1d_mpki",
        "l2_mpki",
        "l3_mpki",
        "barrier_pki",
        "lock_pki",
    ):
        value = getattr(profile, rate_name, 0.0)
        if not (value >= 0.0):
            emit(ERROR, f"{name}: {rate_name} {value!r} must be >= 0")
    sharing = getattr(profile, "sharing_fraction", 0.0)
    if not (0.0 <= sharing <= 1.0):
        emit(ERROR, f"{name}: sharing_fraction {sharing!r} outside [0, 1]")
    l1d = getattr(profile, "l1d_mpki", 0.0)
    l2 = getattr(profile, "l2_mpki", 0.0)
    l3 = getattr(profile, "l3_mpki", 0.0)
    if l1d >= 0 and l2 >= 0 and l3 >= 0 and not (l1d >= l2 >= l3):
        emit(
            WARNING,
            f"{name}: miss chain not monotone "
            f"(l1d {l1d:g} >= l2 {l2:g} >= l3 {l3:g} expected)",
        )
    return tuple(found)
