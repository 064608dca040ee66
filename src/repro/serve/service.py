"""ModelService: the protocol-free domain layer behind ``cryowire serve``.

Everything HTTP-shaped lives in :mod:`repro.serve.http` /
:mod:`repro.serve.app`; this module answers model questions against
plain Python values so it can be tested (and reused) without a socket:

* :meth:`ModelService.evaluate_points` — the micro-batcher's evaluate
  hook. It receives whatever concurrent :class:`PointQuery` requests the
  batcher coalesced, regroups them into one
  :class:`~repro.tech.batch.OperatingPointBatch` per device card, and
  feeds the vectorized kernels. Because the scalar entry points are
  length-1 batch wrappers (the repo's scalar/batch parity invariant),
  the numbers a client reads over HTTP are bit-identical to direct
  library calls.
* :meth:`ModelService.evaluate_grid` — dense sweeps in one request.
* :meth:`ModelService.evaluate_ipc` — system-level workload evaluation
  on the named Table 4 configurations.
* :meth:`ModelService.evaluate_cryostat` — multi-stage cryostat pricing
  (heat ledger + TCO); the transport layers per-stage silicon metrics on
  top via the micro-batched point path.

Failure isolation: one bad point must not poison the coalesced batch it
happens to share with unrelated requests. Queries are pre-screened with
the guard layer's domain validator, and if a grouped batch still raises
(card-resolved overdrive collapse, say — invisible until the card's
nominal voltages are substituted), the group is retried point-by-point
as length-1 batches so only the offending queries fail.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.system.config import (
    BASELINE_300K_MESH,
    CHP_77K_CRYOBUS,
    CHP_77K_MESH,
    CRYOSP_77K_CRYOBUS,
    CRYOSP_77K_CRYOBUS_2WAY,
    CRYOSP_77K_MESH,
    SystemConfig,
)
from repro.system.multicore import MulticoreSystem, WorkloadResult
from repro.power.tco import cryostat_tco_w
from repro.tech.batch import OperatingPointBatch
from repro.tech.constants import T_MODEL_MAX, T_MODEL_MIN
from repro.tech.context import TechContext
from repro.tech.metal import FREEPDK45_STACK
from repro.tech.mosfet import DEVICE_CARDS, CryoMOSFET, MOSFETCard, cryo_mosfet
from repro.tech.operating_point import OperatingPoint
from repro.tech.wire import CryoWireModel
from repro.thermal.cryostat import ComponentPlacement, Cryostat, standard_stack
from repro.thermal.stage import (
    InterStageLink,
    LINK_KINDS,
    ThermalStage,
    electrical_link,
    optical_link,
)
from repro.util.guards import (
    ERROR,
    GuardContext,
    use_guards,
    validate_operating_point,
    validate_operating_point_batch,
)
from repro.workloads.profiles import by_name as workload_by_name

#: The Table 4 systems addressable over the API, by URL-safe slug.
SERVED_SYSTEMS: Dict[str, SystemConfig] = {
    "baseline_300k_mesh": BASELINE_300K_MESH,
    "chp_77k_mesh": CHP_77K_MESH,
    "cryosp_77k_mesh": CRYOSP_77K_MESH,
    "chp_77k_cryobus": CHP_77K_CRYOBUS,
    "cryosp_77k_cryobus": CRYOSP_77K_CRYOBUS,
    "cryosp_77k_cryobus_2way": CRYOSP_77K_CRYOBUS_2WAY,
}


class QueryError(ValueError):
    """A request the service understood but cannot answer.

    ``status`` is the HTTP status the transport should map it to;
    ``code`` is the stable machine-readable discriminator clients
    switch on.
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int = 422,
        warnings: Optional[List[Dict]] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status
        self.warnings: List[Dict] = list(warnings or [])

    def to_dict(self) -> Dict:
        payload: Dict = {"code": self.code, "message": str(self)}
        if self.warnings:
            payload["warnings"] = self.warnings
        return payload


@dataclass(frozen=True)
class WireSpec:
    """An optional wire to evaluate alongside a point query."""

    layer: str
    length_um: float


@dataclass(frozen=True)
class PointQuery:
    """One model query: an operating point, a device card, maybe a wire."""

    op: OperatingPoint
    card_name: str = "freepdk45"
    wire: Optional[WireSpec] = None


def _device_card(card_name) -> MOSFETCard:
    """The device card a request names; any other JSON value is a 422."""
    if isinstance(card_name, str) and card_name in DEVICE_CARDS:
        return DEVICE_CARDS[card_name]
    raise QueryError(
        "unknown_card",
        f"unknown device card {card_name!r}; "
        f"available: {', '.join(sorted(DEVICE_CARDS))}",
    )


def _wire_layer(layer) -> str:
    """The metal layer a wire names; any other JSON value is a 422."""
    if isinstance(layer, str) and layer in FREEPDK45_STACK.layers:
        return layer
    raise QueryError(
        "unknown_layer",
        f"unknown wire layer {layer!r}; "
        f"available: {', '.join(sorted(FREEPDK45_STACK.layers))}",
    )


def _finite(value, field: str) -> float:
    """``float(value)`` for a client number, which must be a finite JSON
    number.

    Raises ``TypeError`` for anything but an ``int`` or ``float`` (a
    string or a boolean is not a number, even where ``float()`` would
    read one), and ``ValueError`` for NaN, infinities and integers too
    large for a float; each parser maps both to its 422 code. JSON has
    no literal for NaN or infinity, so a response echoing one would not
    parse; and a NaN voltage in a batch column reads as "card nominal".
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a JSON number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return number


def _op_payload(op: OperatingPoint) -> Dict:
    return {
        "temperature_k": op.temperature_k,
        "vdd_v": op.vdd_v,
        "vth_v": op.vth_v,
    }


def parse_operating_point(data: Dict) -> OperatingPoint:
    """Build an :class:`OperatingPoint` from a request payload.

    Constructor rejections (``vdd <= vth``, non-positive voltages …)
    surface as a structured :class:`QueryError` rather than a bare 500.
    """
    if not isinstance(data, dict):
        raise QueryError(
            "invalid_operating_point",
            "operating_point must be an object with temperature_k "
            "(and optional vdd_v / vth_v)",
        )
    if "temperature_k" not in data:
        raise QueryError(
            "invalid_operating_point", "operating_point.temperature_k is required"
        )
    unknown = set(data) - {"temperature_k", "vdd_v", "vth_v", "name"}
    if unknown:
        raise QueryError(
            "invalid_operating_point",
            f"unknown operating_point field(s): {', '.join(sorted(unknown))}",
        )
    vdd_v, vth_v = data.get("vdd_v"), data.get("vth_v")
    try:
        return OperatingPoint.at(
            _finite(data["temperature_k"], "operating_point.temperature_k"),
            None if vdd_v is None else _finite(vdd_v, "operating_point.vdd_v"),
            None if vth_v is None else _finite(vth_v, "operating_point.vth_v"),
            name=str(data.get("name", "")),
        )
    except (TypeError, ValueError) as exc:
        raise QueryError("invalid_operating_point", str(exc)) from None


def parse_point_query(data: Dict) -> PointQuery:
    """Build a :class:`PointQuery` from a ``/v1/query`` request body."""
    if not isinstance(data, dict):
        raise QueryError("invalid_request", "request body must be a JSON object")
    unknown = set(data) - {"operating_point", "card", "wire"}
    if unknown:
        raise QueryError(
            "invalid_request",
            f"unknown field(s): {', '.join(sorted(unknown))}",
        )
    op = parse_operating_point(data.get("operating_point", {}))
    card_name = data.get("card", "freepdk45")
    _device_card(card_name)
    wire = None
    wire_data = data.get("wire")
    if wire_data is not None:
        if not isinstance(wire_data, dict) or "layer" not in wire_data or (
            "length_um" not in wire_data
        ):
            raise QueryError(
                "invalid_wire", "wire must be {layer, length_um}"
            )
        layer = _wire_layer(wire_data["layer"])
        try:
            wire = WireSpec(
                layer=layer,
                length_um=_finite(wire_data["length_um"], "wire.length_um"),
            )
        except (TypeError, ValueError) as exc:
            raise QueryError("invalid_wire", str(exc)) from None
        if wire.length_um <= 0:
            raise QueryError("invalid_wire", "wire.length_um must be positive")
    return PointQuery(op=op, card_name=card_name, wire=wire)


@dataclass(frozen=True)
class CryostatPlan:
    """A parsed ``/v1/cryostat`` request: the stack plus a device card."""

    cryostat: Cryostat
    card_name: str = "freepdk45"


_STAGE_FIELDS = {"name", "temperature_k", "carnot_fraction", "overhead"}
_LINK_CARD_FIELDS = {"name", "kind", "hot_stage", "cold_stage", "lanes"}
_LINK_EXPLICIT_FIELDS = {
    "name",
    "kind",
    "hot_stage",
    "cold_stage",
    "conducted_w",
    "dissipated_w",
    "hot_side_w",
    "latency_ns",
    "bandwidth_gbps",
}
_PLACEMENT_FIELDS = {"component", "stage", "device_power_w"}


def _parse_stage(data: Dict, index: int) -> ThermalStage:
    if not isinstance(data, dict) or "name" not in data or (
        "temperature_k" not in data
    ):
        raise QueryError(
            "invalid_cryostat",
            f"stages[{index}] must be {{name, temperature_k}} with "
            "optional carnot_fraction / overhead",
        )
    unknown = set(data) - _STAGE_FIELDS
    if unknown:
        raise QueryError(
            "invalid_cryostat",
            f"stages[{index}]: unknown field(s): {', '.join(sorted(unknown))}",
        )
    try:
        return ThermalStage(
            name=str(data["name"]),
            temperature_k=_finite(data["temperature_k"], "temperature_k"),
            carnot_fraction=_finite(
                data.get("carnot_fraction", 0.30), "carnot_fraction"
            ),
            overhead_override=(
                None
                if data.get("overhead") is None
                else _finite(data["overhead"], "overhead")
            ),
        )
    except (TypeError, ValueError) as exc:
        raise QueryError("invalid_cryostat", f"stages[{index}]: {exc}") from None


def _parse_link(data: Dict, index: int) -> InterStageLink:
    if not isinstance(data, dict):
        raise QueryError("invalid_cryostat", f"links[{index}] must be an object")
    missing = {"kind", "hot_stage", "cold_stage"} - set(data)
    if missing:
        raise QueryError(
            "invalid_cryostat",
            f"links[{index}] needs {', '.join(sorted(missing))}",
        )
    kind = str(data["kind"])
    if kind not in LINK_KINDS:
        raise QueryError(
            "invalid_cryostat",
            f"links[{index}]: kind must be one of "
            f"{', '.join(sorted(LINK_KINDS))}, got {kind!r}",
        )
    explicit = {"conducted_w", "dissipated_w", "hot_side_w"} & set(data)
    try:
        if explicit:
            # Explicit heatload form: the caller prices the wattage.
            unknown = set(data) - _LINK_EXPLICIT_FIELDS
            if unknown or "lanes" in data:
                bad = sorted(unknown | ({"lanes"} & set(data)))
                raise QueryError(
                    "invalid_cryostat",
                    f"links[{index}]: field(s) {', '.join(bad)} do not "
                    "belong in an explicit-wattage link "
                    "(lanes and watts are mutually exclusive)",
                )
            return InterStageLink(
                name=str(data.get("name", f"link{index}")),
                kind=kind,
                hot_stage=str(data["hot_stage"]),
                cold_stage=str(data["cold_stage"]),
                conducted_w=_finite(data.get("conducted_w", 0.0), "conducted_w"),
                dissipated_w=_finite(data.get("dissipated_w", 0.0), "dissipated_w"),
                hot_side_w=_finite(data.get("hot_side_w", 0.0), "hot_side_w"),
                latency_ns=_finite(data.get("latency_ns", 0.0), "latency_ns"),
                bandwidth_gbps=_finite(
                    data.get("bandwidth_gbps", 0.0), "bandwidth_gbps"
                ),
            )
        # Reference-card form: per-lane constants from the thermal layer.
        unknown = set(data) - _LINK_CARD_FIELDS
        if unknown:
            raise QueryError(
                "invalid_cryostat",
                f"links[{index}]: unknown field(s): "
                f"{', '.join(sorted(unknown))}",
            )
        lanes = data.get("lanes", 1)
        if isinstance(lanes, bool) or not isinstance(lanes, int):
            raise TypeError(f"lanes must be a JSON integer, got {lanes!r}")
        make = electrical_link if kind == "electrical" else optical_link
        return make(
            str(data["hot_stage"]),
            str(data["cold_stage"]),
            lanes=lanes,
            name=str(data.get("name", f"link{index}")),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a ``lanes`` integer too large to price as a float.
        raise QueryError("invalid_cryostat", f"links[{index}]: {exc}") from None


def _parse_placement(data: Dict, index: int) -> ComponentPlacement:
    if not isinstance(data, dict) or set(data) != _PLACEMENT_FIELDS:
        raise QueryError(
            "invalid_cryostat",
            f"placements[{index}] must be "
            "{component, stage, device_power_w}",
        )
    try:
        return ComponentPlacement(
            component=str(data["component"]),
            stage=str(data["stage"]),
            device_power_w=_finite(data["device_power_w"], "device_power_w"),
        )
    except (TypeError, ValueError) as exc:
        raise QueryError(
            "invalid_cryostat", f"placements[{index}]: {exc}"
        ) from None


def parse_cryostat_request(data: Dict) -> CryostatPlan:
    """Build a :class:`CryostatPlan` from a ``/v1/cryostat`` request body.

    ``stages`` defaults to the standard 300/77/4 K stack; ``links`` take
    either the reference-card form (``{kind, hot_stage, cold_stage,
    lanes}``, per-lane constants from the thermal layer) or explicit
    wattage (``conducted_w`` / ``dissipated_w`` / ``hot_side_w``);
    ``placements`` must place at least one component. Constructor
    rejections (duplicate stages, links running cold-to-hot, a component
    placed twice …) surface as structured :class:`QueryError`\\ s.
    """
    if not isinstance(data, dict):
        raise QueryError("invalid_request", "request body must be a JSON object")
    unknown = set(data) - {"card", "stages", "links", "placements"}
    if unknown:
        raise QueryError(
            "invalid_request",
            f"unknown field(s): {', '.join(sorted(unknown))}",
        )
    card_name = data.get("card", "freepdk45")
    _device_card(card_name)
    stages_data = data.get("stages")
    if stages_data is None:
        stages = standard_stack(include_4k=True)
    elif isinstance(stages_data, list) and stages_data:
        stages = tuple(
            _parse_stage(stage, i) for i, stage in enumerate(stages_data)
        )
    else:
        raise QueryError(
            "invalid_cryostat", "stages must be a non-empty array (or omitted)"
        )
    links_data = data.get("links", [])
    if not isinstance(links_data, list):
        raise QueryError("invalid_cryostat", "links must be an array")
    links = tuple(_parse_link(link, i) for i, link in enumerate(links_data))
    placements_data = data.get("placements")
    if not isinstance(placements_data, list) or not placements_data:
        raise QueryError(
            "invalid_cryostat",
            "placements must be a non-empty array of "
            "{component, stage, device_power_w}",
        )
    placements = tuple(
        _parse_placement(placement, i)
        for i, placement in enumerate(placements_data)
    )
    try:
        cryostat = Cryostat(stages, links=links, placements=placements)
    except ValueError as exc:
        raise QueryError("invalid_cryostat", str(exc)) from None
    return CryostatPlan(cryostat=cryostat, card_name=card_name)


@dataclass
class _ServiceCounters:
    """Request/outcome tallies (mutated under the service lock)."""

    point_queries: int = 0
    point_errors: int = 0
    scalar_fallbacks: int = 0
    grid_queries: int = 0
    ipc_queries: int = 0
    cryostat_queries: int = 0
    guard_counts: Counter = field(default_factory=Counter)


class ModelService:
    """The serve layer's single shared model stack.

    Owns the warm :class:`~repro.tech.context.TechContext` (capped at
    :attr:`CACHE_ENTRIES`: a long-running process must not grow its memo
    store without bound), the :class:`~repro.tech.wire.CryoWireModel`
    and the per-configuration
    :class:`~repro.system.multicore.MulticoreSystem` instances.

    Thread-safety: the tech context locks internally; everything else
    this class mutates sits behind ``self._lock``. Model evaluation is
    expected to run on the app's model executor thread, but nothing
    here assumes a particular caller thread.
    """

    #: LRU cap on the warm TechContext memo store.
    CACHE_ENTRIES = 4096

    def __init__(self) -> None:
        self.context = TechContext(max_entries=self.CACHE_ENTRIES)
        self.wire_model = CryoWireModel()
        self._systems: Dict[str, MulticoreSystem] = {}
        self._lock = threading.Lock()
        self._counters = _ServiceCounters()

    # ------------------------------------------------------------------
    # point queries (the micro-batcher's evaluate hook)
    # ------------------------------------------------------------------
    def evaluate_points(self, queries: Sequence[PointQuery]) -> List[Dict]:
        """Evaluate a coalesced batch of point queries.

        Returns one payload per query, in order: ``{"ok": True, ...}``
        or ``{"ok": False, "error": {...}}`` — a per-point verdict, so
        the transport can answer each coalesced request independently.
        """
        with self._lock:
            self._counters.point_queries += len(queries)
        results: List[Optional[Dict]] = [None] * len(queries)
        screened: List[int] = []
        for i, query in enumerate(queries):
            findings = self._screen(query.op)
            errors = [f for f in findings if f["severity"] == ERROR]
            if errors:
                results[i] = {
                    "ok": False,
                    "error": {
                        "code": "invalid_operating_point",
                        "message": errors[0]["message"],
                        "warnings": findings,
                    },
                }
            elif query.op.temperature_k < T_MODEL_MIN:
                # Deep-cryogenic points (the guard layer's [2, 60) K
                # warning tier) are valid *thermal* stages but below the
                # silicon device models' calibration floor; answer with
                # a structured verdict instead of letting the point
                # poison the coalesced batch into the per-point retry.
                results[i] = {
                    "ok": False,
                    "error": {
                        "code": "model_domain_error",
                        "message": (
                            f"temperature {query.op.temperature_k:g} K is "
                            f"below the {T_MODEL_MIN:g} K device-model "
                            "calibration floor; silicon metrics are "
                            "unavailable there — price the stage through "
                            "POST /v1/cryostat instead"
                        ),
                        "warnings": findings,
                    },
                }
            else:
                screened.append(i)
        by_card: Dict[str, List[int]] = {}
        for i in screened:
            by_card.setdefault(queries[i].card_name, []).append(i)
        for card_name, indices in by_card.items():
            group = [queries[i] for i in indices]
            try:
                payloads = self._evaluate_card_group(card_name, group)
            except ValueError:
                # One poisoned point (e.g. card-resolved overdrive below
                # the validity floor) fails the whole vectorized call;
                # retry the group one point at a time so only the
                # offending queries error. Each retry is the same batch
                # kernel at length 1, so the numbers and the guard tally
                # are what the point would get alone.
                with self._lock:
                    self._counters.scalar_fallbacks += 1
                payloads = [self._evaluate_alone(card_name, q) for q in group]
            for i, payload in zip(indices, payloads):
                results[i] = payload
        n_errors = sum(1 for r in results if r is not None and not r["ok"])
        with self._lock:
            self._counters.point_errors += n_errors
        return [r for r in results if r is not None]

    def _screen(self, op: OperatingPoint, tally: bool = True) -> List[Dict]:
        """Domain findings for one point, tallied into the service stats.

        Uses a fresh (non-ambient) guard context so concurrently served
        requests never see each other's warnings. ``tally=False`` for
        re-serializations of an already-counted point (response
        assembly), so the stats count each query's findings once.
        """
        guards = GuardContext()
        validate_operating_point(op, site="serve.query", guards=guards)
        if tally:
            self._absorb(guards)
        return guards.to_dicts()

    def _absorb(self, guards: GuardContext) -> None:
        with self._lock:
            self._counters.guard_counts.update(
                {k: v for k, v in guards.counts().items() if v}
            )

    def _evaluate_card_group(
        self, card_name: str, group: Sequence[PointQuery]
    ) -> List[Dict]:
        """Vectorized evaluation of same-card queries (may raise)."""
        mosfet = self._mosfet(card_name)
        batch = OperatingPointBatch.from_points([q.op for q in group])
        with use_guards(GuardContext()) as guards:
            gate_delay = mosfet.gate_delay_factor_batch(batch)
            leakage = mosfet.leakage_factor_batch(batch)
            vth_eff = mosfet.effective_vth_batch(batch)
            wire_payloads = self._evaluate_wires_batch(batch, group)
        self._absorb(guards)
        payloads = []
        for i, query in enumerate(group):
            payloads.append(
                self._point_payload(
                    query,
                    gate_delay_factor=float(gate_delay[i]),
                    leakage_factor=float(leakage[i]),
                    effective_vth_v=float(vth_eff[i]),
                    wire=wire_payloads[i],
                )
            )
        return payloads

    def _evaluate_wires_batch(
        self, batch: OperatingPointBatch, group: Sequence[PointQuery]
    ) -> List[Optional[Dict]]:
        """Wire metrics for the queries that asked for them, per layer."""
        wires: List[Optional[Dict]] = [None] * len(group)
        by_layer: Dict[str, List[int]] = {}
        for i, query in enumerate(group):
            if query.wire is not None:
                by_layer.setdefault(query.wire.layer, []).append(i)
        for layer, indices in by_layer.items():
            optimizer = self.wire_model.optimizer(layer)
            lengths = [group[i].wire.length_um for i in indices]
            design = optimizer.optimize_batch(lengths, batch[indices])
            for j, i in enumerate(indices):
                wires[i] = self._wire_payload(group[i].wire, design[j])
        return wires

    def _evaluate_alone(self, card_name: str, query: PointQuery) -> Dict:
        """One query as a length-1 batch; a domain error is its verdict."""
        try:
            return self._evaluate_card_group(card_name, [query])[0]
        except ValueError as exc:
            return {
                "ok": False,
                "error": {
                    "code": "model_domain_error",
                    "message": str(exc),
                    "warnings": self._screen(query.op, tally=False),
                },
            }

    def _point_payload(
        self,
        query: PointQuery,
        gate_delay_factor: float,
        leakage_factor: float,
        effective_vth_v: float,
        wire: Optional[Dict],
    ) -> Dict:
        return {
            "ok": True,
            "card": query.card_name,
            "operating_point": _op_payload(query.op),
            "metrics": {
                "gate_delay_factor": gate_delay_factor,
                "delay_speedup": 1.0 / gate_delay_factor,
                "leakage_factor": leakage_factor,
                "effective_vth_v": effective_vth_v,
                "is_cryogenic": query.op.is_cryogenic,
            },
            "wire": wire,
            "warnings": self._screen(query.op, tally=False),
        }

    @staticmethod
    def _wire_payload(spec: WireSpec, design) -> Dict:
        return {
            "layer": spec.layer,
            "length_um": spec.length_um,
            "delay_ns": float(design.delay_ns),
            "n_repeaters": int(design.n_repeaters),
            "repeater_size": float(design.repeater_size),
        }

    def _mosfet(self, card_name: str) -> CryoMOSFET:
        return cryo_mosfet(_device_card(card_name))

    # ------------------------------------------------------------------
    # grid queries
    # ------------------------------------------------------------------
    def evaluate_grid(self, data: Dict) -> Dict:
        """Evaluate a dense grid in one vectorized pass.

        The request carries either aligned columns (``mode="aligned"``,
        the default) or axes to take the Cartesian product of
        (``mode="product"``). The response carries the resolved point
        columns plus one metric array per kernel.
        """
        if not isinstance(data, dict):
            raise QueryError("invalid_request", "request body must be a JSON object")
        unknown = set(data) - {"card", "mode", "temperature_k", "vdd_v", "vth_v"}
        if unknown:
            raise QueryError(
                "invalid_request",
                f"unknown field(s): {', '.join(sorted(unknown))}",
            )
        card_name = data.get("card", "freepdk45")
        mosfet = self._mosfet(card_name)
        mode = data.get("mode", "aligned")
        if mode not in ("aligned", "product"):
            raise QueryError("invalid_request", "mode must be 'aligned' or 'product'")
        if "temperature_k" not in data:
            raise QueryError("invalid_request", "temperature_k is required")
        try:
            temperatures = [
                _finite(t, "temperature_k") for t in _as_list(data["temperature_k"])
            ]
            vdds, vths = (
                [
                    None if v is None else _finite(v, field)
                    for v in _as_optional_list(data.get(field))
                ]
                for field in ("vdd_v", "vth_v")
            )
            if mode == "product":
                batch = OperatingPointBatch.product(temperatures, vdds, vths)
            else:
                batch = OperatingPointBatch.from_grid(temperatures, vdds, vths)
        except (TypeError, ValueError) as exc:
            raise QueryError("invalid_grid", str(exc)) from None
        guards = GuardContext()
        findings = validate_operating_point_batch(
            batch, site="serve.grid", guards=guards
        )
        self._absorb(guards)
        if any(f.severity == ERROR for f in findings):
            first = next(f for f in findings if f.severity == ERROR)
            raise QueryError(
                "invalid_grid", first.message, warnings=guards.to_dicts()
            )
        with self._lock:
            self._counters.grid_queries += 1
        try:
            with use_guards(GuardContext()) as compute_guards:
                gate_delay = mosfet.gate_delay_factor_batch(batch)
                leakage = mosfet.leakage_factor_batch(batch)
                vth_eff = mosfet.effective_vth_batch(batch)
        except ValueError as exc:
            raise QueryError(
                "model_domain_error", str(exc), warnings=guards.to_dicts()
            ) from None
        self._absorb(compute_guards)
        return {
            "card": card_name,
            "n": len(batch),
            "points": batch.to_columns(),
            "metrics": {
                "gate_delay_factor": [float(x) for x in gate_delay],
                "delay_speedup": [float(1.0 / x) for x in gate_delay],
                "leakage_factor": [float(x) for x in leakage],
                "effective_vth_v": [float(x) for x in vth_eff],
            },
            "warnings": guards.to_dicts(),
        }

    # ------------------------------------------------------------------
    # system-level (IPC) queries
    # ------------------------------------------------------------------
    def evaluate_ipc(self, data: Dict) -> Dict:
        """Evaluate one workload on one named Table 4 system."""
        if not isinstance(data, dict):
            raise QueryError("invalid_request", "request body must be a JSON object")
        unknown = set(data) - {"system", "workload"}
        if unknown:
            raise QueryError(
                "invalid_request",
                f"unknown field(s): {', '.join(sorted(unknown))}",
            )
        system_name = data.get("system")
        workload_name = data.get("workload")
        if system_name not in SERVED_SYSTEMS:
            raise QueryError(
                "unknown_system",
                f"unknown system {system_name!r}; "
                f"available: {', '.join(sorted(SERVED_SYSTEMS))}",
            )
        try:
            profile = workload_by_name(str(workload_name))
        except KeyError as exc:
            raise QueryError("unknown_workload", str(exc.args[0])) from None
        with self._lock:
            self._counters.ipc_queries += 1
            system = self._systems.get(system_name)
            if system is None:
                system = MulticoreSystem(SERVED_SYSTEMS[system_name])
                self._systems[system_name] = system
        with use_guards(GuardContext()) as guards:
            result = system.evaluate(profile)
        self._absorb(guards)
        return self._ipc_payload(system_name, result, guards.to_dicts())

    @staticmethod
    def _ipc_payload(
        system_slug: str, result: WorkloadResult, warnings: List[Dict]
    ) -> Dict:
        return {
            "system": system_slug,
            "system_name": result.system_name,
            "workload": result.workload_name,
            "ipc": result.ipc,
            "frequency_ghz": result.frequency_ghz,
            "cpi_stack": {
                name: getattr(result.cpi_stack, name)
                for name in (
                    "core",
                    "branch",
                    "private_cache",
                    "noc",
                    "shared_cache",
                    "dram",
                    "sync",
                )
            },
            "convergence": {
                "converged": result.convergence.converged,
                "residual": result.convergence.residual,
            },
            "warnings": warnings,
        }

    # ------------------------------------------------------------------
    # cryostat queries
    # ------------------------------------------------------------------
    def evaluate_cryostat(self, plan: CryostatPlan) -> Dict:
        """Price one cryostat plan: the heat ledger and the TCO bill.

        Pure thermal accounting — per-stage silicon metrics are layered
        on by the transport, which routes each in-domain stage through
        the micro-batched point path (so concurrent cryostat requests
        coalesce with ordinary ``/v1/query`` traffic).
        """
        with self._lock:
            self._counters.cryostat_queries += 1
        cryostat = plan.cryostat
        ledger = cryostat.ledger()
        return {
            "card": plan.card_name,
            "ledger": ledger.to_dict(),
            "tco_w": cryostat_tco_w(cryostat),
            "links": [
                {
                    "name": link.name,
                    "kind": link.kind,
                    "hot_stage": link.hot_stage,
                    "cold_stage": link.cold_stage,
                    "cold_heatload_w": link.cold_heatload_w,
                    "hot_side_w": link.hot_side_w,
                }
                for link in cryostat.links
            ],
            "placements": [
                {
                    "component": placement.component,
                    "stage": placement.stage,
                    "device_power_w": placement.device_power_w,
                }
                for placement in cryostat.placements
            ],
        }

    def stage_point_queries(self, plan: CryostatPlan) -> Dict[str, PointQuery]:
        """Per-stage silicon point queries for the in-domain stages.

        Stages outside the device models' [60, 400] K calibration window
        are omitted — the ledger still prices them; they just have no
        silicon metrics to report.
        """
        queries: Dict[str, PointQuery] = {}
        for stage in plan.cryostat.stages:
            if T_MODEL_MIN <= stage.temperature_k <= T_MODEL_MAX:
                queries[stage.name] = PointQuery(
                    op=OperatingPoint.at(stage.temperature_k, name=stage.name),
                    card_name=plan.card_name,
                )
        return queries

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe_cards(self) -> Dict:
        return {
            "cards": {
                name: {
                    "vdd_nominal_v": card.vdd_nominal_v,
                    "vth_nominal_v": card.vth_nominal_v,
                    "drive_speedup_77": card.drive_speedup_77,
                    "vth_shift_77": card.vth_shift_77,
                }
                for name, card in sorted(DEVICE_CARDS.items())
            },
            "wire_layers": sorted(self.wire_model.stack.layers),
            "systems": {
                slug: config.name for slug, config in sorted(SERVED_SYSTEMS.items())
            },
        }

    def stats(self) -> Dict:
        """Service-level statistics (merged into ``GET /stats``)."""
        cache = self.context.stats()
        with self._lock:
            counters = self._counters
            payload = {
                "requests": {
                    "point_queries": counters.point_queries,
                    "point_errors": counters.point_errors,
                    "scalar_fallbacks": counters.scalar_fallbacks,
                    "grid_queries": counters.grid_queries,
                    "ipc_queries": counters.ipc_queries,
                    "cryostat_queries": counters.cryostat_queries,
                },
                "guards": dict(counters.guard_counts),
            }
        payload["tech_context"] = {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hit_rate,
            "entries": cache.entries,
            "evictions": cache.evictions,
            "max_entries": cache.max_entries,
        }
        return payload


def _as_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _as_optional_list(value) -> list:
    if value is None:
        return [None]
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]
