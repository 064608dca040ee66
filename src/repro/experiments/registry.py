"""Experiment registry: one catalog table, id -> driver.

Each row of :data:`CATALOG` names an experiment, the module in this
package that drives it, the driver function and its cost::

    ("fig23", "fig23", "run", "fast"),

The row becomes an :class:`ExperimentSpec`. Its ``runner`` imports the
driver module on first use, so listing experiments, scheduling them and
serving them from the result cache import no model code (nor numpy);
only an experiment that computes loads its driver. The execution
engine runs ``cost="slow"`` experiments first and keys its cache on the
driver module's source digest, which ``source_file`` finds without
importing the module.

``EXPERIMENTS``, ``get_experiment`` and ``run_experiment`` are views over
the spec table: ``EXPERIMENTS`` behaves like a read-only ``{id: runner}``
dict.
"""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional

from repro.experiments.base import ExperimentResult
from repro.util.guards import GuardContext, get_guards, use_guards

Runner = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: where its driver lives, plus its scheduling cost."""

    experiment_id: str
    module: str  # dotted path of the driver module
    function: str  # the driver, ``run(**kwargs) -> ExperimentResult``
    cost: str = "fast"  # "fast" | "slow"; slow experiments are scheduled first

    def __post_init__(self) -> None:
        if self.cost not in ("fast", "slow"):
            raise ValueError(
                f"{self.experiment_id}: cost must be 'fast' or 'slow', "
                f"got {self.cost!r}"
            )

    @property
    def runner(self) -> Runner:
        """The driver function (imports its module on first use)."""
        return getattr(importlib.import_module(self.module), self.function)

    @property
    def source_file(self) -> Optional[str]:
        """Path of the driver module's source, found without importing it."""
        found = importlib.util.find_spec(self.module)
        return found.origin if found is not None else None


#: ``(experiment id, driver module in this package, function, cost)``.
CATALOG = (
    ("ablation_cryobus", "ablations", "run_cryobus_ablation", "fast"),
    ("ablation_exposure", "ablations", "run_exposure_sensitivity", "slow"),
    ("ablation_interleaving", "ablations", "run_interleaving_sweep", "fast"),
    ("ablation_superpipeline", "ablations", "run_superpipeline_ablation", "fast"),
    ("ext_nodes", "ablations", "run_technology_outlook", "fast"),
    ("fig02", "fig02", "run", "fast"),
    ("fig03", "fig03", "run", "fast"),
    ("fig05", "fig05", "run", "fast"),
    ("fig09", "fig09", "run", "fast"),
    ("fig10", "fig10", "run", "fast"),
    ("fig12_14", "fig12_14", "run", "fast"),
    ("fig16", "fig16", "run", "fast"),
    ("fig17", "fig17", "run", "fast"),
    ("fig18", "fig18", "run", "slow"),
    ("fig20", "fig20", "run", "fast"),
    ("fig21", "fig21", "run", "slow"),
    ("fig22", "fig22", "run", "fast"),
    ("fig23", "fig23", "run", "fast"),
    ("fig24", "fig24", "run", "fast"),
    ("fig25", "fig25", "run", "slow"),
    ("fig26", "fig26", "run", "slow"),
    ("fig27", "fig27", "run", "fast"),
    ("robustness", "robustness", "run", "slow"),
    ("stage_assignment", "stage_assignment", "run", "fast"),
    ("table1", "table1", "run", "fast"),
    ("table3", "table3", "run", "fast"),
    ("table4", "table4", "run", "fast"),
)

_SPECS: Dict[str, ExperimentSpec] = {
    experiment_id: ExperimentSpec(
        experiment_id, f"{__package__}.{module}", function, cost
    )
    for experiment_id, module, function, cost in CATALOG
}


class _RegistryView(Mapping):
    """Live read-only ``{id: runner}`` view of the spec table.

    Iteration, membership and ``len`` read the table alone; ``[]``
    imports the driver module.
    """

    def __getitem__(self, experiment_id: str) -> Runner:
        return _SPECS[experiment_id].runner

    def __iter__(self) -> Iterator[str]:
        return iter(_SPECS)

    def __len__(self) -> int:
        return len(_SPECS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EXPERIMENTS({sorted(_SPECS)})"


EXPERIMENTS: Mapping[str, Runner] = _RegistryView()


def get_spec(experiment_id: str) -> ExperimentSpec:
    try:
        return _SPECS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(_SPECS))}"
        ) from None


def get_experiment(experiment_id: str) -> Runner:
    return get_spec(experiment_id).runner


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Serial, uncached execution — the thin wrapper existing callers use.

    The parallel/cached path lives in :mod:`repro.experiments.engine`.
    Like the engine, the driver is imported first and then runs in a
    *fresh* guard context (inheriting strictness from the ambient one),
    and the collected model-validity warnings are attached to the result
    — so this path and the engine return byte-identical results,
    warnings included.
    """
    runner = get_experiment(experiment_id)
    with use_guards(GuardContext(strict=get_guards().strict)) as guards:
        result = runner(**kwargs)
    result.warnings = [w.to_dict() for w in guards.warnings]
    return result
