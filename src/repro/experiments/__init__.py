"""Experiment drivers: one module per paper figure/table.

Every driver is a function ``run(**kwargs) -> ExperimentResult``; the
catalog table in :mod:`repro.experiments.registry` maps experiment ids
(``fig23``, ``table3``, ...) to those functions and imports a driver's
module only when its experiment computes. The CLI (``cryowire``) prints
the same rows/series the paper reports. The execution engine
(:mod:`repro.experiments.engine`) adds parallel fan-out and
content-addressed result caching on top of the same registry.
"""
