"""Multi-stage cryostat modeling: stages, inter-stage links, heat ledger.

The paper's two-temperature world (300 K ambient, one 77 K cold plate,
Eq. 1/2) generalizes here to an ordered stack of :class:`ThermalStage`
objects connected by :class:`InterStageLink` signal paths, composed into
a :class:`Cryostat` that produces a per-stage heat ledger and a total
wall-plug bill. The per-stage cooling overhead comes from
:func:`repro.power.cooling.cooling_overhead` (measured anchors pinned —
77 K stays at the Stinger 9.65 — Carnot-derated elsewhere), and the
degenerate two-stage construction reproduces the historic
``(1 + CO) * P_dev`` arithmetic bit-identically (test-enforced).

Consumers: ``repro.power.tco`` evaluates its temperature sweep through
:meth:`Cryostat.two_stage`; the ``stage_assignment`` experiment sweeps
component placements over the standard 300/77/4 K stack;
``POST /v1/cryostat`` prices caller-supplied stacks over the serve
layer's micro-batched query path. The cryostat invariants (colder ⇒
higher CO, ledger conservation, moving-colder-never-cheaper) are
asserted by ``tests/test_thermal.py`` and ``tests/test_power.py``.
"""
