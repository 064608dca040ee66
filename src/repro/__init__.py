"""CryoWire reproduction: wire-driven microarchitecture models for cryogenic computing.

This package reproduces the systems and experiments of

    Min, Chung, Byun, Kim and Kim,
    "CryoWire: Wire-Driven Microarchitecture Designs for Cryogenic Computing",
    ASPLOS 2022.

Subpackages
-----------
``repro.tech``
    Cryogenic device substrate: wire resistivity vs. temperature, metal
    stack geometry, the cryo-MOSFET drive/leakage model and repeater
    insertion (the CC-Model device layer).
``repro.circuits``
    Distributed-RC circuit solver used as the in-repo stand-in for Hspice.
``repro.pipeline``
    Stage-wise critical-path model of a BOOM/Skylake-class pipeline with a
    floorplan-driven inter-unit wire model.
``repro.core``
    The paper's first contribution: the frontend superpipelining
    methodology and the CryoSP design-derivation chain (Table 3).
``repro.noc``
    The paper's second contribution plus its substrate: NoC topologies,
    a cycle-accurate flit simulator, the CryoBus H-tree bus with dynamic
    link connection, analytic latency models and the wire-link optimiser.
``repro.memory``
    Cache/DRAM latency models and coherence protocol engines.
``repro.power``
    Core (McPAT-like) and NoC (Orion-like) power models plus cryogenic
    cooling cost.
``repro.system``
    Analytic multicore system simulator (CPI stacks, execution time).
``repro.workloads``
    PARSEC / SPEC / CloudSuite workload profiles and trace synthesis.
``repro.validation``
    Synthetic measurement rigs and model-vs-measurement validation.
``repro.experiments``
    One module per paper figure/table; each returns structured results.

Import each name from the module that defines it
(``from repro.noc.topology import Mesh``). No package ``__init__``
imports anything, so importing a module loads only what it needs.
"""

__version__ = "1.0.0"
