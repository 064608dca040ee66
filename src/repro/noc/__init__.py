"""Network-on-chip substrate and the CryoBus contribution.

* :mod:`repro.noc.link` -- CACTI-NUCA-like wire-link model (hops/cycle at
  temperature), validated against the circuit solver (Fig. 10).
* :mod:`repro.noc.router` -- router frequency at (T, V): routers are
  transistor-bound, which is why they barely speed up at 77 K.
* :mod:`repro.noc.topology` -- Mesh / CMesh / Flattened Butterfly /
  linear shared bus / H-tree (Fig. 15, Fig. 19) and the 256-core hybrid.
* :mod:`repro.noc.arbiter` -- the matrix arbiter CryoBus uses.
* :mod:`repro.noc.bus` -- shared-bus and CryoBus designs, including the
  dynamic link connection mechanism (cross-link switches).
* :mod:`repro.noc.traffic` -- synthetic traffic patterns (uniform,
  transpose, hotspot, bit-reverse, burst).
* :mod:`repro.noc.measure` -- the shared offered/delivered/saturation
  accounting every latency engine reports through, plus the
  saturation-aware sweep helper.
* :mod:`repro.noc.simulator` -- cycle-accurate packet simulator (the
  repo's BookSim) for load-latency sweeps.
* :mod:`repro.noc.hybrid` -- the 256-core hybrid CryoBus (Fig. 26):
  four 64-core CryoBus clusters on a small global mesh.
* :mod:`repro.noc.latency` -- analytic zero-load + contention models used
  by the system simulator and cross-checked against the simulator.
"""
