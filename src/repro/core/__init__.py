"""The paper's first contribution: wire-driven pipeline design at 77 K.

* :mod:`repro.core.superpipeline` -- the Section 4.4 methodology: pick the
  slowest un-pipelinable backend stage as the target latency, then split
  every pipelinable frontend stage that exceeds it.
* :mod:`repro.core.ipc` -- analytic core-IPC model pricing the extra
  stages (deeper restart penalty) and the CryoCore sizing.
* :mod:`repro.core.voltage` -- V_dd/V_th optimisation under a total-power
  envelope (the 'same method applied to CHP-core').
* :mod:`repro.core.cryosp` -- the full Table 3 derivation chain:
  300 K baseline -> 77 K superpipeline -> + CryoCore sizing -> CryoSP.
"""
