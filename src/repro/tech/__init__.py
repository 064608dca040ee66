"""Cryogenic device substrate (the CC-Model device layer).

This package models the two device populations whose temperature behaviour
drives every result in the paper:

* **wires** — copper interconnect whose resistivity falls steeply with
  temperature (:mod:`repro.tech.resistivity`, :mod:`repro.tech.metal`,
  :mod:`repro.tech.wire`), and
* **transistors** — MOSFETs whose drive current improves only mildly at a
  fixed operating point but dramatically once V_dd/V_th scaling (enabled by
  the collapse of leakage at 77 K) is applied (:mod:`repro.tech.mosfet`).

:mod:`repro.tech.repeater` combines both to optimally buffer long wires,
and :mod:`repro.tech.scaling` provides the ITRS-style node projection used
in model validation.
"""
