"""Workload characterisations driving the performance models.

The paper evaluates with PARSEC 2.1 (multi-threaded, Figs. 3/17/23),
SPEC CPU2006/2017 rate-mode copies (Fig. 24), and CloudSuite (injection
ranges in Fig. 18). Running those suites needs a full-system simulator
and the original binaries; what the models actually consume is each
workload's *profile* -- miss rates, branch behaviour, synchronisation
intensity. This package encodes those profiles (literature-informed,
calibrated against the paper's published per-workload results) plus a
synthetic trace generator that expands a profile into concrete request
streams for the cycle-accurate NoC simulator. The ``quantum`` suite
extends the pack past the paper: the classical readout/pulse/decoder
kernels a 4 K-stage quantum controller runs (the cryostat scenarios'
coldest compute).
"""
