"""System-level evaluation: the five Table 4 designs on real workloads.

:mod:`repro.system.config` encodes Table 4; :mod:`repro.system.multicore`
is the gem5-substitute analytic multicore simulator producing CPI stacks
and execution times with a closed injection loop (slower systems inject
less NoC traffic, exactly like a full-system simulation would show).
"""
