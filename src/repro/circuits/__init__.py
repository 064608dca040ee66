"""Circuit-level simulation substrate (the repo's stand-in for Hspice).

The paper validates its analytical wire models against Hspice transient
simulations. This package provides the same capability from first
principles: a wire is discretised into an RC ladder, the step response is
solved exactly by eigendecomposition of the state matrix, and the 50 %
crossing time is the measured delay. Because the solver shares *no*
coefficients with the Elmore-based analytical models in
:mod:`repro.tech`, agreement between the two is a genuine validation.
"""
