"""Stage-wise critical-path model of a BOOM/Skylake-class pipeline.

This is the ``cryo-pipeline`` box of CC-Model extended with the paper's
inter-unit wire model (Section 3.1.2): every pipeline stage is a
(transistor delay, wire spec) pair, the wire spec is resolved against the
floorplan-derived wire length, and both components are re-evaluated at
any (temperature, V_dd, V_th) operating point through the device models.
"""
