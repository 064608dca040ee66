"""Power models: core (McPAT-like), NoC (Orion-like) and cryogenic cooling.

All power figures are *relative* to a named reference design, matching
how the paper reports them (Table 3 normalises to the 300 K baseline
core; Fig. 22 to 300 K Mesh). The models keep McPAT/Orion's structure --
dynamic power scales with switched capacitance, V_dd^2, frequency and
activity; static power follows the cryo-MOSFET leakage -- and integrate
the cooling overhead of Eq. (1)/(2).
"""
