"""Memory substrate: caches, DRAM, coherence protocols, and the hierarchy.

Latency parameters follow Table 4: the 77 K memory system ("CryoCache"
SRAM caches and CLL-DRAM) is twice as fast on cache accesses and 3.8x
faster on DRAM than its 300 K counterpart. The coherence engines provide
both functional correctness (for the protocol property tests) and the
traversal-count accounting that prices directory indirection against
snooping broadcasts in the system model.
"""
