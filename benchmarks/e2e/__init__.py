"""End-to-end benchmark of CryoWire: paper reproduction and served traffic.

Run ``python -m benchmarks.e2e`` from the repository root; see
``benchmarks/e2e/README.md``.
"""
