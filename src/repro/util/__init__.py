"""Shared utilities: deterministic RNG, table formatting, content
hashing, deterministic fault injection, and physics guardrails.

Import each from its own module (``repro.util.guards``,
``repro.util.rng``, ...). The package re-exports nothing, so a caller
that needs only hashing or guards does not load numpy through
``repro.util.rng``.
"""
