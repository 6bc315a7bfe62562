"""Deterministic discrete-event simulator for TCP congestion control over
multi-hop wireless mesh chains."""

__version__ = "0.1.0"
