"""Benchmark harness: the open-loop load generator and report formatting."""

from .report import fmt, print_table, us

__all__ = [
    "print_table",
    "us",
]
