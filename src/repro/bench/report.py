"""Benchmark report formatting: the tables the harness prints."""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["print_table", "us"]


def us(ns: float) -> str:
    """Format nanoseconds as microseconds with paper-style precision."""
    return "%.2f us" % (ns / 1000.0)


def fmt(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100:
            return "%.0f" % value
        return "%.2f" % value
    return str(value)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Print an aligned ASCII table (one per reproduced figure/table)."""
    str_rows: List[List[str]] = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join("-" * w for w in widths)
    print()
    print("== %s" % title)
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print(line)
    for row in str_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
