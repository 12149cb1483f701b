"""Uniform paper-vs-measured table formatting.

The CLI and every figure study's ``render`` print through
:func:`print_table`, so ``python -m repro run`` and the paper-shape
tests print identical tables.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(title: str, header: Sequence, rows: Iterable[Sequence]) -> str:
    """Render a title + aligned columns; floats are shown with 2 decimals.

    Each column is as wide as its widest header or cell (at least 12).
    """
    cells = [
        [f"{v:.2f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(str(h)), 12) for h in header]
    for row in cells:
        for i, text in enumerate(row[: len(widths)]):
            widths[i] = max(widths[i], len(text))
    lines: List[str] = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in cells:
        lines.append("  ".join(text.ljust(w) for text, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(title: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Uniform table printer for paper-vs-measured output."""
    print(format_table(title, header, rows))
