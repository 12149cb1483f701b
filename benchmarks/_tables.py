"""Shared benchmark table formatting and machine-readable output.

The paper-vs-measured formatter lives in :mod:`repro.metrics.tables` so
the ``python -m repro`` CLI and these benchmarks print identical tables.
On top of it, :func:`report_table` mirrors every printed table into
``BENCH_<name>.json`` next to the repo root (override the directory with
``REPRO_BENCH_DIR``), a machine-readable copy of the figure tables for
external tooling. Speed is measured by the end-to-end benchmark in
``benchmarks/e2e/``, not here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence

from repro.metrics.tables import format_table, print_table

#: Bump when the BENCH_<name>.json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1


def bench_json_path(name: str) -> Path:
    """``BENCH_<name>.json`` in ``REPRO_BENCH_DIR`` (default: repo root)."""
    root = os.environ.get("REPRO_BENCH_DIR")
    base = Path(root) if root else Path(__file__).resolve().parent.parent
    return base / f"BENCH_{name}.json"


def _load_bench_doc(name: str) -> Dict[str, Any]:
    path = bench_json_path(name)
    if path.exists():
        try:
            doc = json.loads(path.read_text())
            if (
                isinstance(doc, dict)
                and doc.get("schema_version") == BENCH_SCHEMA_VERSION
            ):
                return doc
        except (OSError, ValueError):
            pass  # unreadable/stale document: start fresh
    return {
        "benchmark": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "tables": [],
    }


def record_table(
    name: str,
    title: str,
    header: Sequence,
    rows: Iterable[Sequence],
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Merge one table into ``BENCH_<name>.json`` (keyed by title)."""
    doc = _load_bench_doc(name)
    entry: Dict[str, Any] = {
        "title": title,
        "header": [str(h) for h in header],
        "rows": [list(row) for row in rows],
    }
    if extra:
        entry.update(extra)
    tables = doc.setdefault("tables", [])
    for i, existing in enumerate(tables):
        if existing.get("title") == title:
            tables[i] = entry
            break
    else:
        tables.append(entry)
    path = bench_json_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def report_table(
    name: str, title: str, header: Sequence, rows: Iterable[Sequence]
) -> None:
    """Print a paper-vs-measured table and mirror it into
    ``BENCH_<name>.json``."""
    rows = [list(row) for row in rows]
    print_table(title, header, rows)
    record_table(name, title, header, rows)


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_json_path",
    "format_table",
    "print_table",
    "record_table",
    "report_table",
]
