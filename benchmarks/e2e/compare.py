"""Compare two ``run.py --output`` documents metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians with
their quartiles, the change of NEW against BASE as a share of BASE's
median (positive is worse), the metric's bound from BENCHMARK.json, and
a verdict: ``ok``, ``worse`` (worse by more than the bound) or
``unresolved`` (a side's quartile spread is wider than the bound, and
NEW does not beat BASE on every run). ``failed_share`` may not rise at
all. Exits 0 when every verdict is ``ok``, else 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import change, verdict

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def compare(base: dict, new: dict, end_to_end: list) -> list:
    """Rows of (workload, metric, base summary, new summary, change,
    bound, verdict) for every workload both documents measured."""
    rows = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for metric in end_to_end:
            name = metric["name"]
            bs, ns = b["end_to_end"][name], n["end_to_end"][name]
            rows.append(
                (
                    workload,
                    name,
                    bs,
                    ns,
                    change(bs, ns, metric["better"]),
                    metric["bound"],
                    verdict(bs, ns, metric["better"], metric["bound"]),
                )
            )
        bs, ns = b["end_to_end"]["failed_share"], n["end_to_end"]["failed_share"]
        worse = ns["median"] > bs["median"]
        rows.append(
            (workload, "failed_share", bs, ns, ns["median"] - bs["median"], 0.0,
             "worse" if worse else "ok")
        )
    return rows


def _summary(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(base, new, end_to_end)
    header = ("workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
              "change", "bound", "verdict")
    table = [header] + [
        (w, m, _summary(b), _summary(n), f"{100 * c:+.1f}%", f"{100 * bound:g}%", v)
        for w, m, b, n, c, bound, v in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0 if all(row[-1] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
