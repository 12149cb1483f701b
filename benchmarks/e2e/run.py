"""End-to-end benchmark: user workloads, host-time metrics, per-layer self time.

Run from the repository root (no install or PYTHONPATH needed)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 42]
        [--repeats 5] [--seconds 0] [--trace {0,1}] [--output PATH]

Every run of a workload is a fresh child process (``child.py``). Children
run one at a time, so at most one process is busy. Untraced children are
repeated -- at least ``--repeats`` of them and until ``--seconds`` have
passed -- and give the end-to-end metrics as medians. One separate
traced child per workload gives the per-layer metrics. ``--trace 0``
runs only the untraced children, ``--trace 1`` one untraced and one
traced child; by default both.

Every output is checked (see ``workloads.py``); a run whose checks fail
or whose result digest differs from the workload's first run counts as
failed. The report prints every metric by name with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``; names carry a ``workload:`` prefix when several
workloads ran). The program failing to start exits non-zero without a
result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from hooks import LAYERS, layer_metrics, layer_self_seconds
from stats import spread, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
CHILD = HERE / "child.py"
#: Scratch space inside the checkout (the study's result cache).
WORK_ROOT = HERE / ".work"
CHILD_TIMEOUT_S = 150

#: The child record field behind each end-to-end metric.
E2E_FIELDS = ("wall_s", "setup_s", "tasks_per_s", "peak_rss_mb")


class ChildError(RuntimeError):
    """A child process crashed, timed out or could not start the program."""


def _child_env() -> Dict[str, str]:
    # The program's own REPRO_* switches (observability, sweep pool and
    # cache) would change what a run does.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Children:
    """Starts child processes one at a time and reads their records."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self._ids = itertools.count()

    def __call__(self, *args: str) -> dict:
        out = self.work / f"child-{next(self._ids)}.json"
        command = [sys.executable, str(CHILD), *args, "--out", str(out)]
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=_child_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise ChildError(f"child timed out after {CHILD_TIMEOUT_S}s: {args}")
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise ChildError(f"child exited {proc.returncode}: {args}\n{tail}")
        return json.loads(out.read_text())

    def run(self, *args: str) -> dict:
        """One workload run with its own scratch directory."""
        scratch = self.work / f"scratch-{next(self._ids)}"
        return self(*args, "--work-dir", str(scratch))


def measure(name: str, args, children: Children) -> dict:
    """All runs of one workload, summarized."""
    common = ["--workload", name, "--seed", str(args.seed)]
    inputs = children(*common, "--resolve")
    run = [*common, "--inputs", json.dumps(inputs)]
    untraced: List[dict] = []
    traced: Optional[dict] = None
    started = time.monotonic()
    if args.trace != 1:
        while (
            len(untraced) < args.repeats or time.monotonic() - started < args.seconds
        ):
            untraced.append(children.run(*run))
    if args.trace != 0:
        if not untraced:
            untraced.append(children.run(*run))
        traced = children.run(*run, "--traced")

    runs = untraced + ([traced] if traced else [])
    first = runs[0]["digest"]
    failed = sum(
        1
        for r in runs
        if not all(r["checks"].values())
        or r["pinned"] == "mismatch"
        or r["digest"] != first
    )
    end_to_end = {key: summarize([r[key] for r in untraced]) for key in E2E_FIELDS}
    end_to_end["failed_share"] = summarize([failed / len(runs)])
    measured = {
        "inputs": inputs,
        "attempted": len(runs),
        "failed": failed,
        "digest": first,
        "pinned": runs[0]["pinned"],
        "checks": {
            check: sum(1 for r in runs if r["checks"].get(check))
            for check in runs[0]["checks"]
        },
        "end_to_end": end_to_end,
    }
    if traced is not None:
        untraced_wall = end_to_end["wall_s"]["median"]
        trace = traced["trace"]
        seconds = layer_self_seconds(trace, untraced_wall)
        per_layer = layer_metrics(trace, seconds, traced["sim"])
        per_layer["trace.overhead_x"] = {
            "value": traced["wall_s"] / untraced_wall,
            "unit": "x",
        }
        measured["per_layer"] = per_layer
        measured["trace"] = trace
    return measured


# -- report ------------------------------------------------------------------


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"
    return str(value)


def _table(header: List[str], rows: List[list]) -> None:
    cells = [[_cell(v) for v in row] for row in [header] + rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    for row in cells:
        first, *rest = zip(row, widths)
        line = [first[0].ljust(first[1])] + [v.rjust(w) for v, w in rest]
        print("  " + "  ".join(line))


def report(name: str, m: dict, bench: dict, seed: int) -> None:
    """Print one workload's checks, metrics and per-layer table."""
    print(f"\n== {name} (seed {seed}; trace seeds {m['inputs']['seeds']}) ==")
    print(
        f"digest {m['digest'][:16]} ({m['pinned']}); "
        f"attempted {m['attempted']}, failed {m['failed']}"
    )
    for check, passed in m["checks"].items():
        print(f"  check {check}: {passed}/{m['attempted']}")
    meta = {metric["name"]: metric for metric in bench["end_to_end"]}
    meta["failed_share"] = {"unit": "ratio", "better": "lower", "bound": 0.0}
    rows = []
    for key, s in m["end_to_end"].items():
        bound = f"{meta[key]['better']} +{100 * meta[key]['bound']:g}%"
        row = [key, meta[key]["unit"], s["median"], s["q1"], s["q3"], s["min"]]
        rows.append(row + [s["max"], s["n"], 100 * spread(s), bound])
    print("end-to-end (host time, untraced runs):")
    header = ["metric", "unit", "median", "q1", "q3", "min", "max", "n"]
    _table(header + ["spread%", "bound"], rows)
    if "per_layer" not in m:
        return
    layer = m["per_layer"]
    trace = m["trace"]
    calls = dict.fromkeys(LAYERS, 0)
    for hook in trace["hooks"].values():
        calls[hook["layer"]] += hook["calls"]
    print(
        f"per-layer (one traced run, {trace['wall_s']:.3f}s = "
        f"{layer['trace.overhead_x']['value']:.2f}x the untraced wall; "
        f"self seconds exclude the tracer's cost):"
    )
    rows = []
    for key in LAYERS:
        self_s, share = layer[f"{key}.self_s"], layer[f"{key}.share"]
        rows.append([key, self_s["value"], share["value"], calls[key]])
    _table(["layer", "self_s", "share%", "calls"], rows)
    print("per-layer counts and ratios (simulated work, tracer hook counts):")
    rows = []
    for key, v in layer.items():
        if not key.endswith((".self_s", ".share")):
            rows.append([key, v["value"], v["unit"]])
    _table(["metric", "value", "unit"], rows)
    print(f"unhooked: {', '.join(trace['unhooked']) or '(none)'}")


def final_line(measured: Dict[str, dict], bench: dict, trace: Optional[int]) -> dict:
    """The result object: BENCHMARK.json's end-to-end metrics (medians)
    unless ``trace`` is 1, its per-layer metrics unless ``trace`` is 0."""
    units = {metric["name"]: metric["unit"] for metric in bench["end_to_end"]}
    metrics = {}
    for workload, m in measured.items():
        prefix = f"{workload}:" if len(measured) > 1 else ""
        if trace != 1:
            for name, unit in units.items():
                value = m["end_to_end"][name]["median"]
                metrics[prefix + name] = {"value": value, "unit": unit}
        if trace != 0:
            for metric in bench["per_layer"]:
                metrics[prefix + metric["name"]] = m["per_layer"][metric["name"]]
    failed = sum(m["failed"] for m in measured.values())
    return {
        "correct": failed == 0,
        "attempted": sum(m["attempted"] for m in measured.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=names,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=42, help="input seed (42)")
    parser.add_argument(
        "--repeats", type=int, default=5, help="minimum untraced runs (5)"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="start untraced runs until this many seconds have passed",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: untraced runs only; 1: one untraced and one traced run",
    )
    parser.add_argument("--output", help="write every run and summary here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    children = Children(work)
    try:
        measured = {
            name: measure(name, args, children) for name in args.workload or names
        }
    except ChildError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    for name, m in measured.items():
        report(name, m, bench, args.seed)
    if args.output:
        document = {"seed": args.seed, "workloads": measured}
        Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(final_line(measured, bench, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
