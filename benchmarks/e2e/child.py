"""One benchmark child process: pick a workload's inputs, or run it once.

``run.py`` starts a fresh interpreter for every run, so each run pays
the program's imports and set-up the way a user's process does.

* ``--resolve``: write the workload's inputs for ``--seed`` (see
  ``workloads.pick_seeds``).
* otherwise: run the workload once on ``--inputs``. The clock starts
  before the program is imported. The only hook in an untraced run is
  :class:`EntryWatch` on the workload's entry point, which stops the
  set-up clock and, for the study, captures the sweep results for the
  checks. ``--traced`` also installs the :mod:`hooks` layer tracer.

Either way the child writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import time
from pathlib import Path


class EntryWatch:
    """One-call hook on ``module:Class.method``: the time of the first
    call, and with ``capture`` every call's (receiver, args, result)."""

    def __init__(self, module: str, qualname: str, capture: bool) -> None:
        class_name, self.attr = qualname.split(".")
        self.owner = getattr(importlib.import_module(module), class_name)
        self.original = vars(self.owner)[self.attr]
        self.capture = capture
        self.first_call = None
        self.calls: list = []

    def install(self) -> "EntryWatch":
        original = self.original

        def watched(obj, *args, **kwargs):
            if self.first_call is None:
                self.first_call = time.perf_counter()
            result = original(obj, *args, **kwargs)
            if self.capture:
                self.calls.append((obj, args, result))
            return result

        setattr(self.owner, self.attr, watched)
        return self

    def uninstall(self) -> None:
        setattr(self.owner, self.attr, self.original)


def resolve(args) -> dict:
    import workloads

    return workloads.WORKLOADS[args.workload].pick(args.seed)


def run_once(args, started: float) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    watch = EntryWatch(*workload.entry, capture=workload.capture).install()
    tracer = None
    calibration_s = 0.0
    if args.traced:
        import hooks

        before = time.perf_counter()
        overhead = hooks.calibrate_overhead()
        calibration_s = time.perf_counter() - before
        # Before any simulator is built: plane objects snapshot bound
        # methods at construction.
        tracer = hooks.LayerTracer().install()
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(work_dir=work_dir, captured=watch.calls)
        outcome = workload.run(json.loads(args.inputs), ctx)
        ended = time.perf_counter()
        # ru_maxrss is in KiB on Linux; read before the digests are built.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        watch.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    wall_s = ended - started - calibration_s
    setup_s = watch.first_call - started - calibration_s
    expected = workloads.PINNED.get(args.workload, {}).get(args.seed)
    if expected is None:
        pinned = "unpinned"
    else:
        pinned = "ok" if outcome.digest == expected else "mismatch"
    record = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "tasks_per_s": outcome.tasks / (wall_s - setup_s),
        "peak_rss_mb": peak_rss_mb,
        "digest": outcome.digest,
        "pinned": pinned,
        "checks": outcome.verify(),
    }
    if tracer is not None:
        record["trace"] = tracer.report(wall_s, overhead)
        record["sim"] = outcome.sim_counts()
    return record


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--resolve", action="store_true")
    parser.add_argument("--inputs", help="JSON inputs from --resolve")
    parser.add_argument("--work-dir", help="scratch directory (removed after)")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    record = resolve(args) if args.resolve else run_once(args, started)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
