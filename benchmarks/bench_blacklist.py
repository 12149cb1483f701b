"""Blacklist-policy overhead benchmark: the eviction path must be free
when nothing is evicted.

Runs both simulator planes on the **no-straggler** regime with the
strike-driven blacklist policy armed. With no stragglers, no completion
is ever slower than the strike multiplier, so zero strikes are recorded
and zero machines are evicted — the only cost is the per-completion
observation hook. Events/sec should therefore sit on top of the
policy-off rows (printed as an on/off ratio), and a regression here
means an accidental O(machines) scan crept onto the completion path.

Results land in ``BENCH_blacklist.json`` (same schema as
``BENCH_scale.json``), which doubles as the committed baseline the CI
``perf-smoke`` job gates via ``benchmarks/check_regression.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_blacklist.py --quick
    PYTHONPATH=src python benchmarks/bench_blacklist.py --output fresh.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:  # allow plain `python benchmarks/...`
    sys.path.insert(0, str(_ROOT / "src"))
if str(_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(_ROOT / "benchmarks"))

from _tables import print_table, write_bench_json  # noqa: E402

#: (total_slots, num_jobs) points; the quick grid is what CI gates.
FULL_GRID: Sequence[Tuple[int, int]] = ((2000, 60), (10000, 120))
QUICK_GRID: Sequence[Tuple[int, int]] = ((2000, 40), (8000, 60))

PLANES = ("decentralized", "centralized")
POLICIES = ("off", "strikes")

PROBE_RATIO = 4.0
UTILIZATION = 0.6
TRACE_SEED = 42
RUN_SEED = 7


def _build_trace(total_slots: int, num_jobs: int):
    from repro.experiments.harness import WorkloadSpec, build_trace
    from repro.workload.generator import profile_by_name

    profile = profile_by_name("spark-facebook")
    spec = WorkloadSpec(
        profile=profile,
        num_jobs=num_jobs,
        utilization=UTILIZATION,
        total_slots=total_slots,
        seed=TRACE_SEED,
    )
    return profile, spec, build_trace(spec)


def _policy(name: str, num_machines: int):
    from repro import registry

    if name == "off":
        return None
    return registry.make_blacklist_policy(name, num_machines=num_machines)


def run_once_decentralized(
    total_slots: int, num_jobs: int, policy_name: str
) -> Dict[str, Any]:
    from repro import registry
    from repro.decentralized.config import DecentralizedConfig
    from repro.decentralized.simulator import DecentralizedSimulator
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import NoStragglerModel

    profile, _, trace = _build_trace(total_slots, num_jobs)
    defaults = registry.SYSTEMS.get("decentralized/hopper").factory()
    simulator = DecentralizedSimulator(
        num_workers=total_slots,
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=NoStragglerModel(),
        config=DecentralizedConfig(
            worker_policy=defaults.worker_policy,
            probe_ratio=PROBE_RATIO,
            epsilon=defaults.epsilon,
            default_beta=profile.beta,
        ),
        random_source=RandomSource(seed=RUN_SEED),
        name="hopper",
        blacklist_policy=_policy(policy_name, total_slots),
    )
    start = time.perf_counter()
    simulator.run()
    wall = time.perf_counter() - start
    events = simulator.sim.events_processed
    evicted = (
        0
        if simulator.blacklist_policy is None
        else len(simulator.blacklist_policy.evictions)
    )
    return {
        "system": f"decentralized+{policy_name}",
        "total_slots": total_slots,
        "num_jobs": num_jobs,
        "probe_ratio": PROBE_RATIO,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "evictions": evicted,
    }


def run_once_centralized(
    total_slots: int, num_jobs: int, policy_name: str
) -> Dict[str, Any]:
    from repro import registry
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import NoStragglerModel

    profile, _, trace = _build_trace(total_slots, num_jobs)
    policy = registry.SYSTEMS.get("centralized/hopper").factory(epsilon=0.1)
    slots_per_machine = 4
    num_machines = max(1, total_slots // slots_per_machine)
    simulator = CentralizedSimulator(
        cluster=Cluster(
            num_machines=num_machines, slots_per_machine=slots_per_machine
        ),
        policy=policy,
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=NoStragglerModel(),
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=profile.beta,
        ),
        random_source=RandomSource(seed=RUN_SEED),
        blacklist_policy=_policy(policy_name, num_machines),
    )
    start = time.perf_counter()
    simulator.run()
    wall = time.perf_counter() - start
    events = simulator.sim.events_processed
    evicted = (
        0
        if simulator._blacklist_policy is None
        else len(simulator._blacklist_policy.evictions)
    )
    return {
        "system": f"centralized+{policy_name}",
        "total_slots": total_slots,
        "num_jobs": num_jobs,
        "probe_ratio": None,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "evictions": evicted,
    }


_RUNNERS = {
    "decentralized": run_once_decentralized,
    "centralized": run_once_centralized,
}


def run_benchmark(
    grid: Sequence[Tuple[int, int]], repeats: int
) -> List[Dict[str, Any]]:
    """Best-of-``repeats`` per plane x policy x grid point."""
    rows: List[Dict[str, Any]] = []
    for plane in PLANES:
        run_once = _RUNNERS[plane]
        for policy_name in POLICIES:
            for total_slots, num_jobs in grid:
                best: Optional[Dict[str, Any]] = None
                for _ in range(repeats):
                    row = run_once(total_slots, num_jobs, policy_name)
                    if (
                        best is None
                        or row["wall_seconds"] < best["wall_seconds"]
                    ):
                        best = row
                assert best is not None
                if best["evictions"]:
                    raise SystemExit(
                        "no-straggler regime must not evict, got "
                        f"{best['evictions']} on {best['system']}"
                    )
                rows.append(best)
    return rows


def _aggregate(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    total_events = sum(r["events"] for r in rows)
    total_wall = sum(r["wall_seconds"] for r in rows)
    return {
        "total_events": total_events,
        "total_wall_seconds": total_wall,
        "events_per_sec": total_events / total_wall if total_wall else 0.0,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke grid"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        metavar="N",
        help="timed repetitions per point; best wall-clock wins (default 2)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "output JSON path (default: BENCH_blacklist.json for --quick, "
            "BENCH_blacklist.full.json otherwise)"
        ),
    )
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    rows = run_benchmark(grid, max(args.repeats, 1))
    aggregate = _aggregate(rows)
    per_system = {
        system: _aggregate([r for r in rows if r["system"] == system])
        for system in sorted({r["system"] for r in rows})
    }

    print_table(
        "Blacklist-policy overhead: events/sec with the strikes policy "
        f"armed on the no-straggler regime ({'quick' if args.quick else 'full'} grid)",
        ("system", "slots", "jobs", "events", "wall s", "events/s"),
        [
            (
                r["system"],
                r["total_slots"],
                r["num_jobs"],
                r["events"],
                r["wall_seconds"],
                r["events_per_sec"],
            )
            for r in rows
        ],
    )
    for plane in PLANES:
        off = per_system[f"{plane}+off"]["events_per_sec"]
        on = per_system[f"{plane}+strikes"]["events_per_sec"]
        ratio = on / off if off else 0.0
        print(
            f"{plane}: policy-on/off throughput ratio {ratio:.3f} "
            f"({on:,.0f} vs {off:,.0f} ev/s; ~1.0 expected)"
        )

    payload = {
        "quick": args.quick,
        "planes": list(PLANES),
        "policies": list(POLICIES),
        "probe_ratio": PROBE_RATIO,
        "utilization": UTILIZATION,
        "repeats": max(args.repeats, 1),
        "rows": rows,
        "aggregate": aggregate,
        "per_system": per_system,
    }
    if args.output:
        from _tables import BENCH_SCHEMA_VERSION
        import json

        out = Path(args.output)
        doc = {
            "benchmark": "blacklist",
            "schema_version": BENCH_SCHEMA_VERSION,
            **payload,
        }
        out.write_text(json.dumps(doc, indent=2) + "\n")
    elif args.quick:
        out = write_bench_json("blacklist", payload)
    else:
        out = write_bench_json("blacklist.full", payload)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
