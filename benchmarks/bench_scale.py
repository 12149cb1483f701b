"""Scale benchmark: simulator event-loop throughput at 1k-20k slots.

Measures the hot paths the ``scale`` study exercises on both system
axes — decentralized Hopper and centralized Hopper-C replaying a
Spark-like Facebook trace — and reports wall-clock and **events/sec**
(logical engine events; batched control-message deliveries are credited
per message, so numbers are comparable with the unbatched engine).
Results print as a table and land in ``BENCH_scale.json``, which doubles
as the committed baseline that the CI ``perf-smoke`` job gates on via
``benchmarks/check_regression.py`` — the centralized rows included.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --quick
    PYTHONPATH=src python benchmarks/bench_scale.py --system centralized
    PYTHONPATH=src python benchmarks/bench_scale.py --output fresh.json
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

from _tables import BENCH_SCHEMA_VERSION, print_table, write_bench_json  # noqa: E402

#: (total_slots, num_jobs) points per mode; the decentralized axis runs
#: the paper's recommended probe ratio d=4. --quick must still cover the
#: >=10k regime on both axes, plus the 100k-slot row the incremental
#: allocation engine opened up (CI gates it like any other row).
FULL_GRID: Sequence[Tuple[int, int]] = (
    (1000, 150),
    (5000, 150),
    (10000, 150),
    (20000, 150),
    (100000, 150),
)
QUICK_GRID: Sequence[Tuple[int, int]] = (
    (2000, 40),
    (10000, 80),
    (100000, 100),
)

SYSTEMS = ("decentralized", "centralized", "batch", "elastic")

PROBE_RATIO = 4.0
ROUND_INTERVAL = 0.5
UTILIZATION = 0.6
TRACE_SEED = 42
RUN_SEED = 7

#: The elastic axis only runs at this cluster size: it measures resize
#: *churn* cost (membership deltas + kill/requeue) at the 10k-slot
#: regime, not another full scale sweep. Both grids carry a 10k point.
ELASTIC_SLOTS = 10000
#: Fraction of the machine fleet each churn event removes or re-adds.
ELASTIC_CHURN = 0.1
#: Alternating shrink/grow events, every 2 virtual seconds from t=2.
ELASTIC_CHURN_EVENTS = 8


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


def run_once_decentralized(
    total_slots: int, num_jobs: int, obs: Any = None
) -> Dict[str, Any]:
    """One timed decentralized-Hopper replay; returns a result row.

    ``obs`` (a :class:`repro.obs.Obs` or None) is threaded through so
    ``bench_obs.py`` can measure instrumentation overhead on the exact
    same workload; the default keeps this benchmark tracer-free.
    """
    from repro import registry
    from repro.decentralized.config import DecentralizedConfig
    from repro.decentralized.simulator import DecentralizedSimulator
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import ParetoRedrawStragglerModel

    profile, _, trace = _build_trace(total_slots, num_jobs)
    defaults = registry.SYSTEMS.get("decentralized/hopper").factory()
    simulator = DecentralizedSimulator(
        num_workers=total_slots,
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(
            beta=profile.beta, scale=profile.task_scale
        ),
        config=DecentralizedConfig(
            worker_policy=defaults.worker_policy,
            probe_ratio=PROBE_RATIO,
            epsilon=defaults.epsilon,
            default_beta=profile.beta,
        ),
        random_source=RandomSource(seed=RUN_SEED),
        name="hopper",
        obs=obs,
    )
    start = time.perf_counter()
    result = simulator.run()
    wall = time.perf_counter() - start
    events = simulator.sim.events_processed
    return {
        "system": "decentralized",
        "total_slots": total_slots,
        "num_jobs": num_jobs,
        "probe_ratio": PROBE_RATIO,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "mean_job_duration": result.mean_job_duration,
        "messages_sent": result.messages_sent,
    }


def run_once_centralized(
    total_slots: int, num_jobs: int, obs: Any = None
) -> Dict[str, Any]:
    """One timed centralized-Hopper replay (the harness defaults:
    INTEGRATED speculation, 4 slots per machine); returns a result row.
    ``obs`` as in :func:`run_once_decentralized`."""
    from repro import registry
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import ParetoRedrawStragglerModel

    profile, _, trace = _build_trace(total_slots, num_jobs)
    policy = registry.SYSTEMS.get("centralized/hopper").factory(epsilon=0.1)
    slots_per_machine = 4
    simulator = CentralizedSimulator(
        cluster=Cluster(
            num_machines=max(1, total_slots // slots_per_machine),
            slots_per_machine=slots_per_machine,
        ),
        policy=policy,
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(
            beta=profile.beta, scale=profile.task_scale
        ),
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=profile.beta,
        ),
        random_source=RandomSource(seed=RUN_SEED),
        obs=obs,
    )
    start = time.perf_counter()
    result = simulator.run()
    wall = time.perf_counter() - start
    events = simulator.sim.events_processed
    return {
        "system": "centralized",
        "total_slots": total_slots,
        "num_jobs": num_jobs,
        "probe_ratio": None,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "mean_job_duration": result.mean_job_duration,
        "messages_sent": result.messages_sent,
    }


def run_once_batch(
    total_slots: int, num_jobs: int, obs: Any = None
) -> Dict[str, Any]:
    """One timed batch-plane Hopper replay (periodic rounds at
    ``ROUND_INTERVAL``, otherwise the centralized harness defaults);
    returns a result row. ``obs`` as in :func:`run_once_decentralized`."""
    from repro import registry
    from repro.batch import BatchSimulator
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.cluster.cluster import Cluster
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import ParetoRedrawStragglerModel

    profile, _, trace = _build_trace(total_slots, num_jobs)
    policy = registry.SYSTEMS.get("batch/hopper").factory(epsilon=0.1)
    slots_per_machine = 4
    simulator = BatchSimulator(
        round_interval=ROUND_INTERVAL,
        cluster=Cluster(
            num_machines=max(1, total_slots // slots_per_machine),
            slots_per_machine=slots_per_machine,
        ),
        policy=policy,
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(
            beta=profile.beta, scale=profile.task_scale
        ),
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=profile.beta,
        ),
        random_source=RandomSource(seed=RUN_SEED),
        obs=obs,
    )
    start = time.perf_counter()
    result = simulator.run()
    wall = time.perf_counter() - start
    events = simulator.sim.events_processed
    return {
        "system": "batch",
        "total_slots": total_slots,
        "num_jobs": num_jobs,
        "probe_ratio": None,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "mean_job_duration": result.mean_job_duration,
        "messages_sent": result.messages_sent,
    }


def run_once_elastic(
    total_slots: int, num_jobs: int, obs: Any = None
) -> Dict[str, Any]:
    """One timed centralized-Hopper replay under scheduled resize churn:
    ``ELASTIC_CHURN_EVENTS`` alternating shrink/grow events, each moving
    ``ELASTIC_CHURN`` of the machine fleet. The delta over
    :func:`run_once_centralized` prices the membership-update and
    kill→requeue paths (Cluster.add_machine/remove_machine must stay
    O(log machines) for this row to hold its rate). ``obs`` as in
    :func:`run_once_decentralized`."""
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.cluster.elastic import ScheduleAutoscaler
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import ParetoRedrawStragglerModel

    from repro import registry

    profile, _, trace = _build_trace(total_slots, num_jobs)
    policy = registry.SYSTEMS.get("centralized/hopper").factory(epsilon=0.1)
    slots_per_machine = 4
    num_machines = max(1, total_slots // slots_per_machine)
    delta = max(1, int(num_machines * ELASTIC_CHURN))
    schedule = [
        (2.0 * (i + 1), -delta if i % 2 == 0 else delta)
        for i in range(ELASTIC_CHURN_EVENTS)
    ]
    simulator = CentralizedSimulator(
        cluster=Cluster(
            num_machines=num_machines, slots_per_machine=slots_per_machine
        ),
        policy=policy,
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(
            beta=profile.beta, scale=profile.task_scale
        ),
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=profile.beta,
        ),
        random_source=RandomSource(seed=RUN_SEED),
        autoscaler=ScheduleAutoscaler(schedule),
        obs=obs,
    )
    start = time.perf_counter()
    result = simulator.run()
    wall = time.perf_counter() - start
    events = simulator.sim.events_processed
    return {
        "system": "elastic",
        "total_slots": total_slots,
        "num_jobs": num_jobs,
        "probe_ratio": None,
        "events": events,
        "wall_seconds": wall,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "mean_job_duration": result.mean_job_duration,
        "messages_sent": result.messages_sent,
    }


_RUNNERS = {
    "decentralized": run_once_decentralized,
    "centralized": run_once_centralized,
    "batch": run_once_batch,
    "elastic": run_once_elastic,
}


def run_benchmark(
    systems: Sequence[str], grid: Sequence[Tuple[int, int]], repeats: int
) -> List[Dict[str, Any]]:
    """Best-of-``repeats`` per system x grid point (wall-clock noise
    shielding).

    The simulation itself is deterministic, so repeated runs return
    identical events/results; only the timing varies. The elastic axis
    runs only its ``ELASTIC_SLOTS`` grid point (churn cost at 10k
    slots, not a second full sweep).
    """
    rows: List[Dict[str, Any]] = []
    for system in systems:
        run_once = _RUNNERS[system]
        points = (
            [p for p in grid if p[0] == ELASTIC_SLOTS]
            if system == "elastic"
            else grid
        )
        for total_slots, num_jobs in points:
            best: Optional[Dict[str, Any]] = None
            for _ in range(repeats):
                row = run_once(total_slots, num_jobs)
                if best is None or row["wall_seconds"] < best["wall_seconds"]:
                    best = row
            assert best is not None
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
        "--quick",
        action="store_true",
        help="CI smoke grid (2k and 10k slots, fewer jobs)",
    )
    parser.add_argument(
        "--system",
        choices=(*SYSTEMS, "both"),
        default="both",
        help="which simulator axis to benchmark (default: both = all axes)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timed repetitions per point; best wall-clock wins (default 3)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help=(
            "output JSON path (default: BENCH_scale.json for --quick — the "
            "grid CI gates on — and BENCH_scale.full.json for the full grid, "
            "so a full run cannot silently overwrite the committed baseline)"
        ),
    )
    args = parser.parse_args(argv)

    systems = SYSTEMS if args.system == "both" else (args.system,)
    grid = QUICK_GRID if args.quick else FULL_GRID
    rows = run_benchmark(systems, grid, max(args.repeats, 1))
    aggregate = _aggregate(rows)
    per_system = {
        system: _aggregate([r for r in rows if r["system"] == system])
        for system in systems
    }

    print_table(
        "Scale benchmark: events/sec by system "
        f"({'quick' if args.quick else 'full'} grid, "
        f"decentralized d={PROBE_RATIO:g})",
        ("system", "slots", "jobs", "events", "wall s", "events/s", "mean dur"),
        [
            (
                r["system"],
                r["total_slots"],
                r["num_jobs"],
                r["events"],
                r["wall_seconds"],
                r["events_per_sec"],
                r["mean_job_duration"],
            )
            for r in rows
        ],
    )
    for system in systems:
        print(
            f"{system} aggregate: "
            f"{per_system[system]['events_per_sec']:,.0f} events/sec"
        )
    print(f"\naggregate: {aggregate['events_per_sec']:,.0f} events/sec")

    payload = {
        "quick": args.quick,
        "systems": list(systems),
        "probe_ratio": PROBE_RATIO,
        "utilization": UTILIZATION,
        "repeats": max(args.repeats, 1),
        "rows": rows,
        "aggregate": aggregate,
        "per_system": per_system,
    }
    if args.output:
        out = Path(args.output)
        doc = {
            "benchmark": "scale",
            "schema_version": BENCH_SCHEMA_VERSION,
            **payload,
        }
        import json

        out.write_text(json.dumps(doc, indent=2) + "\n")
    elif args.quick:
        out = write_bench_json("scale", payload)
    else:
        out = write_bench_json("scale.full", payload)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
