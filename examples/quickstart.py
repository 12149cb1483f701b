#!/usr/bin/env python
"""Quickstart: speculation-aware vs speculation-oblivious scheduling.

Generates a small Facebook-like workload, replays it through a
centralized SRPT scheduler with best-effort LATE speculation (today's
practice) and through centralized Hopper (coordinated speculation), and
prints the reduction in average job completion time.

Run:  python examples/quickstart.py
"""

from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.metrics.analysis import mean_reduction_percent
from repro.workload.generator import FACEBOOK_PROFILE


def main() -> None:
    spec = WorkloadSpec(
        profile=FACEBOOK_PROFILE,
        num_jobs=200,
        utilization=0.7,
        total_slots=200,
        max_phase_tasks=300,
    )
    trace = build_trace(spec)
    print(f"workload: {len(trace)} jobs, {trace.total_tasks} tasks, "
          f"target utilization {spec.utilization:.0%}")

    srpt = run_simulator("srpt", trace, spec, plane="centralized")
    hopper = run_simulator("hopper", trace, spec, plane="centralized")

    print(f"\n{'scheduler':<22}{'mean job duration':>20}{'spec copies':>14}")
    for result in (srpt, hopper):
        print(
            f"{result.scheduler_name:<22}"
            f"{result.mean_job_duration:>20.2f}"
            f"{result.speculative_copies:>14d}"
        )
    gain = mean_reduction_percent(srpt, hopper)
    print(f"\nHopper reduces average job duration by {gain:.1f}% "
          f"versus SRPT + best-effort LATE.")


if __name__ == "__main__":
    main()
