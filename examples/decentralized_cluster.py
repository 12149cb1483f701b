#!/usr/bin/env python
"""Decentralized scheduling: Sparrow vs Sparrow-SRPT vs Hopper.

Replays an interactive (in-memory Spark-like) workload through the three
decentralized systems at two utilizations and prints mean job durations,
speculation statistics and message counts — the paper's Fig. 6 at demo
scale.

Run:  python examples/decentralized_cluster.py
"""

from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.metrics.analysis import mean_reduction_percent
from repro.workload.generator import SPARK_FACEBOOK_PROFILE


def main() -> None:
    for utilization in (0.6, 0.8):
        spec = WorkloadSpec(
            profile=SPARK_FACEBOOK_PROFILE,
            num_jobs=120,
            utilization=utilization,
            total_slots=300,
        )
        trace = build_trace(spec)
        print(f"\n=== utilization {utilization:.0%} "
              f"({len(trace)} jobs, {trace.total_tasks} tasks, "
              f"{spec.total_slots} workers) ===")
        results = {}
        for system in ("sparrow", "sparrow-srpt", "hopper"):
            result = run_simulator(system, trace, spec, plane="decentralized")
            results[system] = result
            print(
                f"{system:<14} mean={result.mean_job_duration:7.2f}  "
                f"spec={result.speculative_copies:5d} "
                f"(wins {result.speculative_wins})  "
                f"messages={result.messages_sent}"
            )
        vs_sparrow = mean_reduction_percent(
            results["sparrow"], results["hopper"]
        )
        vs_srpt = mean_reduction_percent(
            results["sparrow-srpt"], results["hopper"]
        )
        print(f"Hopper vs Sparrow      : {vs_sparrow:5.1f}% faster")
        print(f"Hopper vs Sparrow-SRPT : {vs_srpt:5.1f}% faster")


if __name__ == "__main__":
    main()
