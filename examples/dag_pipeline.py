#!/usr/bin/env python
"""DAG jobs, pipelining and the alpha weighting (§4.2, §6.3).

Builds multi-phase jobs (map -> shuffle -> reduce chains), shows how the
alpha estimator learns intermediate data sizes from recurring jobs, and
compares Hopper with and without the sqrt(alpha) virtual-size scaling.

Run:  python examples/dag_pipeline.py
"""

from repro.estimation.alpha import AlphaEstimator
from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.metrics.analysis import mean_reduction_percent
from repro.workload.generator import FACEBOOK_PROFILE
from repro.workload.job import make_chain_job


def alpha_estimation_demo() -> None:
    print("--- alpha estimation from recurring jobs (§6.3) ---")
    estimator = AlphaEstimator()
    # Simulate 5 historical runs of a recurring script.
    for run in range(5):
        job = make_chain_job(
            job_id=run,
            arrival_time=0.0,
            phase_task_sizes=[[1.0] * 20, [1.0] * 8],
            phase_output_data=[38.0 + run, 0.0],
            name="nightly-report",
        )
        estimator.observe_job(job)
    new_run = make_chain_job(
        job_id=99,
        arrival_time=0.0,
        phase_task_sizes=[[1.0] * 20, [1.0] * 8],
        phase_output_data=[40.0, 0.0],
        name="nightly-report",
    )
    predicted = estimator.predict_phase_output("nightly-report", 0)
    alpha = estimator.predict_alpha(new_run)
    print(f"predicted intermediate output: {predicted:.1f} (actual 40.0)")
    print(f"predicted alpha for the new run: {alpha:.2f}")
    print(f"estimator accuracy so far: {estimator.accuracy:.0%}\n")


def dag_scheduling_demo() -> None:
    print("--- Hopper on DAG workloads, with and without alpha ---")
    spec = WorkloadSpec(
        profile=FACEBOOK_PROFILE,
        num_jobs=80,
        utilization=0.7,
        total_slots=200,
        max_phase_tasks=120,
    )
    trace = build_trace(spec)
    srpt = run_simulator("srpt", trace, spec, plane="centralized")
    with_alpha = run_simulator("hopper", trace, spec, plane="centralized")
    without_alpha = run_simulator(
        "hopper", trace, spec, plane="centralized", use_alpha=False
    )
    print(f"SRPT baseline        : {srpt.mean_job_duration:7.2f}")
    print(f"Hopper (with alpha)  : {with_alpha.mean_job_duration:7.2f} "
          f"({mean_reduction_percent(srpt, with_alpha):.1f}% vs SRPT)")
    print(f"Hopper (alpha = 1)   : {without_alpha.mean_job_duration:7.2f} "
          f"({mean_reduction_percent(srpt, without_alpha):.1f}% vs SRPT)")


def main() -> None:
    alpha_estimation_demo()
    dag_scheduling_demo()


if __name__ == "__main__":
    main()
