"""Ablation: Hopper's two-regime split vs forcing one guideline always.

Hopper's core design choice is the regime bifurcation (Guideline 2 under
contention, Guideline 3 otherwise); this benchmark forces
each regime on permanently and compares against the adaptive policy, and
also ablates the 2/beta virtual-size multiplier (setting beta=2 makes the
multiplier exactly 1, i.e. plain SRPT-with-speculation sizing).
"""

from _tables import report_table

from repro.centralized.config import CentralizedConfig
from repro.centralized.policies import HopperPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    default_straggler_model,
)
from repro.simulation.rng import RandomSource
from repro.speculation import make_speculation_policy
from repro.workload.generator import FACEBOOK_PROFILE


def _run(trace, spec, force_regime=None, default_beta=None):
    config = CentralizedConfig(
        epsilon=0.1,
        learn_beta=default_beta is None,
        default_beta=default_beta or spec.profile.beta,
    )
    sim = CentralizedSimulator(
        cluster=Cluster(num_machines=spec.total_slots // 4, slots_per_machine=4),
        policy=HopperPolicy(epsilon=0.1, force_regime=force_regime),
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=default_straggler_model(spec.profile),
        config=config,
        random_source=RandomSource(seed=7),
    )
    return sim.run()


def _experiment():
    spec = WorkloadSpec(
        profile=FACEBOOK_PROFILE,
        num_jobs=200,
        utilization=0.7,
        total_slots=200,
        max_phase_tasks=300,
    )
    trace = build_trace(spec)
    return {
        "adaptive (paper)": _run(trace, spec).mean_job_duration,
        "always guideline 2": _run(
            trace, spec, force_regime="constrained"
        ).mean_job_duration,
        "always guideline 3": _run(
            trace, spec, force_regime="rich"
        ).mean_job_duration,
        "multiplier 1 (beta=2)": _run(
            trace, spec, default_beta=2.0
        ).mean_job_duration,
    }


def test_bench_ablation_regimes(benchmark):
    out = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report_table(
        "ablation_regimes",
        "Ablation: regime bifurcation and the 2/beta multiplier "
        "(mean job duration; lower is better)",
        ("variant", "mean job duration"),
        list(out.items()),
    )
    adaptive = out["adaptive (paper)"]
    # The adaptive two-regime design is never much worse than either
    # forced regime (it should typically be the best or near-best).
    assert adaptive <= min(
        out["always guideline 2"], out["always guideline 3"]
    ) * 1.15
