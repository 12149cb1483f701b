"""Tests for the experiment harness, the motivating example, and
scaled-down smoke runs of the figure experiments."""

import pytest

from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.policies import SRPTPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.experiments.motivating import (
    DETECT_AT,
    NUM_SLOTS,
    TASKS,
    run_motivating_example,
)
from repro.experiments import figures
from repro.metrics.serialize import result_to_dict
from repro.speculation import LATE
from repro.stragglers.model import StragglerModel
from repro.workload.generator import SPARK_FACEBOOK_PROFILE
from repro.workload.job import make_single_phase_job
from repro.workload.task import TaskState
from repro.workload.traces import Trace


# -- motivating example (§3, Figures 1-2, Table 1) ------------------------------


def test_table1_shape():
    assert sum(1 for (j, _) in TASKS if j == "A") == 4
    assert sum(1 for (j, _) in TASKS if j == "B") == 5


def test_motivating_example_matches_paper():
    results = {r.strategy: r for r in run_motivating_example()}
    # Exact reproduction of the example's arithmetic.
    # Figure 1a: best-effort speculation delays job A's speculation.
    assert results["best_effort"].completion_a == 20.0
    assert results["best_effort"].completion_b == 30.0
    # Figure 1b: budgeted speculation rescues A but pushes B out.
    assert results["budgeted"].completion_a == 12.0
    assert results["budgeted"].completion_b == 32.0
    # Figure 2: coordination gets the best of both.
    assert results["hopper"].completion_a == 12.0
    assert results["hopper"].completion_b == 22.0


def test_motivating_hopper_dominates_on_average():
    results = {r.strategy: r for r in run_motivating_example()}
    assert results["hopper"].average < results["best_effort"].average
    assert results["hopper"].average < results["budgeted"].average


class _Table1Stragglers(StragglerModel):
    """Scripted durations from Table 1 for size-10 tasks: a task's first
    copy runs ``t_orig``, every later copy ``t_new``."""

    def __init__(self, durations):
        self.durations = durations  # task id -> (t_orig, t_new)

    def slowdown(self, rng, task, machine_id, attempt_index):
        t_orig, t_new = self.durations[task.task_id]
        return (t_orig if attempt_index == 0 else t_new) / 10.0


def _replay_table1(policy, **config):
    """Table 1 through the centralized simulator: A (4 tasks) and B (5)
    arrive at t=0 on 7 one-slot machines; LATE flags a copy after 2
    time units and speculates whenever t_rem > t_new."""
    jobs = [
        make_single_phase_job(0, 0.0, [10.0] * 4),
        make_single_phase_job(1, 0.0, [10.0] * 5, task_id_start=4),
    ]
    durations = {
        task.task_id: TASKS["AB"[job.job_id], index]
        for job in jobs
        for index, task in enumerate(job.phases[0].tasks)
    }
    simulator = CentralizedSimulator(
        cluster=Cluster(num_machines=NUM_SLOTS),
        policy=policy,
        speculation=lambda: LATE(
            detect_after=DETECT_AT,
            slow_task_pct=1.0,
            speculative_cap_fraction=1.0,
            max_copies=2,
        ),
        trace=Trace(jobs=jobs),
        straggler_model=_Table1Stragglers(durations),
        config=CentralizedConfig(
            learn_beta=False,
            default_beta=1.6,
            use_alpha=False,
            epsilon=1.0,
            locality_k_percent=0.0,
            **config,
        ),
    )
    result = simulator.run()
    finish = {job.job_id: job.finish_time for job in result.jobs}
    return finish[0], finish[1]


def test_table1_strawmen_match_figure1_on_the_engine():
    """Oracle: the paper's Fig. 1 completion times, known without this
    code, come out of the real simulator replaying Table 1."""
    best_effort = _replay_table1(
        SRPTPolicy(), speculation_mode=SpeculationMode.BEST_EFFORT
    )
    assert best_effort == (20.0, 30.0)  # Fig. 1a
    budgeted = _replay_table1(
        SRPTPolicy(),
        speculation_mode=SpeculationMode.BUDGETED,
        budget_fraction=3 / 7,
    )
    assert budgeted == (12.0, 32.0)  # Fig. 1b


# -- harness ---------------------------------------------------------------------


def _tiny_spec(**kwargs):
    defaults = dict(
        profile=SPARK_FACEBOOK_PROFILE,
        num_jobs=20,
        utilization=0.6,
        total_slots=60,
        max_phase_tasks=30,
    )
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


def test_build_trace_hits_target_utilization():
    spec = _tiny_spec()
    trace = build_trace(spec)
    assert len(trace) == 20
    assert trace.offered_utilization(spec.total_slots) == pytest.approx(
        0.6, rel=1e-6
    )


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(num_jobs=0)
    with pytest.raises(ValueError):
        _tiny_spec(utilization=1.5)
    with pytest.raises(ValueError):
        _tiny_spec(total_slots=0)


def test_run_centralized_all_policies():
    spec = _tiny_spec()
    trace = build_trace(spec)
    for policy in ("fair", "srpt", "hopper"):
        result = run_simulator(policy, trace, spec, plane="centralized")
        assert result.num_jobs == 20
    with pytest.raises(ValueError):
        run_simulator("bogus", trace, spec, plane="centralized")


@pytest.mark.parametrize(
    "system",
    ["centralized/srpt", "batch/hopper", "decentralized/hopper"],
    ids=["run_centralized", "run_batch", "run_decentralized"],
)
def test_run_centralized_does_not_mutate_trace(system):
    spec = _tiny_spec()
    trace = build_trace(spec)
    first = run_simulator(system, trace, spec)
    assert first.num_jobs == 20
    for job in trace.jobs:
        assert job.finish_time is None
        for phase in job.phases:
            assert phase.finished_tasks == 0
            assert phase.remaining_work() == phase._total_work
        for task in job.all_tasks():
            assert task.state is TaskState.PENDING
            assert task.finish_time is None
            assert not task.completed_by_speculative
    # Replayable again, with an identical result.
    second = run_simulator(system, trace, spec)
    assert result_to_dict(second) == result_to_dict(first)


def test_run_decentralized_all_systems():
    spec = _tiny_spec()
    trace = build_trace(spec)
    for system in ("sparrow", "sparrow-srpt", "hopper"):
        result = run_simulator(system, trace, spec, plane="decentralized")
        assert result.num_jobs == 20
    with pytest.raises(ValueError):
        run_simulator("bogus", trace, spec, plane="decentralized")


def test_run_decentralized_under_each_speculation_algorithm():
    spec = _tiny_spec()
    trace = build_trace(spec)
    for algo in ("late", "mantri", "grass"):
        result = run_simulator(
            "hopper", trace, spec, plane="decentralized", speculation=algo
        )
        assert result.num_jobs == 20


# -- figure experiment smoke runs (tiny parameters) -------------------------------


def test_fig3_threshold_curve_shape():
    curve = figures.fig3_threshold(
        beta=1.4,
        num_tasks=50,
        normalized_slots=(0.6, 1.0, 1.4, 1.8, 2.2),
        seeds=tuple(range(3)),
    )
    assert len(curve) == 5
    values = [v for _, v in curve]
    # completion time decreases (weakly) with more slots
    assert values[0] >= values[-1]
    assert min(values) == pytest.approx(1.0)
    knee = figures.knee_position(curve)
    assert 0.6 <= knee <= 2.2


def test_fig5a_rows():
    rows = figures.fig5a_probe_count(
        probe_ratios=(2.0, 4.0),
        utilizations=(0.7,),
        num_jobs=25,
        total_slots=80,
    )
    hopper_rows = [r for r in rows if r.system == "hopper"]
    assert len(hopper_rows) == 2
    assert all(r.ratio > 0 for r in rows)


def test_fig6_rows():
    rows = figures.fig6_utilization_gains(
        utilizations=(0.7,), num_jobs=30, total_slots=100
    )
    assert len(rows) == 1
    assert rows[0].utilization == 0.7


def test_fig7_bins_have_labels():
    out = figures.fig7_job_bins(num_jobs=40, total_slots=100)
    assert "overall" in out


def test_fig10_fairness_rows():
    rows = figures.fig10_fairness(
        epsilons=(0.0, 0.1), num_jobs=25, total_slots=80
    )
    assert [r.epsilon for r in rows] == [0.0, 0.1]
    assert rows[0].fraction_slowed == pytest.approx(0.0)  # self-reference


def test_fig12_centralized_keys():
    out = figures.fig12_centralized(num_jobs=30, total_slots=60)
    assert set(out) == {"overall", "by_bin", "by_dag_length"}


def test_fig13_locality_rows():
    rows = figures.fig13_locality(
        k_values=(0.0, 5.0), num_jobs=25, total_slots=60
    )
    assert len(rows) == 2
    assert all(0.0 <= r.locality_fraction <= 1.0 for r in rows)
