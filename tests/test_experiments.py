"""Tests for the experiment harness, the motivating example, and
scaled-down smoke runs of the figure experiments."""

import pytest

from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.experiments.motivating import (
    TASKS,
    run_motivating_example,
)
from repro.experiments import figures
from repro.metrics.serialize import result_to_dict
from repro.workload.generator import SPARK_FACEBOOK_PROFILE
from repro.workload.task import TaskState


# -- motivating example (§3, Figures 1-2, Table 1) ------------------------------


def test_table1_shape():
    assert sum(1 for (j, _) in TASKS if j == "A") == 4
    assert sum(1 for (j, _) in TASKS if j == "B") == 5


def test_motivating_example_matches_paper():
    results = {r.strategy: r for r in run_motivating_example()}
    # Figure 1a: best-effort speculation delays job A's speculation.
    assert results["best_effort"].completion_a == pytest.approx(20.0)
    assert results["best_effort"].completion_b == pytest.approx(30.0)
    # Figure 1b: budgeted speculation rescues A but pushes B out.
    assert results["budgeted"].completion_a == pytest.approx(12.0)
    assert results["budgeted"].completion_b == pytest.approx(32.0)
    # Figure 2: coordination gets the best of both.
    assert results["hopper"].completion_a == pytest.approx(12.0)
    assert results["hopper"].completion_b == pytest.approx(22.0)


def test_motivating_hopper_dominates_on_average():
    results = {r.strategy: r for r in run_motivating_example()}
    assert results["hopper"].average < results["best_effort"].average
    assert results["hopper"].average < results["budgeted"].average


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
