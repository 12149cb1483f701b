"""Tests for metric collection and cross-run analysis."""

import pytest

from repro.metrics.analysis import (
    gain_cdf,
    mean_duration,
    mean_reduction_percent,
    per_job_gains,
    percentile,
    reduction_by_bin,
    reduction_by_dag_length,
    slowdown_stats,
)
from repro.metrics.collector import JobRecord, MetricsCollector, SimulationResult
from repro.metrics.tables import format_table


def _record(job_id, duration, num_tasks=10, dag_length=1, arrival=0.0):
    return JobRecord(
        job_id=job_id,
        name=f"job-{job_id}",
        num_tasks=num_tasks,
        dag_length=dag_length,
        arrival_time=arrival,
        finish_time=arrival + duration,
    )


def _result(durations, name="x", **kwargs):
    return SimulationResult(
        scheduler_name=name,
        jobs=[_record(i, d, **kwargs) for i, d in enumerate(durations)],
    )


def test_job_record_duration_and_bin():
    record = _record(0, 5.0, num_tasks=200)
    assert record.duration == 5.0
    assert record.size_bin == 2


def test_collector_job_completion():
    collector = MetricsCollector("test")
    collector.record_job_completion(1, "j", 10, 2, 1.0, 4.0)
    assert collector.result.num_jobs == 1
    assert collector.result.mean_job_duration == 3.0
    with pytest.raises(ValueError):
        collector.record_job_completion(2, "j", 10, 2, 5.0, 4.0)


def test_collector_speculation_accounting():
    collector = MetricsCollector("test")
    collector.record_copy_launch(speculative=False, local=True)
    collector.record_copy_launch(speculative=True, local=False)
    collector.record_copy_finished(2.0, speculative_win=True)
    collector.record_copy_killed(1.0)
    result = collector.result
    assert result.total_copies == 2
    assert result.speculative_copies == 1
    assert result.speculative_wins == 1
    assert result.killed_copies == 1
    assert result.speculation_task_fraction == 0.5
    assert result.speculation_resource_fraction == pytest.approx(1.0 / 3.0)
    assert result.data_locality_fraction == 0.5


def test_collector_guideline_and_messages():
    collector = MetricsCollector("test")
    collector.record_guideline_decision(constrained=True)
    collector.record_guideline_decision(constrained=False)
    collector.record_message(3)
    assert collector.result.guideline2_decisions == 1
    assert collector.result.guideline3_decisions == 1
    assert collector.result.messages_sent == 3


def test_empty_result_properties():
    result = SimulationResult(scheduler_name="empty")
    assert result.mean_job_duration == 0.0
    assert result.speculation_task_fraction == 0.0
    assert result.speculation_resource_fraction == 0.0
    assert result.data_locality_fraction == 1.0


def test_mean_duration_and_percentile():
    records = [_record(i, float(i)) for i in range(1, 5)]
    assert mean_duration(records) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_mean_reduction_percent():
    base = _result([10.0, 10.0])
    cand = _result([5.0, 5.0])
    assert mean_reduction_percent(base, cand) == pytest.approx(50.0)
    assert mean_reduction_percent(cand, base) == pytest.approx(-100.0)


def test_per_job_gains_matched_by_id():
    base = _result([10.0, 20.0])
    cand = _result([5.0, 30.0])
    gains = per_job_gains(base, cand)
    assert gains[0] == pytest.approx(50.0)
    assert gains[1] == pytest.approx(-50.0)


def test_gain_cdf_is_monotone():
    base = _result([10.0, 20.0, 30.0, 40.0])
    cand = _result([8.0, 25.0, 15.0, 20.0])
    cdf = gain_cdf(base, cand)
    xs = [x for x, _ in cdf]
    ys = [y for _, y in cdf]
    assert xs == sorted(xs)
    assert ys[-1] == pytest.approx(1.0)


def test_reduction_by_bin():
    base = SimulationResult(
        "b",
        jobs=[_record(0, 10.0, num_tasks=10), _record(1, 100.0, num_tasks=600)],
    )
    cand = SimulationResult(
        "c",
        jobs=[_record(0, 5.0, num_tasks=10), _record(1, 80.0, num_tasks=600)],
    )
    by_bin = reduction_by_bin(base, cand)
    assert by_bin[0] == pytest.approx(50.0)
    assert by_bin[3] == pytest.approx(20.0)


def test_reduction_by_dag_length():
    base = SimulationResult(
        "b",
        jobs=[_record(0, 10.0, dag_length=1), _record(1, 10.0, dag_length=3)],
    )
    cand = SimulationResult(
        "c",
        jobs=[_record(0, 9.0, dag_length=1), _record(1, 5.0, dag_length=3)],
    )
    by_len = reduction_by_dag_length(base, cand)
    assert by_len[1] == pytest.approx(10.0)
    assert by_len[3] == pytest.approx(50.0)


def test_slowdown_stats():
    fair = _result([10.0, 10.0, 10.0, 10.0])
    cand = _result([9.0, 10.0, 12.0, 15.0])
    fraction, mean_slow, worst = slowdown_stats(fair, cand)
    assert fraction == pytest.approx(0.5)
    assert mean_slow == pytest.approx((20.0 + 50.0) / 2)
    assert worst == pytest.approx(50.0)


def test_slowdown_stats_no_slowdowns():
    fair = _result([10.0, 10.0])
    cand = _result([9.0, 10.0])
    assert slowdown_stats(fair, cand) == (0.0, 0.0, 0.0)


def test_format_table_sizes_columns_by_widest_cell():
    wide = "decentralized Hopper vs Sparrow-SRPT"
    text = format_table(
        "t", ("comparison", "reduction %"), [(wide, -6.4), ("short", 19.15)]
    )
    header, first, second = text.splitlines()[2:]
    # The second column starts at the same offset on every line.
    column = len(wide) + 2
    assert header[column:].startswith("reduction %")
    assert first[column:].startswith("-6.40")
    assert second[column:].startswith("19.15")
    assert header.startswith("comparison".ljust(column))
