"""Tests for the LATE / Mantri / GRASS speculation algorithms."""

import random

import pytest

from repro.speculation import (
    GRASS,
    LATE,
    Mantri,
    NoSpeculation,
    make_speculation_policy,
)
from repro.speculation.base import JobExecutionView, SpeculationRequest
from repro.stragglers.progress import TaskCopy
from repro.workload.job import make_single_phase_job
from repro.workload.task import TaskState


def _view(num_tasks=4, sizes=None):
    sizes = sizes or [1.0] * num_tasks
    job = make_single_phase_job(0, 0.0, sizes)
    return JobExecutionView(job=job)


def _run_copy(view, task_index, start, duration, copy_id=None, speculative=False):
    task = view.job.phases[0].tasks[task_index]
    copy = TaskCopy(
        copy_id=copy_id if copy_id is not None else task_index,
        task=task,
        machine_id=0,
        start_time=start,
        duration=duration,
        speculative=speculative,
    )
    view.register_copy(copy)
    return copy


def test_factory():
    assert isinstance(make_speculation_policy("late"), LATE)
    assert isinstance(make_speculation_policy("mantri"), Mantri)
    assert isinstance(make_speculation_policy("grass"), GRASS)
    assert isinstance(make_speculation_policy("none"), NoSpeculation)
    with pytest.raises(ValueError):
        make_speculation_policy("bogus")


def test_no_speculation_never_proposes():
    view = _view()
    _run_copy(view, 0, 0.0, 100.0)
    assert NoSpeculation().speculation_candidates(view, 50.0) == []
    assert NoSpeculation().max_copies_per_task() == 1


def test_view_register_and_remove():
    view = _view()
    copy = _run_copy(view, 0, 0.0, 5.0)
    assert view.attempts(copy.task) == 1
    assert view.copies_of(copy.task) == [copy]
    view.remove_copy(copy)
    assert view.copies_of(copy.task) == []
    assert view.attempts(copy.task) == 1  # attempts are cumulative


def test_view_estimate_tnew_uses_median():
    view = _view()
    view.completed_durations.extend([1.0, 2.0, 9.0])
    task = view.job.phases[0].tasks[0]
    assert view.estimate_new_copy_duration(task) == 2.0


def test_local_median_matches_statistics_median():
    import random
    import statistics

    from repro.speculation.base import _median

    rng = random.Random(5)
    for n in range(1, 40):
        values = [rng.paretovariate(1.3) for _ in range(n)]
        assert _median(values) == statistics.median(values)


def test_view_estimate_tnew_falls_back_to_size():
    view = _view(sizes=[3.0, 1.0, 1.0, 1.0])
    task = view.job.phases[0].tasks[0]
    assert view.estimate_new_copy_duration(task) == 3.0


def test_late_speculates_clear_straggler():
    late = LATE(detect_after=1.0, speculative_cap_fraction=1.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)  # the straggler
    for i in (1, 2, 3):
        _run_copy(view, i, 0.0, 1.0)
    view.completed_durations.extend([1.0, 1.0])
    candidates = late.speculation_candidates(view, 2.0)
    assert [c.task.task_id for c in candidates] == [0]
    assert candidates[0].expected_benefit > 0


def test_late_waits_for_detection_window():
    late = LATE(detect_after=5.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)
    view.completed_durations.append(1.0)
    assert late.speculation_candidates(view, 2.0) == []


def test_late_skips_tasks_already_racing():
    late = LATE(detect_after=0.5, speculative_cap_fraction=1.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0, copy_id=0)
    _run_copy(view, 0, 1.0, 30.0, copy_id=10, speculative=True)
    view.completed_durations.append(1.0)
    assert late.speculation_candidates(view, 5.0) == []


def test_late_does_not_speculate_when_new_copy_cannot_win():
    late = LATE(detect_after=0.5, speculative_cap_fraction=1.0)
    view = _view()
    copy = _run_copy(view, 0, 0.0, 3.0)
    view.completed_durations.extend([2.9, 2.9, 2.9])
    # trem at t=2.5 is 0.5 < tnew 2.9: no point racing
    assert late.speculation_candidates(view, 2.5) == []


def test_late_cap_limits_concurrent_speculation():
    late = LATE(detect_after=0.5, speculative_cap_fraction=0.25)
    view = _view(num_tasks=8)
    for i in range(8):
        _run_copy(view, i, 0.0, 30.0)
    view.completed_durations.extend([1.0] * 4)
    candidates = late.speculation_candidates(view, 2.0)
    assert len(candidates) <= max(1, int(0.25 * 8))


def test_late_orders_by_benefit():
    late = LATE(detect_after=0.5, speculative_cap_fraction=1.0, slow_task_pct=1.0)
    view = _view()
    _run_copy(view, 0, 0.0, 20.0)
    _run_copy(view, 1, 0.0, 50.0)
    _run_copy(view, 2, 0.0, 1.2)
    _run_copy(view, 3, 0.0, 1.2)
    view.completed_durations.extend([1.0, 1.0])
    candidates = late.speculation_candidates(view, 2.0)
    benefits = [c.expected_benefit for c in candidates]
    assert benefits == sorted(benefits, reverse=True)
    assert candidates[0].task.task_id == 1


def test_late_validation():
    with pytest.raises(ValueError):
        LATE(detect_after=-1.0)
    with pytest.raises(ValueError):
        LATE(slow_task_pct=0.0)
    with pytest.raises(ValueError):
        LATE(speculative_cap_fraction=2.0)


def test_mantri_requires_resource_savings():
    mantri = Mantri(detect_after=0.5, resource_saving_factor=2.0)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)
    view.completed_durations.extend([10.0])
    # trem at t=2 is 28 > 2*10: speculate
    assert len(mantri.speculation_candidates(view, 2.0)) == 1
    # moderately slow task: trem 15 < 2*10: do not
    view2 = _view()
    _run_copy(view2, 0, 0.0, 17.0)
    view2.completed_durations.extend([10.0])
    assert mantri.speculation_candidates(view2, 2.0) == []


def test_mantri_early_detection():
    mantri = Mantri(detect_after=0.25)
    view = _view()
    _run_copy(view, 0, 0.0, 30.0)
    view.completed_durations.append(1.0)
    assert len(mantri.speculation_candidates(view, 0.5)) == 1


def test_mantri_validation():
    with pytest.raises(ValueError):
        Mantri(resource_saving_factor=0.5)
    with pytest.raises(ValueError):
        Mantri(max_simultaneous_copies=1)


def test_grass_is_conservative_early_aggressive_late():
    grass = GRASS(detect_after=0.5, switch_fraction=0.25, ra_factor=2.0)
    # Early phase: 4/4 tasks remaining -> RA mode, needs trem > 2*tnew.
    view = _view()
    _run_copy(view, 0, 0.0, 15.0)
    view.completed_durations.append(10.0)
    assert grass.speculation_candidates(view, 2.0) == []

    # Late phase: finish 3 of 4 tasks -> GS mode, needs only trem > tnew.
    view_late = _view()
    for i in (1, 2, 3):
        task = view_late.job.phases[0].tasks[i]
        task.state = TaskState.FINISHED
        view_late.job.phases[0].mark_task_finished(task.size)
    _run_copy(view_late, 0, 0.0, 15.0)
    view_late.completed_durations.append(10.0)
    assert len(grass.speculation_candidates(view_late, 2.0)) == 1


def test_grass_validation():
    with pytest.raises(ValueError):
        GRASS(switch_fraction=0.0)
    with pytest.raises(ValueError):
        GRASS(ra_factor=0.5)


def test_policies_never_duplicate_finished_tasks():
    for policy in (LATE(detect_after=0.1), Mantri(), GRASS()):
        view = _view()
        copy = _run_copy(view, 0, 0.0, 30.0)
        copy.task.state = TaskState.FINISHED
        view.remove_copy(copy)
        assert policy.speculation_candidates(view, 5.0) == []


# -- LATE against the pre-reordering body ------------------------------------


def _ref_late(policy, view, now):
    """LATE's candidate scan as it read before its cheap filters were
    moved first (rate read before the budget exit, trem before the
    detection and slow-rate tests). Kept verbatim as the oracle."""
    copies_by_task = view.copies_by_task
    if not copies_by_task:
        return []

    # Slow-task threshold: progress-rate percentile among running
    # copies. The sorted rate multiset is maintained incrementally by
    # the view; every task keyed in copies_by_task has at least one
    # live copy and (both simulators prune copies of finished tasks
    # synchronously) is unfinished, so len() is the running count.
    rates = view.sorted_progress_rates(now)
    if rates:
        idx = max(0, min(len(rates) - 1, int(policy.slow_task_pct * len(rates))))
        rate_threshold = rates[idx]
    else:
        rate_threshold = float("inf")

    # How many tasks may speculate at once.
    num_running_tasks = len(copies_by_task)
    cap = max(1, int(policy.speculative_cap_fraction * num_running_tasks))
    budget = cap - view.num_speculating_tasks
    if budget <= 0:
        return []

    max_copies = policy.max_copies_per_task()
    detect_after = policy.detect_after
    requests = []
    for copies in copies_by_task.values():
        if not copies:
            continue
        first = copies[0]
        task = first.task
        if task.state is TaskState.FINISHED or len(copies) >= max_copies:
            continue
        if len(copies) == 1:
            slowest = first
            # estimated_remaining of the only copy, inlined.
            if now <= first.start_time:
                trem = task.size
            else:
                trem = first.start_time + first.duration - now
                if trem < 0.0:
                    trem = 0.0
        else:
            slowest = max(copies, key=lambda c: c.duration)
            trem = min(c.estimated_remaining(now) for c in copies)
        if now - slowest.start_time < detect_after:
            continue
        if 1.0 / slowest.duration > rate_threshold:
            continue  # not among the slow tasks
        # The race's current best copy decides whether a fresh draw
        # can still win.
        tnew = view.estimate_new_copy_duration(task)
        if trem <= tnew:
            continue  # a new copy cannot win the race
        requests.append(
            SpeculationRequest(
                task=task,
                expected_new_duration=tnew,
                expected_benefit=trem - tnew,
            )
        )
    return policy._slowest_first(requests)[:budget]


def _random_view(seed, now):
    """A view of 1-14 tasks racing 0-3 live copies each, registered in
    start order; some copies start exactly at ``now``."""
    rng = random.Random(seed)
    num_tasks = rng.randint(1, 14)
    view = _view(num_tasks, sizes=[rng.uniform(0.5, 6.0) for _ in range(num_tasks)])
    view.completed_durations.extend(
        rng.uniform(0.5, 8.0) for _ in range(rng.choice([0, 0, 1, 4]))
    )
    launches = []
    for index in range(num_tasks):
        for k in range(rng.choice([0, 1, 1, 1, 2, 2, 3])):
            start = rng.choice([now, now, now - 0.5, now - 1.0])
            start -= rng.choice([0.0, rng.uniform(0.0, 4.0)])
            duration = rng.choice([2.0, rng.uniform(0.3, 12.0)])
            launches.append((start, index, duration, k > 0))
    launches.sort(key=lambda launch: launch[0])
    for copy_id, (start, index, duration, speculative) in enumerate(launches):
        _run_copy(view, index, start, duration, copy_id, speculative)
    if rng.random() < 0.1 and view.copies_by_task:
        task_id = rng.choice(sorted(view.copies_by_task))
        view.copies_by_task[task_id][0].task.state = TaskState.FINISHED
    return view


def _requests(requests):
    return [
        (r.task.task_id, r.expected_new_duration, r.expected_benefit)
        for r in requests
    ]


@pytest.mark.parametrize("detect_after", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("max_copies", [2, 3])
def test_late_matches_reference_on_random_views(detect_after, max_copies):
    now = 5.0
    seen_budget_exit = seen_requests = seen_multi_copy = 0
    for seed in range(300):
        policy = LATE(
            detect_after=detect_after,
            slow_task_pct=random.Random(seed).choice([0.1, 0.25, 0.6, 1.0]),
            speculative_cap_fraction=random.Random(seed + 1).choice([0.1, 0.3, 1.0]),
            max_copies=max_copies,
        )
        # Separate but identical views: the old body's rate read merges
        # pending rates, so neither call may see the other's side effect.
        got = policy.speculation_candidates(_random_view(seed, now), now)
        view = _random_view(seed, now)
        want = _ref_late(policy, view, now)
        assert _requests(got) == _requests(want), seed
        # Both bodies agree on the same (already merged) view too.
        assert _requests(policy.speculation_candidates(view, now)) == _requests(want)
        cap = max(1, int(policy.speculative_cap_fraction * len(view.copies_by_task)))
        seen_budget_exit += cap - view.num_speculating_tasks <= 0
        seen_requests += bool(want)
        seen_multi_copy += view.num_speculating_tasks > 0
    assert seen_budget_exit and seen_requests and seen_multi_copy
