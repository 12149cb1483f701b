"""Tests for the synthetic trace generators and traces."""

import copy

import pytest

from repro.simulation.rng import RandomSource
from repro.workload.generator import (
    FACEBOOK_PROFILE,
    SPARK_FACEBOOK_PROFILE,
    BinnedJobSizeDistribution,
    TraceGenerator,
    WorkloadProfile,
    bin_index_for_size,
    bin_label,
)
from repro.workload.task import Task, TaskState
from repro.workload.traces import (
    Trace,
    arrival_rate_for_utilization,
    clone_job,
    merge_traces,
)


def test_bin_index_matches_paper_bins():
    assert bin_index_for_size(1) == 0
    assert bin_index_for_size(50) == 0
    assert bin_index_for_size(51) == 1
    assert bin_index_for_size(150) == 1
    assert bin_index_for_size(151) == 2
    assert bin_index_for_size(500) == 2
    assert bin_index_for_size(501) == 3
    assert bin_index_for_size(100000) == 3


def test_bin_labels():
    assert bin_label(0) == "1-50"
    assert bin_label(3).startswith(">")


def test_binned_job_sizes_cover_all_bins():
    dist = BinnedJobSizeDistribution(bin_weights=(0.25, 0.25, 0.25, 0.25))
    rng = RandomSource(seed=0).rng
    seen = set()
    for _ in range(2000):
        seen.add(bin_index_for_size(int(round(dist.sample(rng)))))
    assert seen == {0, 1, 2, 3}


def test_binned_job_sizes_validates_weights():
    with pytest.raises(ValueError):
        BinnedJobSizeDistribution(bin_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        BinnedJobSizeDistribution(bin_weights=(0.0, 0.0, 0.0, 0.0))


def test_generator_is_deterministic():
    a = TraceGenerator(FACEBOOK_PROFILE, random_source=RandomSource(seed=5))
    b = TraceGenerator(FACEBOOK_PROFILE, random_source=RandomSource(seed=5))
    jobs_a = a.generate(20, interarrival_mean=1.0)
    jobs_b = b.generate(20, interarrival_mean=1.0)
    assert [j.num_tasks for j in jobs_a] == [j.num_tasks for j in jobs_b]
    assert [j.arrival_time for j in jobs_a] == [j.arrival_time for j in jobs_b]


def test_generator_task_ids_are_globally_unique():
    gen = TraceGenerator(FACEBOOK_PROFILE, random_source=RandomSource(seed=1))
    jobs = gen.generate(20, interarrival_mean=1.0)
    ids = [t.task_id for j in jobs for t in j.all_tasks()]
    assert len(ids) == len(set(ids))


def test_generator_respects_max_phase_tasks():
    gen = TraceGenerator(
        FACEBOOK_PROFILE,
        random_source=RandomSource(seed=2),
        max_phase_tasks=40,
    )
    jobs = gen.generate(30, interarrival_mean=1.0)
    for job in jobs:
        assert job.phases[0].num_tasks <= 40


def test_generator_dag_shrinks_downstream():
    gen = TraceGenerator(FACEBOOK_PROFILE, random_source=RandomSource(seed=3))
    jobs = gen.generate(40, interarrival_mean=1.0)
    for job in jobs:
        sizes = [p.num_tasks for p in job.phases]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_generator_intermediate_data_only_on_non_final_phases():
    gen = TraceGenerator(FACEBOOK_PROFILE, random_source=RandomSource(seed=4))
    for job in gen.generate(30, interarrival_mean=1.0):
        assert job.phases[-1].output_data == 0.0
        for phase in job.phases[:-1]:
            assert phase.output_data > 0.0


def test_generator_recurring_names():
    profile = WorkloadProfile(
        name="t",
        beta=1.5,
        task_scale=1.0,
        job_size=FACEBOOK_PROFILE.job_size,
        dag_length=FACEBOOK_PROFILE.dag_length,
        recurring_fraction=1.0,
        num_recurring_families=3,
    )
    gen = TraceGenerator(profile, random_source=RandomSource(seed=5))
    names = {j.name for j in gen.generate(30, interarrival_mean=1.0)}
    assert len(names) <= 3


def test_generator_locality_placement():
    gen = TraceGenerator(
        FACEBOOK_PROFILE,
        random_source=RandomSource(seed=6),
        num_machines=20,
        replicas=3,
    )
    job = gen.next_job(0.0)
    for task in job.phases[0].tasks:
        assert len(task.preferred_machines) == 3
        assert all(0 <= m < 20 for m in task.preferred_machines)


def test_mean_job_work_positive_and_stable():
    gen = TraceGenerator(FACEBOOK_PROFILE, random_source=RandomSource(seed=7))
    w1 = gen.mean_job_work(samples=100)
    w2 = gen.mean_job_work(samples=100)
    assert w1 > 0
    assert w1 == w2  # same probe stream


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(
            name="bad",
            beta=-1.0,
            task_scale=1.0,
            job_size=FACEBOOK_PROFILE.job_size,
            dag_length=FACEBOOK_PROFILE.dag_length,
        )


# -- traces --------------------------------------------------------------------

def _small_trace(seed=0, n=30):
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE, random_source=RandomSource(seed=seed)
    )
    return Trace(jobs=gen.generate(n, interarrival_mean=1.0))


def test_trace_sorted_by_arrival():
    trace = _small_trace()
    arrivals = [j.arrival_time for j in trace]
    assert arrivals == sorted(arrivals)


def test_arrival_rate_for_utilization():
    rate = arrival_rate_for_utilization(
        mean_job_work=100.0, total_slots=50, utilization=0.5
    )
    assert rate == pytest.approx(0.25)
    with pytest.raises(ValueError):
        arrival_rate_for_utilization(0.0, 50, 0.5)
    with pytest.raises(ValueError):
        arrival_rate_for_utilization(10.0, 50, 1.5)


def test_rescaled_to_utilization_hits_target():
    trace = _small_trace(n=60)
    rescaled = trace.rescaled_to_utilization(total_slots=100, utilization=0.7)
    assert rescaled.offered_utilization(100) == pytest.approx(0.7, rel=1e-6)


def test_rescaled_preserves_job_count_and_work():
    trace = _small_trace(n=40)
    rescaled = trace.rescaled_to_utilization(total_slots=100, utilization=0.5)
    assert len(rescaled) == len(trace)
    assert rescaled.total_work == pytest.approx(trace.total_work)


def test_fresh_copy_clears_runtime_state():
    trace = _small_trace(n=5)
    job = trace.jobs[0]
    job.finish_time = 1.0
    task = job.phases[0].tasks[0]
    from repro.workload.task import TaskState

    task.state = TaskState.FINISHED
    job.phases[0].mark_task_finished(task.size)
    fresh = trace.fresh_copy()
    assert fresh.jobs[0].finish_time is None
    assert fresh.jobs[0].remaining_tasks() == job.num_tasks
    # original untouched
    assert trace.jobs[0].finish_time == 1.0


def test_merge_traces_interleaves():
    a = _small_trace(seed=1, n=10)
    b = _small_trace(seed=2, n=10)
    merged = merge_traces([a, b])
    assert len(merged) == 20
    arrivals = [j.arrival_time for j in merged]
    assert arrivals == sorted(arrivals)


def test_merge_traces_does_not_share_jobs_with_sources():
    """Regression: replaying a merged trace must not mutate the originals."""
    from repro.workload.task import TaskState

    a = _small_trace(seed=1, n=5)
    b = _small_trace(seed=2, n=5)
    merged = merge_traces([a, b])
    assert all(
        merged_job is not source_job
        for merged_job in merged.jobs
        for source_job in list(a.jobs) + list(b.jobs)
    )
    # Simulate a replay mutating the merged trace's runtime state.
    for job in merged.jobs:
        job.finish_time = 99.0
        task = job.phases[0].tasks[0]
        task.state = TaskState.FINISHED
        job.phases[0].mark_task_finished(task.size)
    for source_job in list(a.jobs) + list(b.jobs):
        assert source_job.finish_time is None
        assert source_job.remaining_tasks() == source_job.num_tasks
        assert all(
            t.state is TaskState.PENDING for t in source_job.all_tasks()
        )


def test_merge_traces_copies_per_occurrence():
    """merge([a, a]) must yield distinct Job objects with unique ids,
    not two aliases of the same clone."""
    a = _small_trace(seed=1, n=5)
    merged = merge_traces([a, a])
    assert len(merged) == 10
    assert len({id(j) for j in merged.jobs}) == 10
    ids = [j.job_id for j in merged.jobs]
    assert len(set(ids)) == 10


def test_merge_traces_renumbers_colliding_job_ids():
    """Traces from independent generators both number jobs from 0; the
    merged (copied) jobs must get unique ids so a replay can key by id."""
    a = _small_trace(seed=1, n=5)
    b = _small_trace(seed=2, n=5)
    merged = merge_traces([a, b])
    ids = [j.job_id for j in merged.jobs]
    assert len(set(ids)) == len(ids)
    for job in merged.jobs:
        assert all(t.job_id == job.job_id for t in job.all_tasks())
    # sources keep their original numbering
    assert sorted(j.job_id for j in a.jobs) == list(range(5))
    assert sorted(j.job_id for j in b.jobs) == list(range(5))


def test_merge_traces_resets_runtime_state():
    """Merging already-replayed traces yields a replayable trace."""
    a = _small_trace(seed=3, n=4)
    a.jobs[0].finish_time = 12.0
    merged = merge_traces([a])
    assert all(j.finish_time is None for j in merged.jobs)
    assert all(
        j.remaining_tasks() == j.num_tasks for j in merged.jobs
    )


# -- structural job clone ------------------------------------------------------


def _partly_replayed_dag_trace():
    """DAG jobs with locality preferences, one rescaled phase, and some
    runtime state already written by a (simulated) partial replay."""
    gen = TraceGenerator(
        FACEBOOK_PROFILE,
        random_source=RandomSource(seed=9),
        num_machines=20,
        max_phase_tasks=12,
    )
    trace = Trace(jobs=gen.generate(12, interarrival_mean=1.0))
    dag = next(job for job in trace.jobs if job.num_phases > 1)
    assert any(t.preferred_machines for t in dag.all_tasks())
    dag.phases[-1].scale_work(1.37)
    for job in trace.jobs[::2]:
        phase = job.phases[0]
        done = phase.tasks[0]
        done.state = TaskState.FINISHED
        done.finish_time = 4.5
        done.completed_by_speculative = True
        phase.mark_task_finished(done.size)
        for task in phase.tasks[1:3]:
            task.state = TaskState.RUNNING
    trace.jobs[0].finish_time = 7.25
    return trace


def _objects(job):
    """The job, then its phases, then its tasks, in a fixed order."""
    yield job
    yield from job.phases
    yield from job.all_tasks()


_IMMUTABLE = (int, float, str, tuple, type(None), TaskState)


def _fields(obj):
    """Attribute dict of a job or phase; slot values of a slotted task."""
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def test_task_is_slotted_and_every_field_is_a_slot():
    """A trace copy holds one ``Task`` per task, with no instance dict;
    the clone tests below compare every slot."""
    task = _partly_replayed_dag_trace().jobs[0].phases[0].tasks[0]
    assert not hasattr(task, "__dict__")
    assert set(_fields(task)) == set(Task.__dataclass_fields__)


def test_clone_job_matches_deepcopy():
    for job in _partly_replayed_dag_trace().jobs:
        clone = clone_job(job)
        deep = copy.deepcopy(job)
        for got, want in zip(_objects(clone), _objects(deep), strict=True):
            assert type(got) is type(want)
            assert _fields(got) == _fields(want)
            assert {k: type(v) for k, v in _fields(got).items()} == {
                k: type(v) for k, v in _fields(want).items()
            }
        # The index points at the clone's own phases.
        assert all(clone.phase(p.index) is p for p in clone.phases)


def test_clone_job_rebuilds_every_container():
    for job in _partly_replayed_dag_trace().jobs:
        clone = clone_job(job)
        for got, source in zip(_objects(clone), _objects(job), strict=True):
            assert got is not source
            for key, value in _fields(got).items():
                if isinstance(value, (list, dict)):
                    assert value is not _fields(source)[key], key
                else:
                    # Anything shared with the source must be immutable.
                    assert isinstance(value, _IMMUTABLE), key


def test_clone_job_runtime_mutation_leaves_source_untouched():
    trace = _partly_replayed_dag_trace()
    before = copy.deepcopy(trace.jobs)
    clones = [clone_job(job) for job in trace.jobs]
    for clone in clones:
        clone.finish_time = 99.0
        for phase in clone.phases:
            for task in phase.tasks:
                if task.is_finished:
                    continue
                task.state = TaskState.FINISHED
                task.finish_time = 42.0
                task.completed_by_speculative = True
                phase.mark_task_finished(task.size)
        assert clone.is_complete
    for source, snapshot in zip(trace.jobs, before, strict=True):
        for got, want in zip(_objects(source), _objects(snapshot), strict=True):
            assert _fields(got) == _fields(want)


def test_fresh_copy_matches_deepcopy_then_reset():
    trace = _partly_replayed_dag_trace()
    fresh = trace.fresh_copy()
    expected = copy.deepcopy(trace.jobs)
    for job in expected:
        job.reset_runtime_state()
    for got_job, want_job in zip(fresh.jobs, expected, strict=True):
        for got, want in zip(_objects(got_job), _objects(want_job), strict=True):
            assert _fields(got) == _fields(want)
