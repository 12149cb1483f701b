"""Unit tests for the scale-out machinery added with the scale study:
engine batching/compaction, order-preserving message coalescing,
incremental speculation bookkeeping, straggler batch draws and the
machine-correlated registry wiring."""

import random

import pytest

from repro import registry
from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
from repro.decentralized.simulator import DecentralizedSimulator
from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.rng import RandomSource
from repro.speculation import LATE
from repro.speculation.base import JobExecutionView
from repro.stragglers.model import (
    MachineCorrelatedStragglerModel,
    NoStragglerModel,
    ParetoRedrawStragglerModel,
    ParetoStragglerModel,
)
from repro.stragglers.progress import TaskCopy
from repro.sweep import RunSpec, WorkloadParams
from repro.workload.distributions import (
    BoundedParetoDistribution,
    ParetoDistribution,
    UniformDistribution,
)
from repro.workload.job import make_single_phase_job
from repro.workload.traces import Trace


# -- engine ----------------------------------------------------------------

def test_schedule_many_matches_individual_schedules():
    reference, batched = Simulator(), Simulator()
    fired_ref, fired_batch = [], []
    items = [(5.0, fired_ref.append, ("a",)), (1.0, fired_ref.append, ("b",)),
             (5.0, fired_ref.append, ("c",)), (0.0, fired_ref.append, ("d",))]
    for delay, fn, args in items:
        reference.schedule(delay, fn, *args)
    batched.schedule_many(
        [(delay, fired_batch.append, args) for delay, _, args in items]
    )
    reference.run()
    batched.run()
    assert fired_ref == fired_batch == ["d", "b", "a", "c"]


def test_schedule_many_absolute_and_validation():
    sim = Simulator(start_time=10.0)
    fired = []
    sim.schedule_many(
        [(12.0, fired.append, ("x",))], absolute=True
    )
    with pytest.raises(SimulationError):
        sim.schedule_many([(5.0, fired.append, ("past",))], absolute=True)
    sim.run()
    assert fired == ["x"]


def test_large_batch_heapify_path_keeps_order():
    sim = Simulator()
    fired = []
    # Small heap + large batch triggers the extend+heapify path.
    sim.schedule(0.5, fired.append, -1)
    sim.schedule_many(
        [(float(1000 - i), fired.append, (i,)) for i in range(1000)]
    )
    sim.run()
    assert fired == [-1] + list(range(999, -1, -1))


def test_heap_compaction_drops_tombstones_and_preserves_order():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i + 1), fired.append, i) for i in range(2000)]
    for handle in handles[:1300]:
        handle.cancel()
    # Trigger compaction via a fresh schedule: >256 tombstones, > half.
    assert sim.pending_events == 2000
    sim.schedule(0.5, fired.append, -1)
    assert sim.pending_events == 701  # cancelled stubs were compacted away
    sim.run()
    assert fired == [-1] + list(range(1300, 2000))


def test_cancel_after_compaction_is_harmless():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(600)]
    for handle in handles:
        handle.cancel()
    sim.schedule(0.1, lambda: None)
    for handle in handles:
        handle.cancel()  # idempotent, even though entries are gone
    assert sim.run() == 0.1
    assert sim.events_processed == 1


def test_credit_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.credit_events(4)
    assert sim.events_processed == 5
    with pytest.raises(SimulationError):
        sim.credit_events(-1)


def test_sequence_marker_advances_on_schedule_only():
    sim = Simulator()
    before = sim.sequence_marker()
    handle = sim.schedule(1.0, lambda: None)
    assert sim.sequence_marker() == before + 1
    handle.cancel()
    assert sim.sequence_marker() == before + 1


# -- batched control-message delivery --------------------------------------

def _tiny_sim(**config_kwargs):
    defaults = dict(
        num_schedulers=1,
        worker_policy=WorkerPolicy.HOPPER,
        probe_ratio=2.0,
        epsilon=1.0,
        message_delay=0.001,
    )
    defaults.update(config_kwargs)
    job = make_single_phase_job(0, 0.0, [1.0])
    return DecentralizedSimulator(
        num_workers=2,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[job]),
        straggler_model=NoStragglerModel(),
        config=DecentralizedConfig(**defaults),
        random_source=RandomSource(seed=0),
    )


def test_send_burst_coalesces_into_one_engine_event():
    sim = _tiny_sim()
    order = []
    before = sim.sim.pending_events
    for i in range(5):
        sim.send(order.append, i)
    assert sim.sim.pending_events == before + 1  # one batch event
    sim.sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert sim.metrics.result.messages_sent == 5
    # Each delivered message counts as one logical event.
    assert sim.sim.events_processed == 5


def test_interleaved_schedule_closes_the_batch_but_keeps_order():
    sim = _tiny_sim()
    order = []
    sim.send(order.append, "m1")
    # An unrelated event at the same delivery tick must stay between the
    # two message batches, exactly as with one-event-per-message.
    sim.sim.schedule(0.001, order.append, "between")
    sim.send(order.append, "m2")
    sim.sim.run()
    assert order == ["m1", "between", "m2"]


def test_sends_at_different_ticks_do_not_share_a_batch():
    sim = _tiny_sim(message_delay=0.5)
    order = []
    sim.send(order.append, "early")
    sim.sim.schedule(0.25, lambda: sim.send(order.append, "late"))
    sim.sim.run()
    assert order == ["early", "late"]


# -- speculation view bookkeeping ------------------------------------------

def _copy(task, copy_id, start, duration):
    return TaskCopy(
        copy_id=copy_id,
        task=task,
        machine_id=0,
        start_time=start,
        duration=duration,
    )


def test_view_sorted_rates_match_reference_computation():
    job = make_single_phase_job(0, 0.0, [1.0, 2.0, 3.0])
    tasks = job.phases[0].tasks
    view = JobExecutionView(job=job)
    copies = [
        _copy(tasks[0], 0, start=0.0, duration=2.0),
        _copy(tasks[1], 1, start=0.0, duration=4.0),
        _copy(tasks[2], 2, start=1.0, duration=8.0),
        _copy(tasks[0], 3, start=1.0, duration=1.0),
    ]
    for copy in copies:
        view.register_copy(copy)

    def reference(now):
        return sorted(
            1.0 / c.duration
            for per_task in view.copies_by_task.values()
            for c in per_task
            if now > c.start_time
        )

    # At the most recent start tick, those copies are excluded.
    assert view.sorted_progress_rates(1.0) == reference(1.0)
    # Once time advances past it, everything is included.
    assert view.sorted_progress_rates(2.0) == reference(2.0)
    view.remove_copy(copies[1])
    assert view.sorted_progress_rates(2.0) == reference(2.0)
    view.remove_copy(copies[3])
    assert view.sorted_progress_rates(3.0) == reference(3.0)


def test_view_num_speculating_tasks_counter():
    job = make_single_phase_job(0, 0.0, [1.0, 2.0])
    tasks = job.phases[0].tasks
    view = JobExecutionView(job=job)
    first = _copy(tasks[0], 0, 0.0, 2.0)
    second = _copy(tasks[0], 1, 0.5, 2.0)
    other = _copy(tasks[1], 2, 0.0, 2.0)
    view.register_copy(first)
    view.register_copy(other)
    assert view.num_speculating_tasks == 0
    view.register_copy(second)
    assert view.num_speculating_tasks == 1
    view.remove_copy(first)
    assert view.num_speculating_tasks == 0
    view.remove_copy(second)
    view.remove_copy(other)
    assert view.num_speculating_tasks == 0


def test_median_cache_tracks_appends():
    job = make_single_phase_job(0, 0.0, [4.0])
    task = job.phases[0].tasks[0]
    view = JobExecutionView(job=job)
    assert view.estimate_new_copy_duration(task) == 4.0  # falls back to size
    view.completed_durations.extend([1.0, 3.0])
    assert view.estimate_new_copy_duration(task) == 2.0
    view.completed_durations.append(100.0)
    assert view.estimate_new_copy_duration(task) == 3.0


# -- straggler models -------------------------------------------------------

def test_slowdown_many_consumes_the_same_rng_stream():
    job = make_single_phase_job(0, 0.0, [2.0, 3.0, 5.0])
    tasks = job.phases[0].tasks
    items = [
        (tasks[0], 0, 0),
        (tasks[1], 3, 1),
        (tasks[2], 1, 2),
        (tasks[0], 2, 1),
    ]
    for model in (
        ParetoRedrawStragglerModel(beta=1.4, scale=1.0),
        ParetoStragglerModel(straggler_prob=0.5),
        MachineCorrelatedStragglerModel(num_machines=8),
        NoStragglerModel(),
    ):
        sequential = random.Random(123)
        batched = random.Random(123)
        expected = [
            model.slowdown(sequential, task, machine, attempt)
            for task, machine, attempt in items
        ]
        assert model.slowdown_many(batched, items) == expected
        # Both consumed the identical stream.
        assert sequential.random() == batched.random()


def test_cached_inverse_cdf_matches_distribution_sampling():
    """The precomputed-constant sampling paths must replay the
    distribution objects' draws bit-for-bit."""
    job = make_single_phase_job(0, 0.0, [2.0])
    task = job.phases[0].tasks[0]

    redraw = ParetoRedrawStragglerModel(beta=1.4, scale=1.5)
    reference = ParetoDistribution(shape=1.4, scale=1.5)
    a, b = random.Random(7), random.Random(7)
    for _ in range(50):
        assert redraw.slowdown(a, task, 0, 1) == reference.sample(b) / task.size

    iid = ParetoStragglerModel(
        straggler_prob=0.5, tail_shape=1.1, min_slowdown=2.0,
        max_slowdown=8.0, jitter=0.1,
    )
    tail = BoundedParetoDistribution(shape=1.1, lo=2.0, hi=8.0)
    benign = UniformDistribution(0.9, 1.1)
    a, b = random.Random(11), random.Random(11)
    for _ in range(200):
        got = iid.slowdown(a, task, 0, 1)
        if b.random() < 0.5:
            expected = tail.sample(b)
        else:
            expected = benign.sample(b)
        assert got == expected


# -- machine-correlated registration ----------------------------------------

def test_machine_correlated_is_registered():
    assert "machine-correlated" in registry.STRAGGLER_MODELS
    model = registry.make_straggler_model(
        "machine-correlated", num_machines=40
    )
    assert isinstance(model, MachineCorrelatedStragglerModel)
    assert model.num_machines == 40


def test_machine_correlated_without_num_machines_fails_loudly():
    with pytest.raises(registry.KnobError, match="num_machines"):
        registry.make_straggler_model("machine-correlated")


def test_machine_correlated_runs_through_runspec_both_kinds():
    wl = WorkloadParams(
        profile="facebook",
        num_jobs=6,
        utilization=0.6,
        total_slots=40,
        max_phase_tasks=20,
    )
    for kind, system in (("decentralized", "hopper"), ("centralized", "srpt")):
        spec = RunSpec(
            kind, system, wl, knobs={"straggler_model": "machine-correlated"}
        )
        result = spec.execute()
        assert result.num_jobs == 6
        # Deterministic: same spec, same outcome.
        assert spec.execute().mean_job_duration == result.mean_job_duration


def test_harness_wires_cluster_size_into_machine_correlated(monkeypatch):
    from repro.experiments import harness

    seen = {}
    original = registry.make_straggler_model

    def spy(name, profile=None, num_machines=None, **kwargs):
        seen["num_machines"] = num_machines
        return original(name, profile, num_machines=num_machines, **kwargs)

    monkeypatch.setattr(harness.registry, "make_straggler_model", spy)
    wspec = harness.WorkloadSpec(num_jobs=4, total_slots=24)
    trace = harness.build_trace(wspec)
    harness.run_simulator(
        "decentralized/hopper",
        trace,
        wspec,
        straggler_model="machine-correlated",
    )
    assert seen["num_machines"] == 24  # one slot per worker
    harness.run_simulator(
        "centralized/srpt",
        trace,
        wspec,
        straggler_model="machine-correlated",
        slots_per_machine=4,
    )
    assert seen["num_machines"] == 6  # 24 slots / 4 per machine

