"""Integration tests for the decentralized (Sparrow-style) simulator."""

import pytest

from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
from repro.decentralized.simulator import DecentralizedSimulator
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomSource
from repro.speculation import LATE, NoSpeculation
from repro.stragglers.model import NoStragglerModel, ParetoRedrawStragglerModel
from repro.workload.generator import SPARK_FACEBOOK_PROFILE, TraceGenerator
from repro.workload.job import make_chain_job, make_single_phase_job
from repro.workload.traces import Trace


def _config(**kwargs):
    defaults = dict(
        num_schedulers=3,
        probe_ratio=4.0,
        worker_policy=WorkerPolicy.HOPPER,
        epsilon=1.0,
        message_delay=0.0005,
    )
    defaults.update(kwargs)
    return DecentralizedConfig(**defaults)


def _simulate(trace, workers=20, config=None, straggler=None, spec=None, seed=7):
    sim = DecentralizedSimulator(
        num_workers=workers,
        speculation=spec or (lambda: LATE()),
        trace=trace,
        straggler_model=straggler or NoStragglerModel(),
        config=config or _config(),
        random_source=RandomSource(seed=seed),
    )
    return sim, sim.run(until=1_000_000)


def _trace(num_jobs=15, seed=0, max_tasks=30, interarrival=1.0):
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=seed),
        max_phase_tasks=max_tasks,
    )
    return Trace(jobs=gen.generate(num_jobs, interarrival_mean=interarrival))


def test_single_job_completes():
    job = make_single_phase_job(0, 0.0, [1.0] * 8)
    sim, result = _simulate(Trace(jobs=[job]), workers=8)
    assert result.num_jobs == 1
    # duration ~ 1 plus a few message RTTs
    assert result.jobs[0].duration == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize(
    "policy", [WorkerPolicy.FIFO, WorkerPolicy.SRPT, WorkerPolicy.HOPPER]
)
def test_all_jobs_complete_under_every_policy(policy):
    trace = _trace(num_jobs=12)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=30,
        config=_config(worker_policy=policy),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.num_jobs == 12


def test_workers_end_idle():
    trace = _trace(num_jobs=10)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=25,
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.num_jobs == 10
    assert sim.workers  # workers never contacted are idle by construction
    for worker in sim.workers.values():
        assert worker.busy_slots == 0
        assert worker.pending_episodes == 0


def test_occupied_accounting_balances():
    trace = _trace(num_jobs=10)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=25,
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    for scheduler in sim.schedulers:
        assert scheduler.jobs == {}


def test_messages_are_counted():
    trace = _trace(num_jobs=5)
    sim, result = _simulate(trace.fresh_copy(), workers=20)
    # at least probe_ratio messages per task were sent
    assert result.messages_sent >= 4 * trace.total_tasks * 0.5


def test_probe_ratio_bounds_queue_growth():
    trace = _trace(num_jobs=5)
    config = _config(probe_ratio=2.0, max_probes_per_job=50)
    sim, result = _simulate(trace.fresh_copy(), workers=20, config=config)
    assert result.num_jobs == 5


def test_speculation_happens_with_stragglers():
    trace = _trace(num_jobs=15, max_tasks=40)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=50,
        straggler=ParetoRedrawStragglerModel(beta=1.2),
    )
    assert result.speculative_copies > 0
    assert result.speculative_wins > 0


def test_no_speculation_policy_never_duplicates():
    trace = _trace(num_jobs=10)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=30,
        spec=lambda: NoSpeculation(),
        straggler=ParetoRedrawStragglerModel(beta=1.3),
    )
    assert result.speculative_copies == 0
    assert result.num_jobs == 10


def test_speculation_improves_completion_with_heavy_tails():
    trace = _trace(num_jobs=15, max_tasks=40)
    _, with_spec = _simulate(
        trace.fresh_copy(),
        workers=60,
        straggler=ParetoRedrawStragglerModel(beta=1.2),
    )
    _, without = _simulate(
        trace.fresh_copy(),
        workers=60,
        spec=lambda: NoSpeculation(),
        straggler=ParetoRedrawStragglerModel(beta=1.2),
    )
    assert with_spec.mean_job_duration < without.mean_job_duration


def test_dag_jobs_complete():
    job = make_chain_job(0, 0.0, [[1.0] * 6, [1.0] * 3], [5.0, 0.0])
    sim, result = _simulate(Trace(jobs=[job]), workers=12)
    assert result.num_jobs == 1


def test_refusals_record_guideline_decisions():
    trace = _trace(num_jobs=15, interarrival=0.2)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=15,  # scarce: force contention
        config=_config(refusal_threshold=2),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.guideline2_decisions + result.guideline3_decisions >= 0
    assert result.num_jobs == 15


def test_fifo_policy_is_sparrow_like():
    # FIFO worker policy must also drain everything.
    trace = _trace(num_jobs=10, interarrival=0.2)
    sim, result = _simulate(
        trace.fresh_copy(),
        workers=10,
        config=_config(worker_policy=WorkerPolicy.FIFO, probe_ratio=2.0),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
    )
    assert result.num_jobs == 10


def test_results_reproducible():
    trace = _trace(num_jobs=10)

    def run_once():
        _, result = _simulate(
            trace.fresh_copy(),
            workers=25,
            straggler=ParetoRedrawStragglerModel(beta=1.4),
            seed=3,
        )
        return sorted((r.job_id, r.duration) for r in result.jobs)

    assert run_once() == run_once()


def test_zero_message_delay_supported():
    trace = _trace(num_jobs=8)
    sim, result = _simulate(
        trace.fresh_copy(), workers=20, config=_config(message_delay=0.0)
    )
    assert result.num_jobs == 8


def test_multi_slot_workers():
    job = make_single_phase_job(0, 0.0, [1.0] * 8)
    sim = DecentralizedSimulator(
        num_workers=4,
        slots_per_worker=2,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[job]),
        straggler_model=NoStragglerModel(),
        config=_config(),
        random_source=RandomSource(seed=1),
    )
    result = sim.run(until=10_000)
    assert result.num_jobs == 1
    assert sim.total_slots == 8


def test_srpt_worker_policy_prioritizes_small_jobs():
    small = make_single_phase_job(0, 0.0, [1.0] * 2, task_id_start=0)
    big = make_single_phase_job(1, 0.0, [1.0] * 30, task_id_start=100)
    trace = Trace(jobs=[big, small])
    sim, result = _simulate(
        trace,
        workers=8,
        config=_config(worker_policy=WorkerPolicy.SRPT, probe_ratio=2.0),
    )
    durations = {r.job_id: r.duration for r in result.jobs}
    assert durations[0] < durations[1]


# -- property: scheduler memos after every event ------------------------------


def _fresh_demand(sj):
    """``SchedulerAgent._has_demand`` recomputed from the job state
    without pruning the queue, restamping the throttle cache or calling
    the speculation policy: the cached candidate list is current
    whenever a memo is valid (its stamp is unchanged and unexpired)."""
    if any(not task.is_finished for task in sj.pending):
        return True
    assert isinstance(sj.spec_candidates, list)
    copies_by_task = sj.view.copies_by_task
    max_copies = sj.spec_policy.max_copies_per_task()
    for request in sj.spec_candidates:
        task = request.task
        live = copies_by_task.get(task.task_id)
        if not task.is_finished and (live is None or len(live) < max_copies):
            return True
    return False


def _assert_scheduler_memos(sim):
    """Every valid demand memo equals a fresh demand, and every gossip
    virtual size whose inputs still hold equals the formula on them.
    Returns (valid demand memos, current virtual sizes) checked."""
    from repro.core.virtual_size import virtual_size

    now = sim.sim.now
    # The estimator's current fit, read without the refit a read of
    # ``beta`` may trigger.
    beta = (
        sim.beta_estimator._cached_beta
        if sim.config.learn_beta
        else sim.config.default_beta
    )
    demands = sizes = 0
    for agent in sim.schedulers:
        for sj in agent.jobs.values():
            stamp = sj.demand_stamp
            if sj.demand_at == sj.changes and (
                stamp is None
                or (stamp == sj.spec_cache_time and now - stamp < 0.25)
            ):
                assert sj.demand == _fresh_demand(sj), sj.job.job_id
                demands += 1
            alpha_moves = sim.config.use_alpha and len(sj.job.phases) > 1
            remaining = sj.job.remaining_tasks()
            history = -1
            if alpha_moves:
                history = sim.alpha_estimator.name_version(sj.job.name)
            inputs = (remaining, beta, history)
            if sj.vsize_inputs == inputs:
                alpha = 1.0
                if alpha_moves:
                    alpha = sim.alpha_estimator.predict_alpha(sj.job)
                expected = virtual_size(remaining, beta, alpha)
                assert sj.gossip.virtual_size == expected, sj.job.job_id
                sizes += 1
    return demands, sizes


_STRIKES = {"blacklist_policy": "strikes", "strike_threshold": 2}
_SHRINKS = {"autoscaler": "schedule", "resize_schedule": "2:-20,5:+20,8:-20"}

#: system, speculation policy, extra knobs.
_MEMO_GRID = [
    ("hopper", "late", _STRIKES),
    ("hopper", "grass", {}),
    ("hopper", "mantri", _SHRINKS),
    ("sparrow", "late", {}),
    ("sparrow-srpt", "mantri", _STRIKES),
    ("sparrow-lb", "grass", _SHRINKS),
    ("sparrow-lb", "late", {}),
]


@pytest.mark.parametrize(
    "system,speculation,knobs",
    _MEMO_GRID,
    ids=["-".join([s, p, *k]) for s, p, k in _MEMO_GRID],
)
def test_scheduler_memos_match_fresh_values_after_every_event(
    system, speculation, knobs
):
    import hashlib
    import json

    from repro.experiments.harness import (
        WorkloadSpec,
        build_decentralized_simulator,
        build_trace,
    )
    from repro.metrics.serialize import result_to_dict

    spec = WorkloadSpec(
        profile=SPARK_FACEBOOK_PROFILE,
        num_jobs=30,
        utilization=0.8,
        total_slots=80,
        seed=3,
    )
    trace = build_trace(spec)

    def build():
        return build_decentralized_simulator(
            trace,
            system,
            spec,
            speculation=speculation,
            num_schedulers=3,
            straggler_model="machine-correlated",
            obs=None,
            **knobs,
        )

    sim = build()
    sim.sim.schedule_many(
        (
            (job.arrival_time, sim._on_job_arrival, (job,))
            for job in sim.trace
        ),
        absolute=True,
    )
    if sim._elastic is not None:
        sim._elastic.prime(sim)
    events = demands = sizes = 0
    while sim.sim.pending_events:
        sim.sim.run(max_events=1)
        events += 1
        checked = _assert_scheduler_memos(sim)
        demands += checked[0]
        sizes += checked[1]
    sim._finalize_diagnostics()
    probed = sim.metrics.result
    assert probed.num_jobs == spec.num_jobs
    assert probed.speculative_copies > 0
    assert events > 1000 and demands > 1000 and sizes > 1000
    if "blacklist_policy" in knobs:
        assert probed.evictions > 0
    if "autoscaler" in knobs:
        assert sim._elastic.machines_removed > 0

    # The checks consumed no entropy and moved no cache: a plain run of
    # the same configuration replays identically.
    def digest(result):
        payload = json.dumps(result_to_dict(result), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    assert digest(build().run()) == digest(probed)


@pytest.mark.parametrize("late_binding", [False, True])
def test_no_completed_job_stays_in_a_scheduler_after_any_event(
    monkeypatch, late_binding
):
    """A job leaves its scheduler's ``jobs`` in the event that completes
    it, which is what lets slot offers and pulls skip the completion
    check: after every engine event, no listed job is complete."""
    sim = DecentralizedSimulator(
        num_workers=20,
        speculation=lambda: LATE(),
        trace=_trace(num_jobs=12).fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(beta=1.4),
        config=_config(late_binding=late_binding),
        random_source=RandomSource(seed=7),
    )
    step = Simulator.run
    events = []

    def run_one_event_at_a_time(engine, until=None, max_events=None):
        while engine.pending_events:
            step(engine, max_events=1)
            events.append(engine.events_processed)
            for scheduler in sim.schedulers:
                for sj in scheduler.jobs.values():
                    assert not sj.job.is_complete, (
                        f"job {sj.job.job_id} complete but still listed "
                        f"after event {engine.events_processed}"
                    )
        return engine.now

    monkeypatch.setattr(Simulator, "run", run_one_event_at_a_time)
    result = sim.run()
    assert result.num_jobs == 12
    # One check per engine event; a batched delivery credits the extra
    # messages it carries to events_processed.
    assert 12 < len(events) <= sim.sim.events_processed == events[-1]
    assert all(not scheduler.jobs for scheduler in sim.schedulers)
