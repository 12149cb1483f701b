"""Tests for the shared runtime core (repro.runtime).

The JobRuntime locality buckets and the view's live-speculative index
are fast paths over behavior the golden digests pin, so every test here
checks *equivalence with the reference scan*, not just plausibility.
"""

import random
from collections import deque

from repro.cluster.membership import BLACKLISTED
from repro.estimation.beta import OnlineBetaEstimator
from repro.metrics.collector import MetricsCollector
from repro.runtime import CopyLedger, JobRuntime, LocalityJobRuntime
from repro.simulation.engine import Simulator
from repro.speculation.base import JobExecutionView
from repro.stragglers.progress import TaskCopy
from repro.workload.job import make_chain_job, make_single_phase_job
from repro.workload.task import TaskState


def _job_with_tasks(num_tasks, preferred=None, job_id=0):
    return make_single_phase_job(
        job_id, 0.0, [1.0] * num_tasks, preferred=preferred
    )


# -- JobRuntime: pending queue + phase activation ---------------------------


def test_activation_queues_only_runnable_phases():
    job = make_chain_job(0, 0.0, [[1.0] * 3, [1.0] * 2], [100.0, 0.0])
    jr = JobRuntime(job)
    fresh = jr.activate_runnable_phases()
    assert [t.task_id for t in fresh] == [t.task_id for t in job.phases[0].tasks]
    assert jr.pending_ids == {t.task_id for t in job.phases[0].tasks}
    # Re-activation is idempotent until the phase becomes runnable.
    assert jr.activate_runnable_phases() == []


def test_pop_pending_prunes_finished_tasks():
    job = _job_with_tasks(3)
    jr = JobRuntime(job)
    jr.activate_runnable_phases()
    job.phases[0].tasks[0].state = TaskState.FINISHED
    popped = jr.pop_pending()
    assert popped is job.phases[0].tasks[1]
    assert job.phases[0].tasks[0].task_id not in jr.pending_ids


def _reference_pop(pending, prefer_machine):
    """The pre-runtime bounded-scan pop (verbatim semantics)."""
    while pending and pending[0].is_finished:
        pending.popleft()
    if not pending:
        return None
    if prefer_machine is not None:
        scan_limit = min(len(pending), 64)
        for i in range(scan_limit):
            task = pending[i]
            if not task.is_finished and task.prefers(prefer_machine):
                del pending[i]
                return task
    return pending.popleft()


def _reference_has_local(pending, machine_id):
    scan_limit = min(len(pending), 64)
    for i in range(scan_limit):
        task = pending[i]
        if not task.is_finished and task.prefers(machine_id):
            return True
    return False


def _random_locality_job(rng, num_tasks, num_machines, job_id=0):
    preferred = []
    for _ in range(num_tasks):
        if rng.random() < 0.5:
            preferred.append(
                tuple(
                    rng.sample(
                        range(num_machines),
                        rng.randint(1, min(3, num_machines)),
                    )
                )
            )
        else:
            preferred.append(())  # wildcard: prefers every machine
    return make_single_phase_job(
        job_id, 0.0, [1.0] * num_tasks, preferred=preferred
    )


def test_pop_pending_matches_reference_bounded_scan():
    """Property: with the bucket fast-reject in front, pop_pending picks
    exactly the task the reference 64-entry scan picks, for randomized
    queues, preferences, finished flags, and machine choices."""
    rng = random.Random(42)
    for _ in range(60):
        num_machines = rng.randint(1, 8)
        num_tasks = rng.randint(1, 90)
        job = _random_locality_job(rng, num_tasks, num_machines)
        jr = LocalityJobRuntime(job)
        jr.activate_runnable_phases()
        reference = deque(jr.pending)
        # Randomly finish some tasks mid-queue (the scan must skip them).
        for task in job.phases[0].tasks:
            if rng.random() < 0.2:
                task.state = TaskState.FINISHED
        while True:
            prefer = (
                rng.randrange(num_machines) if rng.random() < 0.8 else None
            )
            expected = _reference_pop(reference, prefer)
            actual = jr.pop_pending(prefer_machine=prefer)
            assert actual is expected
            if actual is None:
                break


def test_has_pending_local_to_matches_reference():
    rng = random.Random(7)
    for _ in range(40):
        num_machines = rng.randint(1, 6)
        job = _random_locality_job(rng, rng.randint(1, 80), num_machines)
        jr = LocalityJobRuntime(job)
        jr.activate_runnable_phases()
        for task in job.phases[0].tasks:
            if rng.random() < 0.3:
                task.state = TaskState.FINISHED
        # Pop a few to churn the buckets.
        for _ in range(rng.randint(0, 5)):
            jr.pop_pending(
                prefer_machine=rng.randrange(num_machines)
                if rng.random() < 0.5
                else None
            )
        for machine_id in range(num_machines):
            assert jr.has_pending_local_to(machine_id) == _reference_has_local(
                jr.pending, machine_id
            )


def test_bucket_fast_reject_is_exact_without_wildcards():
    job = _job_with_tasks(4, preferred=[(1,), (1,), (2,), (2,)])
    jr = LocalityJobRuntime(job)
    jr.activate_runnable_phases()
    assert not jr.may_have_local_pending(0)
    assert jr.may_have_local_pending(1)
    # Draining machine 1's tasks empties its bucket.
    assert jr.pop_pending(prefer_machine=1).prefers(1)
    assert jr.pop_pending(prefer_machine=1).prefers(1)
    assert not jr.may_have_local_pending(1)
    assert not jr.has_pending_local_to(1)
    assert jr.has_pending_local_to(2)


def test_speculation_candidate_cache_throttles():
    class CountingPolicy:
        def __init__(self):
            self.calls = 0

        def speculation_candidates(self, view, now):
            self.calls += 1
            return ["sentinel"]

    policy = CountingPolicy()
    jr = JobRuntime(_job_with_tasks(1), policy)
    assert jr.speculation_candidates(0.0, 0.25) == ["sentinel"]
    assert jr.speculation_candidates(0.1, 0.25) == ["sentinel"]
    assert policy.calls == 1  # throttled: cache fresh, not dirty
    jr.mark_changed()
    jr.speculation_candidates(0.1, 0.25)
    assert policy.calls == 2  # dirty bit forces re-evaluation
    jr.speculation_candidates(0.4, 0.25)
    assert policy.calls == 3  # interval elapsed


class _RecordingPolicy:
    """Speculation policy stub recording the ``now`` of every call."""

    def __init__(self):
        self.calls = []

    def speculation_candidates(self, view, now):
        self.calls.append(now)
        return [("list", now)]


def test_refresh_of_stale_cache_defers_the_policy_call():
    policy = _RecordingPolicy()
    jr = JobRuntime(_job_with_tasks(1), policy)
    jr.refresh_speculation_cache(1.0, 0.25)  # dirty at construction
    assert policy.calls == []
    assert jr.spec_cache_time == 1.0
    assert not jr.spec_dirty
    assert jr.spec_candidates is None  # owed
    jr.refresh_speculation_cache(1.1, 0.25)  # fresh: no restamp
    assert jr.spec_cache_time == 1.0
    jr.refresh_speculation_cache(1.5, 0.25)  # interval elapsed
    assert policy.calls == []
    assert jr.spec_cache_time == 1.5


def test_owed_list_is_evaluated_at_the_stamped_time_once():
    policy = _RecordingPolicy()
    jr = JobRuntime(_job_with_tasks(1), policy)
    jr.refresh_speculation_cache(1.0, 0.25)
    # A read within the interval, cache not dirty: one policy call at
    # the stamped time, not at the read's time.
    assert jr.speculation_candidates(1.2, 0.25) == [("list", 1.0)]
    assert policy.calls == [1.0]
    assert jr.speculation_candidates(1.24, 0.25) == [("list", 1.0)]
    assert policy.calls == [1.0]  # second read reuses the list


def test_dirtying_the_job_discards_an_owed_list():
    policy = _RecordingPolicy()
    jr = JobRuntime(_job_with_tasks(1), policy)
    jr.refresh_speculation_cache(1.0, 0.25)
    jr.mark_changed()
    assert jr.speculation_candidates(1.1, 0.25) == [("list", 1.1)]
    assert policy.calls == [1.1]
    assert jr.spec_cache_time == 1.1
    # An owed list restamped by a dirty refresh is evaluated at the new
    # stamp too.
    jr.mark_changed()
    jr.refresh_speculation_cache(1.2, 0.25)
    assert jr.speculation_candidates(1.3, 0.25) == [("list", 1.2)]
    assert policy.calls == [1.1, 1.2]


# -- JobExecutionView: live-speculative index -------------------------------


def _reference_victims(view):
    return [
        c
        for copies in view.copies_by_task.values()
        for c in copies
        if c.speculative and len(copies) > 1
    ]


def test_live_speculative_copies_matches_reference_scan():
    """Property: after randomized register/remove sequences the indexed
    enumeration equals the full copies_by_task walk, element for element
    (order included — preemption victim ties break on it)."""
    rng = random.Random(3)
    for _ in range(40):
        num_tasks = rng.randint(1, 12)
        job = _job_with_tasks(num_tasks)
        view = JobExecutionView(job=job)
        live = []
        next_copy_id = 0
        for _ in range(rng.randint(1, 60)):
            if live and rng.random() < 0.4:
                copy = live.pop(rng.randrange(len(live)))
                if rng.random() < 0.5:
                    copy.killed = True
                else:
                    copy.finished = True
                view.remove_copy(copy)
            else:
                task = job.phases[0].tasks[rng.randrange(num_tasks)]
                copy = TaskCopy(
                    copy_id=next_copy_id,
                    task=task,
                    machine_id=rng.randrange(4),
                    start_time=float(rng.randint(0, 5)),
                    duration=rng.random() + 0.1,
                    speculative=rng.random() < 0.5,
                )
                next_copy_id += 1
                view.register_copy(copy)
                live.append(copy)
            assert view.live_speculative_copies() == _reference_victims(view)


# -- CopyLedger -------------------------------------------------------------


def _ledger():
    engine = Simulator()
    metrics = MetricsCollector(scheduler_name="test")
    beta = OnlineBetaEstimator(default_beta=1.5)
    return engine, metrics, CopyLedger(engine, metrics, beta)


def test_ledger_launch_finish_lifecycle():
    engine, metrics, ledger = _ledger()
    job = _job_with_tasks(1)
    jr = JobRuntime(job)
    view = jr.view
    task = job.phases[0].tasks[0]
    finished = []

    def on_finish(copy):
        won = ledger.finish(copy, jr)
        finished.append((copy, won))
        if won:
            assert ledger.finish_task(view, copy) == []

    copy = ledger.launch(jr, task, 0, 2.0, False, True, on_finish)
    assert copy.copy_id == 0
    assert view.copies_of(task) == [copy]
    # The running copy carries its pending finish event ...
    assert copy.event is not None and not copy.event.cancelled
    engine.run()
    assert finished == [(copy, True)]
    assert copy.finished and copy.end_time == 2.0
    # ... and drops it once it finished.
    assert copy.event is None
    assert view.copies_of(task) == []
    assert task.is_finished and task.finish_time == 2.0
    assert metrics.result.total_copies == 1


def test_ledger_race_kills_losers_and_accounts_waste():
    engine, metrics, ledger = _ledger()
    job = _job_with_tasks(1)
    jr = JobRuntime(job)
    task = job.phases[0].tasks[0]

    def on_finish(copy):
        if ledger.finish(copy, jr):
            for loser in ledger.finish_task(jr.view, copy):
                ledger.kill(loser, jr)

    ledger.launch(jr, task, 0, 5.0, False, True, on_finish)
    speculative = ledger.launch(jr, task, 1, 1.0, True, True, on_finish)
    engine.run()
    assert task.is_finished and task.completed_by_speculative
    assert speculative.finished
    result = metrics.result
    assert result.speculative_copies == 1
    assert result.killed_copies == 1
    assert result.speculative_wins == 1
    # The loser ran [0, 1.0] before being killed: wasted slot-time.
    assert result.wasted_slot_time == 1.0
    # Engine never fires the cancelled loser event.
    assert engine.events_processed == 1


def test_ledger_copy_ids_are_unique_and_monotonic():
    engine, _, ledger = _ledger()
    job = _job_with_tasks(3)
    jr = JobRuntime(job)
    ids = [
        ledger.launch(
            jr, task, 0, 1.0, False, True, lambda c: None
        ).copy_id
        for task in job.phases[0].tasks
    ]
    assert ids == [0, 1, 2]
    del engine


def test_every_job_mutation_feeds_the_change_record():
    _, _, ledger = _ledger()
    jr = JobRuntime(_job_with_tasks(2))
    records = [jr.changes]

    def changed():
        """Whether the record moved since the last call."""
        records.append(jr.changes)
        return records[-1] != records[-2]

    jr.activate_runnable_phases()
    assert changed()
    task = jr.pop_pending()
    assert changed()
    assert jr.requeue(task) and changed()
    jr.refresh_speculation_cache(0.0, 0.25)
    copy = ledger.launch(jr, task, 0, 1.0, False, True, lambda c: None)
    assert changed() and jr.spec_dirty
    jr.refresh_speculation_cache(0.0, 0.25)
    ledger.kill(copy, jr)
    assert changed() and jr.spec_dirty
    copy = ledger.launch(jr, task, 0, 1.0, False, True, lambda c: None)
    jr.refresh_speculation_cache(0.0, 0.25)
    ledger.finish(copy, jr)
    assert changed() and jr.spec_dirty
    jr.refresh_speculation_cache(0.0, 0.25)
    jr.mark_changed(copies=False)  # a slot-cap move
    assert changed() and not jr.spec_dirty
    # A read changes nothing, and neither does a pop of an empty queue.
    assert jr.has_pending() and not changed()
    assert jr.pop_pending() and jr.pop_pending() and changed()
    assert jr.pop_pending() is None and not changed()


def test_ledger_record_job_completion_stamps_job():
    engine, metrics, ledger = _ledger()
    job = _job_with_tasks(1)
    engine.schedule(3.0, lambda: None)
    engine.run()
    ledger.record_job_completion(job)
    assert job.finish_time == 3.0
    assert metrics.result.num_jobs == 1
    assert metrics.result.jobs[0].job_id == job.job_id


# -- mid-run eviction: kill -> requeue -> completion lifecycle ---------------


def _machine_copy_census(simulator):
    """machine_id -> live copies, via the per-job views (both planes
    prune finished/killed copies synchronously)."""
    per_machine = {}
    for jr in simulator._jobs.values():
        for copies in jr.view.copies_by_task.values():
            for c in copies:
                per_machine.setdefault(c.machine_id, []).append(c)
    return per_machine


def _centralized_sim(num_machines=6, slots_per_machine=2, num_jobs=6):
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.registry import SYSTEMS
    from repro.simulation.rng import RandomSource
    from repro.speculation import LATE
    from repro.stragglers.model import ParetoStragglerModel
    from repro.workload.generator import FACEBOOK_PROFILE, TraceGenerator
    from repro.workload.traces import Trace

    gen = TraceGenerator(
        FACEBOOK_PROFILE,
        random_source=RandomSource(seed=11),
        max_phase_tasks=30,
    )
    trace = Trace(jobs=gen.generate(num_jobs, interarrival_mean=1.0))
    return CentralizedSimulator(
        cluster=Cluster(
            num_machines=num_machines, slots_per_machine=slots_per_machine
        ),
        policy=SYSTEMS.get("centralized/hopper").factory(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=trace.fresh_copy(),
        straggler_model=ParetoStragglerModel(straggler_prob=0.5),
        config=CentralizedConfig(
            speculation_mode=SpeculationMode.INTEGRATED
        ),
        random_source=RandomSource(seed=12),
    )


def test_centralized_eviction_kills_requeues_and_completes():
    """Evicting a machine with running original + speculative copies
    drives the ledger through kill -> requeue -> completion: every job
    still finishes, no finish event or heap event leaks, and the
    evicted machine ends idle and blacklisted."""
    simulator = _centralized_sim()
    evicted = []

    def evict_mixed_machine():
        per_machine = _machine_copy_census(simulator)
        target = None
        for machine_id, copies in sorted(per_machine.items()):
            has_spec = any(c.speculative for c in copies)
            has_orig = any(not c.speculative for c in copies)
            if has_spec and has_orig:
                target = machine_id
                break
        if target is None and per_machine:  # fall back: any busy machine
            target = sorted(per_machine)[0]
        if target is not None:
            evicted.append((target, list(per_machine[target])))
            simulator._evict_machine(target)

    # Let load build up, then evict a machine racing an original and a
    # speculative copy of some task (t=10 is past the first LATE scan
    # that launches a speculative copy on this trace/seed).
    simulator.sim.schedule(10.0, evict_mixed_machine)
    result = simulator.run()

    assert evicted, "eviction hook never fired"
    machine_id, killed = evicted[0]
    assert any(c.speculative for c in killed)
    assert any(not c.speculative for c in killed)
    # Every killed copy was settled through the ledger, which cancelled
    # and dropped its finish event.
    assert all(c.killed and c.event is None for c in killed)
    assert result.killed_copies >= len(killed)
    # Requeue -> completion: the trace still finishes every job.
    assert result.num_jobs == 6
    for job in simulator.trace:
        assert job.is_complete
    # No leaked heap events.
    assert simulator.sim.pending_events == 0
    # The machine stayed out: idle, blacklisted, excluded from totals.
    cluster = simulator.cluster
    assert cluster.state[machine_id] == BLACKLISTED
    assert cluster.busy[machine_id] == 0
    assert cluster.busy_slots == 0
    live = cluster.state.count(0)
    assert cluster.total_slots == live * cluster.slots_per_machine
    assert cluster.index.free_machine_ids() == cluster.machines_with_free_slots()


def test_centralized_eviction_requeues_only_copyless_tasks():
    """A task whose original died in the eviction but whose speculative
    sibling survives elsewhere is NOT requeued (the sibling carries it);
    a task that lost its only copy is requeued and eventually runs."""
    simulator = _centralized_sim()
    observed = []

    def evict_and_audit():
        per_machine = _machine_copy_census(simulator)
        if not per_machine:
            return
        target = sorted(per_machine)[0]
        victims = per_machine[target]
        jobs = {
            c.task.task_id: jr
            for jr in simulator._jobs.values()
            for copies in jr.view.copies_by_task.values()
            for c in copies
        }
        simulator._evict_machine(target)
        for c in victims:
            jr = jobs[c.task.task_id]
            survivors = jr.view.num_live_copies(c.task)
            queued = c.task.task_id in jr.pending_ids
            observed.append((survivors, queued, c.task.is_finished))

    simulator.sim.schedule(4.0, evict_and_audit)
    simulator.run()
    assert observed
    for survivors, queued, finished in observed:
        if finished:
            continue
        # Requeued exactly when no live copy survived the eviction.
        assert queued == (survivors == 0)


def test_decentralized_eviction_kills_requeues_and_completes():
    from repro.cluster.policy import StrikeBlacklistPolicy
    from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
    from repro.decentralized.simulator import DecentralizedSimulator
    from repro.simulation.rng import RandomSource
    from repro.speculation import LATE
    from repro.stragglers.model import ParetoStragglerModel
    from repro.workload.generator import FACEBOOK_PROFILE, TraceGenerator
    from repro.workload.traces import Trace

    gen = TraceGenerator(
        FACEBOOK_PROFILE,
        random_source=RandomSource(seed=11),
        max_phase_tasks=30,
    )
    trace = Trace(jobs=gen.generate(6, interarrival_mean=1.0))
    num_workers = 12
    simulator = DecentralizedSimulator(
        num_workers=num_workers,
        speculation=lambda: LATE(),
        trace=trace.fresh_copy(),
        straggler_model=ParetoStragglerModel(straggler_prob=0.5),
        config=DecentralizedConfig(
            worker_policy=WorkerPolicy.HOPPER, probe_ratio=4.0, epsilon=0.1
        ),
        random_source=RandomSource(seed=12),
        # Inert policy (threshold out of reach): exercises the observe
        # path while letting the test trigger the eviction itself.
        blacklist_policy=StrikeBlacklistPolicy(
            num_workers, strike_threshold=10**6
        ),
    )
    evicted = []

    def evict_busiest_worker():
        per_worker = {}
        for scheduler in simulator.schedulers:
            for sj in scheduler.jobs.values():
                for copies in sj.view.copies_by_task.values():
                    for c in copies:
                        per_worker.setdefault(c.machine_id, []).append(c)
        if per_worker:
            # The lowest id among the busiest workers.
            worker_id, running = max(
                sorted(per_worker.items()), key=lambda item: len(item[1])
            )
            worker = simulator.workers[worker_id]
            assert worker.busy_slots == len(running)
            evicted.append((worker, running))
            simulator._evict_machine(worker_id)

    simulator.sim.schedule(4.0, evict_busiest_worker)
    result = simulator.run()

    assert evicted, "eviction hook never fired"
    worker, killed = evicted[0]
    assert all(c.killed and c.event is None for c in killed)
    assert result.killed_copies >= len(killed)
    # Requeue -> completion: every job still finishes.
    assert result.num_jobs == 6
    for job in simulator.trace:
        assert job.is_complete
    # No leaked heap events, queued requests or slots.
    assert simulator.sim.pending_events == 0
    assert simulator.members.state[worker.worker_id] == BLACKLISTED
    assert worker.queue == [] and worker.busy_slots == 0
    assert simulator._request_holders == {}
    # The eviction left the probe pool holding every other worker, and
    # live capacity followed it.
    pool = simulator.members.ids
    assert worker.worker_id not in pool
    assert simulator.total_slots == num_workers - 1
    assert len(pool) == num_workers - 1
    assert list(pool) == [
        i for i in range(num_workers) if i != worker.worker_id
    ]
