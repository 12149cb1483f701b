"""Tests for strike-driven mid-run machine eviction (repro.cluster.policy).

Unit tests pin the policy's evidence rules (strike threshold, sliding
window, eviction cap, probation/reinstatement); the behavioural tests
run full simulations under machine-correlated stragglers and assert the
*effect* the §2.2 loop exists for — the flaky fraction's busy-slot share
drains away as the policy evicts — rather than pinning digests.
"""

import collections
import json

import pytest

from repro.cluster.membership import BLACKLISTED
from repro.cluster.policy import BlacklistPolicy, StrikeBlacklistPolicy
from repro.metrics.serialize import result_to_dict
from repro.obs import OBS_ENV
from repro.runtime import plane as plane_module
from repro.simulation.rng import RandomSource
from repro.speculation import LATE
from repro.stragglers.model import MachineCorrelatedStragglerModel
from repro.workload.generator import FACEBOOK_PROFILE
from repro.experiments.harness import WorkloadSpec, build_trace, run_simulator

QUICK = WorkloadSpec(
    profile=FACEBOOK_PROFILE,
    num_jobs=30,
    utilization=0.6,
    total_slots=200,
    seed=42,
)


# -- policy unit tests -------------------------------------------------------


def test_strike_rule_requires_multiplier_and_reference():
    policy = StrikeBlacklistPolicy(
        num_machines=10, strike_threshold=1, strike_multiplier=2.0
    )
    # No reference yet: never a strike.
    assert not policy.observe_completion(0.0, 3, 10.0, 0.0)
    # At exactly the multiplier: not slower than the threshold.
    assert not policy.observe_completion(1.0, 3, 2.0, 1.0)
    # Slower than multiplier x reference with threshold 1: evict.
    assert policy.observe_completion(2.0, 3, 2.1, 1.0)
    assert policy.evicted_machines == {3}
    assert policy.evictions == [(2.0, 3)]


def test_strikes_accumulate_within_window_only():
    policy = StrikeBlacklistPolicy(
        num_machines=10, strike_threshold=3, strike_window=10.0
    )
    assert not policy.observe_completion(0.0, 5, 100.0, 1.0)
    assert not policy.observe_completion(4.0, 5, 100.0, 1.0)
    # Third slow completion, but the t=0 strike expired: no eviction
    # (only the strikes at 4 and 11 count inside the 10-unit window).
    assert not policy.observe_completion(11.0, 5, 100.0, 1.0)
    # One more inside the window: strikes at 4, 11, 12 -> eviction.
    assert policy.observe_completion(12.0, 5, 100.0, 1.0)
    assert policy.evicted_machines == {5}
    # Blacklisted machines accumulate no further evidence.
    assert not policy.observe_completion(13.0, 5, 100.0, 1.0)


def test_eviction_cap_bounds_concurrent_evictions():
    policy = StrikeBlacklistPolicy(
        num_machines=10, strike_threshold=1, eviction_cap=0.2
    )
    assert policy.max_evictions == 2
    assert policy.observe_completion(0.0, 0, 100.0, 1.0)
    assert policy.observe_completion(1.0, 1, 100.0, 1.0)
    # At the cap: further evidence is ignored, the cluster keeps a floor.
    assert not policy.observe_completion(2.0, 2, 100.0, 1.0)
    assert policy.evicted_machines == {0, 1}


def test_probation_reinstates_with_clean_record():
    policy = StrikeBlacklistPolicy(
        num_machines=4, strike_threshold=1, probation=5.0
    )
    assert policy.observe_completion(1.0, 2, 100.0, 1.0)
    assert policy.due_reinstatements(3.0) == []
    assert policy.due_reinstatements(6.0) == [2]
    assert policy.evicted_machines == set()
    assert policy.reinstatements == [(6.0, 2)]
    assert policy.blacklist.strike_count(2, 6.0) == 0
    # Cap capacity freed: the machine can be evicted again.
    assert policy.observe_completion(7.0, 2, 100.0, 1.0)


def test_policy_parameter_validation():
    with pytest.raises(ValueError):
        StrikeBlacklistPolicy(num_machines=0)
    with pytest.raises(ValueError):
        StrikeBlacklistPolicy(num_machines=5, eviction_cap=0.0)
    with pytest.raises(ValueError):
        StrikeBlacklistPolicy(num_machines=5, strike_multiplier=1.0)
    with pytest.raises(ValueError):
        StrikeBlacklistPolicy(num_machines=5, probation=-1.0)
    assert issubclass(StrikeBlacklistPolicy, BlacklistPolicy)


# -- behavioural: the flaky busy-slot share drains under eviction ------------


class _RecordingLedger:
    """Records every copy the simulation launches; after the run each
    copy carries its actual ``start_time``/``end_time`` (finish or
    kill), giving exact per-copy busy-slot time."""

    @staticmethod
    def install(simulator):
        from repro.runtime import CopyLedger

        class Recording(CopyLedger):
            __slots__ = ("copies",)

            def __init__(self, *args):
                super().__init__(*args)
                self.copies = []

            def launch(self, *args, **kwargs):
                copy = super().launch(*args, **kwargs)
                self.copies.append(copy)
                return copy

        ledger = Recording(
            simulator.sim, simulator.metrics, simulator.beta_estimator
        )
        simulator.ledger = ledger
        return ledger


def _flaky_share_curve(copies, flaky, windows=3):
    """Flaky machines' share of busy slot-time, per launch-order window.

    Launch-order windows (equal copy counts) rather than equal time
    spans: the makespan tail is one long straggler task, so time-equal
    windows would be dominated by a single copy.
    """
    per_window = max(1, len(copies) // windows)
    curve = []
    for i in range(windows):
        chunk = copies[i * per_window :]
        if i < windows - 1:
            chunk = chunk[:per_window]
        total = in_flaky = 0.0
        for copy in chunk:
            busy = (copy.end_time or copy.start_time) - copy.start_time
            total += busy
            if copy.machine_id in flaky:
                in_flaky += busy
        curve.append(in_flaky / total if total else 0.0)
    return curve


def _centralized_run(blacklist_policy):
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.registry import SYSTEMS

    trace = build_trace(QUICK)
    num_machines = QUICK.total_slots // 4
    model = MachineCorrelatedStragglerModel(num_machines=num_machines)
    simulator = CentralizedSimulator(
        cluster=Cluster(num_machines=num_machines, slots_per_machine=4),
        policy=SYSTEMS.get("centralized/hopper").factory(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=trace.fresh_copy(),
        straggler_model=model,
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=QUICK.profile.beta,
        ),
        random_source=RandomSource(seed=7),
        blacklist_policy=blacklist_policy,
    )
    ledger = _RecordingLedger.install(simulator)
    simulator.run()
    return model, ledger, simulator


def _decentralized_run(blacklist_policy):
    from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
    from repro.decentralized.simulator import DecentralizedSimulator

    trace = build_trace(QUICK)
    model = MachineCorrelatedStragglerModel(num_machines=QUICK.total_slots)
    simulator = DecentralizedSimulator(
        num_workers=QUICK.total_slots,
        speculation=lambda: LATE(),
        trace=trace.fresh_copy(),
        straggler_model=model,
        config=DecentralizedConfig(
            worker_policy=WorkerPolicy.HOPPER,
            probe_ratio=4.0,
            epsilon=0.1,
            default_beta=QUICK.profile.beta,
        ),
        random_source=RandomSource(seed=7),
        blacklist_policy=blacklist_policy,
    )
    ledger = _RecordingLedger.install(simulator)
    simulator.run()
    return model, ledger, simulator


def _strikes_policy(num_machines):
    return StrikeBlacklistPolicy(
        num_machines=num_machines,
        strike_threshold=3,
        strike_window=60.0,
        eviction_cap=0.15,
    )


@pytest.mark.parametrize("plane", ["centralized", "decentralized"])
def test_flaky_busy_slot_share_monotonically_drops(plane):
    """With eviction on, the flaky machines' share of busy slot-time
    drops monotonically over the run (they get evicted and stay out);
    with eviction off it does not drain."""
    run = _centralized_run if plane == "centralized" else _decentralized_run
    model, ledger, simulator = run(_strikes_policy(
        QUICK.total_slots // 4 if plane == "centralized" else QUICK.total_slots
    ))
    policy = simulator.blacklist_policy
    assert policy.evictions, "no evictions fired"
    # Evictions are precise: most victims are genuinely flaky machines.
    evicted = [machine_id for _, machine_id in policy.evictions]
    flaky_evicted = sum(1 for m in evicted if m in model.flaky_machines)
    assert flaky_evicted / len(evicted) >= 0.6

    curve = _flaky_share_curve(ledger.copies, model.flaky_machines)
    assert curve[0] > 0.0
    for earlier, later in zip(curve, curve[1:]):
        assert later <= earlier + 1e-9, f"share rose: {curve}"
    assert curve[-1] < 0.5 * curve[0], f"share did not drain: {curve}"

    _, baseline_ledger, _ = run(None)
    baseline = _flaky_share_curve(
        baseline_ledger.copies, model.flaky_machines
    )
    assert baseline[-1] > curve[-1]


# -- armed but idle: no stragglers, no strike evidence -----------------------


def _counted(calls, key, function):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("plane", ["centralized", "batch", "decentralized"])
def test_armed_policy_without_stragglers_stays_idle(plane, monkeypatch):
    """With strikes armed and no stragglers, every finished copy takes
    the ``min_strike_ratio`` fast path: the policy sees no observation,
    evicts nothing, and the result equals the policy-off run."""
    monkeypatch.delenv(OBS_ENV, raising=False)
    calls = collections.Counter()
    # Every plane observes completions through the shared membership
    # sequence.
    monkeypatch.setattr(
        plane_module,
        "evaluate_completion",
        _counted(calls, "evaluate", plane_module.evaluate_completion),
    )
    monkeypatch.setattr(
        StrikeBlacklistPolicy,
        "observe_completion",
        _counted(calls, "observe", StrikeBlacklistPolicy.observe_completion),
    )
    trace = build_trace(QUICK)
    knobs = dict(plane=plane, straggler_model="none")
    armed = run_simulator("hopper", trace, QUICK, blacklist_policy="strikes", **knobs)
    finished = armed.total_copies - armed.killed_copies
    assert finished > 0
    assert calls["observe"] == 0
    assert calls["evaluate"] == finished
    assert armed.evictions == 0
    off = run_simulator("hopper", trace, QUICK, **knobs)
    assert json.dumps(result_to_dict(armed)) == json.dumps(result_to_dict(off))


# -- eviction edge cases -----------------------------------------------------


def _direct_decentralized_sim():
    """A small simulator driven directly (no engine run): one job
    submitted, ready for hand-placed copies and evictions."""
    from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
    from repro.decentralized.simulator import DecentralizedSimulator
    from repro.stragglers.model import NoStragglerModel
    from repro.workload.job import make_single_phase_job
    from repro.workload.traces import Trace

    job = make_single_phase_job(0, 0.0, [1.0, 1.0, 1.0])
    simulator = DecentralizedSimulator(
        num_workers=8,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[job]),
        straggler_model=NoStragglerModel(),
        config=DecentralizedConfig(
            worker_policy=WorkerPolicy.HOPPER, probe_ratio=2.0, epsilon=0.1
        ),
        random_source=RandomSource(seed=3),
        # Inert policy: present (so the eviction substrate exists) but
        # with an unreachable threshold — the test evicts by hand.
        blacklist_policy=StrikeBlacklistPolicy(8, strike_threshold=10**6),
    )
    simulator._on_job_arrival(job)
    sj = simulator._jobs[job.job_id]
    return simulator, simulator.schedulers[sj.gossip.scheduler_id], sj


def test_eviction_requeues_speculative_orphans():
    """A task whose original fell to one eviction and whose speculative
    sibling falls to a later one has NO live copy left — the second
    eviction must requeue it even though the killed copy was
    speculative, or the job hangs forever."""
    simulator, scheduler, sj = _direct_decentralized_sim()
    task = sj.pop_pending()
    sj.occupied += 2  # the accepts' eager occupancy reservations
    simulator.start_copy(simulator.worker(0), task, False)
    simulator.start_copy(simulator.worker(1), task, True)

    simulator._evict_machine(0)  # original dies; spec sibling carries it
    assert task.task_id not in sj.pending_ids
    assert sj.view.num_live_copies(task) == 1

    simulator._evict_machine(1)  # speculative orphan: must requeue
    assert sj.view.num_live_copies(task) == 0
    assert task.task_id in sj.pending_ids


def test_raced_accept_on_evicted_worker_requeues_orphans():
    """An accept that lands on an already-evicted worker is declined at
    bind time; if the task has no other live copy it must be requeued —
    speculative or not."""
    simulator, scheduler, sj = _direct_decentralized_sim()
    task = sj.pop_pending()
    sj.occupied += 1
    simulator._evict_machine(2)
    simulator.start_copy(simulator.worker(2), task, True)
    assert sj.view.num_live_copies(task) == 0
    assert task.task_id in sj.pending_ids
    assert sj.occupied == 0


def test_requeue_probes_skip_the_evicted_worker():
    """The blacklist must hit the sample pool BEFORE the requeue probes
    go out, or a replacement probe can target the dying worker and be
    silently dropped."""
    simulator, scheduler, sj = _direct_decentralized_sim()
    task = sj.pop_pending()
    sj.occupied += 1
    simulator.start_copy(simulator.worker(3), task, False)

    pools = []
    original = simulator.sample_workers

    def spying_sample(count):
        pools.append(set(simulator.members.ids))
        return original(count)

    simulator.sample_workers = spying_sample
    simulator._evict_machine(3)
    assert task.task_id in sj.pending_ids
    assert pools, "requeue sent no probes"
    assert all(3 not in pool for pool in pools)


def test_budgeted_spec_budget_tracks_evictions():
    """BUDGETED mode reserves a fraction of the cluster for speculation;
    the reservation must shrink with the cluster on eviction (a stale
    budget could exceed the shrunken total and starve originals)."""
    from repro.centralized.config import CentralizedConfig, SpeculationMode
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.registry import SYSTEMS
    from repro.stragglers.model import NoStragglerModel
    from repro.workload.job import make_single_phase_job
    from repro.workload.traces import Trace

    simulator = CentralizedSimulator(
        cluster=Cluster(num_machines=10, slots_per_machine=4),
        policy=SYSTEMS.get("centralized/hopper").factory(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=Trace(jobs=[make_single_phase_job(0, 0.0, [1.0])]),
        straggler_model=NoStragglerModel(),
        config=CentralizedConfig(
            speculation_mode=SpeculationMode.BUDGETED, budget_fraction=0.25
        ),
        random_source=RandomSource(seed=1),
        blacklist_policy=StrikeBlacklistPolicy(10, strike_threshold=10**6),
    )
    assert simulator._spec_budget == 10  # 0.25 * 40
    simulator._evict_machine(0)
    assert simulator.total_slots == 36
    assert simulator._spec_budget == 9  # 0.25 * 36: tracks the shrink
    simulator._reinstate_machine(0)
    assert simulator.total_slots == 40
    assert simulator._spec_budget == 10


def test_probation_reinstates_machines_end_to_end():
    """strikes-probation: machines leave and rejoin mid-run; the
    simulator's workers and probe pool track the policy's view exactly
    at end of run."""
    policy = StrikeBlacklistPolicy(
        num_machines=QUICK.total_slots,
        strike_threshold=3,
        strike_window=60.0,
        eviction_cap=0.15,
        probation=40.0,
    )
    model, ledger, simulator = _decentralized_run(policy)
    assert policy.evictions
    assert policy.reinstatements, "probation never reinstated a worker"
    worker_ids = range(simulator.members.num_machines)
    for worker_id in worker_ids:
        expected = worker_id in policy.evicted_machines
        assert simulator.members.state[worker_id] == (BLACKLISTED if expected else 0)
    pool_ids = set(simulator.members.ids)
    assert pool_ids == {
        worker_id
        for worker_id in worker_ids
        if worker_id not in policy.evicted_machines
    }
    # Reinstated workers finished the run doing work again or at least
    # rejoined the pool; every job still completed.
    for job in simulator.trace:
        assert job.is_complete
    # No copy still holds a finish event once the run is over.
    assert all(copy.event is None for copy in ledger.copies)
