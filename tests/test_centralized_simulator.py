"""Integration tests for the centralized simulator."""

import pytest

from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.policies import FairPolicy, HopperPolicy, SRPTPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.cluster.datastore import DataStore
from repro.simulation.rng import RandomSource
from repro.speculation import LATE, NoSpeculation
from repro.stragglers.model import (
    NoStragglerModel,
    ParetoRedrawStragglerModel,
)
from repro.workload.generator import SPARK_FACEBOOK_PROFILE, TraceGenerator
from repro.workload.job import make_chain_job, make_single_phase_job
from repro.workload.traces import Trace


def _simulate(
    trace,
    policy=None,
    speculation=None,
    straggler=None,
    config=None,
    slots=8,
    seed=7,
    datastore=None,
    machines=None,
):
    cluster = Cluster(
        num_machines=machines or slots,
        slots_per_machine=slots // (machines or slots) or 1,
    )
    sim = CentralizedSimulator(
        cluster=Cluster(num_machines=slots, slots_per_machine=1)
        if machines is None
        else cluster,
        policy=policy or HopperPolicy(epsilon=1.0),
        speculation=speculation or (lambda: LATE()),
        trace=trace,
        straggler_model=straggler or NoStragglerModel(),
        config=config
        or CentralizedConfig(epsilon=1.0, speculation_mode="integrated"),
        datastore=datastore,
        random_source=RandomSource(seed=seed),
    )
    return sim, sim.run()


def test_single_job_completes_with_exact_makespan():
    # 4 unit tasks on 4 slots, no stragglers: completes at t = 1.
    job = make_single_phase_job(0, 0.0, [1.0] * 4)
    sim, result = _simulate(Trace(jobs=[job]), slots=4)
    assert result.num_jobs == 1
    assert result.jobs[0].duration == pytest.approx(1.0)


def test_waves_when_slots_are_scarce():
    # 4 unit tasks on 2 slots: two waves -> 2 time units.
    job = make_single_phase_job(0, 0.0, [1.0] * 4)
    sim, result = _simulate(Trace(jobs=[job]), slots=2)
    assert result.jobs[0].duration == pytest.approx(2.0)


def test_all_jobs_complete():
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=0),
        max_phase_tasks=30,
    )
    trace = Trace(jobs=gen.generate(20, interarrival_mean=1.0))
    sim, result = _simulate(
        trace.fresh_copy(),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
        slots=20,
    )
    assert result.num_jobs == 20


def test_speculation_beats_no_speculation_with_stragglers():
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=1),
        max_phase_tasks=40,
    )
    base_trace = Trace(jobs=gen.generate(25, interarrival_mean=2.0))
    _, with_spec = _simulate(
        base_trace.fresh_copy(),
        straggler=ParetoRedrawStragglerModel(beta=1.2),
        slots=60,
    )
    _, without = _simulate(
        base_trace.fresh_copy(),
        speculation=lambda: NoSpeculation(),
        straggler=ParetoRedrawStragglerModel(beta=1.2),
        slots=60,
    )
    assert with_spec.mean_job_duration < without.mean_job_duration


def test_kill_on_first_finish_accounts_waste():
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=2),
        max_phase_tasks=40,
    )
    trace = Trace(jobs=gen.generate(15, interarrival_mean=1.0))
    sim, result = _simulate(
        trace.fresh_copy(),
        straggler=ParetoRedrawStragglerModel(beta=1.3),
        slots=40,
    )
    if result.speculative_copies:
        # every race that completed killed exactly one copy
        assert result.killed_copies > 0
        assert result.wasted_slot_time > 0


def test_no_slot_is_double_booked():
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=3),
        max_phase_tasks=50,
    )
    trace = Trace(jobs=gen.generate(15, interarrival_mean=0.5))
    cluster = Cluster(num_machines=10, slots_per_machine=2)
    sim = CentralizedSimulator(
        cluster=cluster,
        policy=HopperPolicy(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(beta=1.4),
        config=CentralizedConfig(speculation_mode="integrated"),
        random_source=RandomSource(seed=4),
    )
    sim.run()
    # After the run every slot must be free again.
    assert cluster.busy_slots == 0
    for busy in cluster.busy:
        assert busy == 0


def test_dag_phases_respect_pipelining():
    job = make_chain_job(
        0, 0.0, [[1.0] * 4, [1.0] * 2], [4.0, 0.0], slowstart=0.5
    )
    sim, result = _simulate(Trace(jobs=[job]), slots=10)
    phase0 = job.phases[0]
    phase1 = job.phases[1]
    starts = [
        t.finish_time for t in phase1.tasks if t.finish_time is not None
    ]
    assert result.num_jobs == 1
    # downstream tasks exist and finished after upstream started producing
    assert all(s >= 1.0 for s in starts)


def test_budgeted_mode_reserves_slots():
    # One job with 8 tasks, 8 slots, budget 25% -> only 6 original slots,
    # so the job needs two waves even with no stragglers.
    job = make_single_phase_job(0, 0.0, [1.0] * 8)
    config = CentralizedConfig(
        epsilon=1.0,
        speculation_mode=SpeculationMode.BUDGETED,
        budget_fraction=0.25,
    )
    sim, result = _simulate(Trace(jobs=[job]), config=config, slots=8)
    assert result.jobs[0].duration == pytest.approx(2.0)


def test_best_effort_mode_uses_all_slots_for_originals():
    job = make_single_phase_job(0, 0.0, [1.0] * 8)
    config = CentralizedConfig(
        epsilon=1.0, speculation_mode=SpeculationMode.BEST_EFFORT
    )
    sim, result = _simulate(Trace(jobs=[job]), config=config, slots=8)
    assert result.jobs[0].duration == pytest.approx(1.0)


def test_locality_penalty_slows_remote_tasks():
    # Force non-local execution by placing all replicas on machine 0 and
    # keeping it busy... simpler: remote penalty shows up in durations.
    job = make_single_phase_job(
        0, 0.0, [1.0] * 2, preferred=[(0,), (0,)]
    )
    store = DataStore(
        num_machines=2, replicas=1, remote_penalty=2.0,
        random_source=RandomSource(seed=5),
    )
    trace = Trace(jobs=[job])
    cluster = Cluster(num_machines=2, slots_per_machine=1)
    sim = CentralizedSimulator(
        cluster=cluster,
        policy=HopperPolicy(epsilon=1.0),
        speculation=lambda: NoSpeculation(),
        trace=trace,
        straggler_model=NoStragglerModel(),
        config=CentralizedConfig(epsilon=1.0, speculation_mode="integrated"),
        datastore=store,
        random_source=RandomSource(seed=6),
    )
    result = sim.run()
    # Both tasks prefer machine 0; one must run remotely at 2x.
    assert result.jobs[0].duration == pytest.approx(2.0)
    assert result.remote_copies == 1


def test_beta_is_learned_online():
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=8),
        max_phase_tasks=60,
    )
    trace = Trace(jobs=gen.generate(30, interarrival_mean=0.5))
    sim, _ = _simulate(
        trace.fresh_copy(),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
        slots=60,
        config=CentralizedConfig(
            epsilon=1.0, learn_beta=True, speculation_mode="integrated"
        ),
    )
    assert sim.beta_estimator.num_observations > 100
    assert 1.05 <= sim.beta_estimator.beta <= 3.0


def test_results_are_reproducible():
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=9),
        max_phase_tasks=40,
    )
    trace = Trace(jobs=gen.generate(15, interarrival_mean=1.0))

    def run_once():
        _, result = _simulate(
            trace.fresh_copy(),
            straggler=ParetoRedrawStragglerModel(beta=1.4),
            slots=30,
            seed=11,
        )
        return [r.duration for r in result.jobs]

    assert run_once() == run_once()


def test_fair_policy_shares_cluster():
    # Two identical multi-wave jobs under Fair: after the first wave the
    # allocator rebalances to equal shares, so completion times stay
    # within a small factor (the scheduler is non-preemptive, so the
    # first-dispatched job keeps its head start but cannot starve peers).
    job_a = make_single_phase_job(0, 0.0, [1.0] * 16, task_id_start=0)
    job_b = make_single_phase_job(1, 0.0, [1.0] * 16, task_id_start=100)
    trace = Trace(jobs=[job_a, job_b])
    sim, result = _simulate(
        trace, policy=FairPolicy(), slots=8,
        config=CentralizedConfig(epsilon=1.0, speculation_mode="integrated"),
    )
    durations = {r.job_id: r.duration for r in result.jobs}
    assert max(durations.values()) / min(durations.values()) < 2.5
    # total work (32 unit tasks on 8 slots) takes exactly 4 time units
    assert max(durations.values()) == pytest.approx(4.0)


def test_srpt_policy_prioritizes_small_job():
    small = make_single_phase_job(0, 0.0, [1.0] * 2, task_id_start=0)
    big = make_single_phase_job(1, 0.0, [1.0] * 16, task_id_start=100)
    trace = Trace(jobs=[big, small])
    sim, result = _simulate(
        trace, policy=SRPTPolicy(), slots=4,
        config=CentralizedConfig(epsilon=1.0, speculation_mode="integrated"),
    )
    durations = {r.job_id: r.duration for r in result.jobs}
    assert durations[0] < durations[1]


def test_speculation_fraction_in_plausible_range():
    # The paper reports ~25% of tasks being speculative in production;
    # our runs should land in the same order of magnitude (not 0, not 2x).
    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=10),
        max_phase_tasks=80,
    )
    trace = Trace(jobs=gen.generate(40, interarrival_mean=0.5))
    _, result = _simulate(
        trace.fresh_copy(),
        straggler=ParetoRedrawStragglerModel(beta=1.4),
        slots=80,
        config=CentralizedConfig(epsilon=1.0, speculation_mode="integrated"),
    )
    assert 0.01 < result.speculation_task_fraction < 0.6


class _RecordingLATE(LATE):
    """LATE that records ``(job_id, now)`` for every evaluation."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def speculation_candidates(self, view, now):
        self.calls.append((view.job.job_id, now))
        return super().speculation_candidates(view, now)


def test_job_at_target_gets_no_speculation_scan_but_its_cache_advances():
    calls = []
    trace = Trace(jobs=[make_single_phase_job(0, 0.0, [4.0] * 4)])
    sim = CentralizedSimulator(
        cluster=Cluster(num_machines=16, slots_per_machine=1),
        policy=HopperPolicy(epsilon=1.0),
        speculation=lambda: _RecordingLATE(calls),
        trace=trace,
        straggler_model=NoStragglerModel(),
        config=CentralizedConfig(epsilon=1.0, speculation_mode="integrated"),
        random_source=RandomSource(seed=7),
    )
    sim.run(until=1.0)
    jr = sim._jobs[0]
    assert jr.running_copies == 4 and sim.cluster.free_slots > 0
    stamped = jr.spec_cache_time
    assert not jr.spec_dirty

    # Age the stamp: move the clock past the throttle interval with an
    # event that touches no copy of the job.
    min_interval = sim.config.spec_eval_min_interval
    sim.sim.schedule(2 * min_interval, lambda: None)
    sim.sim.run(until=stamped + 2 * min_interval)
    now = sim.sim.now
    assert now - stamped >= min_interval and not jr.spec_dirty

    # At target with a stale cache: no scan, but the stamp moves to now
    # and the list is owed.
    calls.clear()
    sim._dispatch_speculation({0: jr.running_copies}, pool_limit=None)
    assert calls == []
    assert jr.spec_cache_time == now
    assert jr.spec_candidates is None

    # Below target, the owed list is evaluated at the stamped time.
    sim._dispatch_speculation({0: jr.running_copies + 1}, pool_limit=None)
    assert calls == [(0, now)]
