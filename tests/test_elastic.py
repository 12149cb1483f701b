"""Elastic-cluster tests: membership deltas, autoscaler policies, and
mid-run resizes on every scheduler plane.

The hard constraints under test:

* ``Cluster.add_machine`` / ``remove_machine`` are O(log machines)
  *deltas* — after any interleaving with slot traffic the Fenwick index
  and ``_total_slots`` must equal a from-scratch rebuild/rescan;
* the :class:`IncrementalAllocator` floors memo invalidates on a pool
  resize through its existing ``(membership_version, total_slots)`` key
  — no new hooks;
* every plane absorbs scheduled resizes mid-run and still completes the
  full trace (removal rides the kill→requeue path);
* a resize costs O(Δ), not O(machines): the live count is a counter,
  shrink victims come from one bucketed walk that reproduces the old
  per-machine scan order, and the decentralized probe pool is extended
  or truncated — each held equal to a rescan after every resize, with
  strike eviction and probation reinstatement interleaved;
* serving-side utilization is computed over *live* capacity, both in
  the decentralized probe and in the windowed aggregator.
"""

import gc
import json
import random

import pytest

from repro.centralized.policies import HopperPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.cluster.elastic import (
    ReactiveAutoscaler,
    ScheduleAutoscaler,
    parse_resize_schedule,
)
from repro.cluster.index import ClusterIndex
from repro.cluster.membership import BLACKLISTED, RETIRED, Membership
from repro.core.allocation import JobAllocationState
from repro.core.incremental import IncrementalAllocator
from repro.decentralized.simulator import _ProbePool
from repro.experiments.harness import (
    WorkloadSpec,
    build_centralized_simulator,
    build_decentralized_simulator,
    build_simulator,
    build_trace,
    run_simulator,
)
from repro.metrics.serialize import result_to_dict
from repro.obs import Obs
from repro.runtime import CopyLedger
from repro.serving.driver import _PLANE_PROBES
from repro.serving.windows import ServingRegime, WindowedAggregator
from repro.simulation.engine import Simulator

# -- schedule parsing --------------------------------------------------------


def test_parse_resize_schedule_round_trip():
    assert parse_resize_schedule("30:+8,90:-8") == ((30.0, 8), (90.0, -8))
    assert parse_resize_schedule("0:1") == ((0.0, 1),)


@pytest.mark.parametrize(
    "text", ["", "  ,  ", "30", "-5:2", "30:0", "abc:1", "30:xyz"]
)
def test_parse_resize_schedule_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_resize_schedule(text)


def test_schedule_autoscaler_validates():
    with pytest.raises(ValueError):
        ScheduleAutoscaler(())
    with pytest.raises(ValueError):
        ScheduleAutoscaler([(5.0, 0)])
    with pytest.raises(ValueError):
        ScheduleAutoscaler([(-1.0, 2)])


def test_reactive_autoscaler_validates_and_decides():
    with pytest.raises(ValueError):
        ReactiveAutoscaler(interval=0.0)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(lower=0.9, upper=0.5)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(step=0)
    policy = ReactiveAutoscaler(interval=2.0, upper=0.8, lower=0.2, step=3)
    assert policy.decide(0.0, 9, 10) == 3  # above upper -> grow
    assert policy.decide(0.0, 1, 10) == -3  # below lower -> shrink
    assert policy.decide(0.0, 5, 10) == 0  # inside the band -> hold
    assert policy.decide(0.0, 0, 0) == 3  # empty cluster must grow


# -- membership deltas vs from-scratch rebuild -------------------------------


def _live_ids(members: Membership) -> list:
    """From-scratch rescan of a membership: the live ids, ascending."""
    return [m for m, state in enumerate(members.state) if not state]


def _assert_totals_match_rescan(members: Membership) -> list:
    """The live count and ``total_slots`` equal a rescan of the state
    bytes; returns the live ids."""
    live = _live_ids(members)
    slots = len(live) * members.slots_per_machine
    assert (members.live, members.total_slots) == (len(live), slots)
    return live


def _assert_index_matches_rebuild(cluster: Cluster) -> None:
    """The index equals one rebuilt from a scan of the columns."""
    rebuilt = ClusterIndex(cluster.free_bits())
    index = cluster.index
    assert len(index) == cluster.num_machines
    assert index.free_machine_ids() == rebuilt.free_machine_ids()
    assert index.free_machine_count == rebuilt.free_machine_count
    for k in range(rebuilt.free_machine_count):
        assert index.nth_free_machine(k) == rebuilt.nth_free_machine(k)
    assert index.first_free_machine() == rebuilt.first_free_machine()


def _assert_matches_rebuild(cluster: Cluster) -> None:
    """Index and totals must equal what a wholesale recompute reports."""
    _assert_index_matches_rebuild(cluster)
    live = _assert_totals_match_rescan(cluster)
    assert cluster.live_machine_count() == len(live)


def test_add_machine_appends_fresh_id():
    cluster = Cluster(num_machines=3, slots_per_machine=2)
    machine_id = cluster.add_machine()
    assert machine_id == 3
    assert cluster.total_slots == 8
    _assert_matches_rebuild(cluster)
    assert cluster.add_machine(2) == 4  # the first of two fresh ids
    assert cluster.total_slots == 12
    _assert_matches_rebuild(cluster)


def test_remove_machine_retires_and_never_resurrects():
    cluster = Cluster(num_machines=4, slots_per_machine=2)
    cluster.acquire_slot(1)
    cluster.remove_machine(1)
    assert cluster.total_slots == 6
    assert 1 not in cluster.index.free_machine_ids()
    with pytest.raises(ValueError):
        cluster.remove_machine(1)
    # Releasing the straggling busy slot must not re-admit the machine.
    cluster.release_slot(1)
    assert 1 not in cluster.index.free_machine_ids()
    _assert_matches_rebuild(cluster)
    # Growth appends a fresh id; the retired id stays dead.
    machine_id = cluster.add_machine()
    assert machine_id == 4
    assert cluster.live_machine_count() == 4
    _assert_matches_rebuild(cluster)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_membership_and_slot_traffic(seed):
    """Interleave add/remove with acquire/release; after *every* step the
    delta-maintained index and totals equal a from-scratch rebuild."""
    rng = random.Random(seed)
    cluster = Cluster(num_machines=rng.randint(1, 8), slots_per_machine=2)
    busy = []  # machine ids holding a slot we acquired
    for _ in range(250):
        op = rng.random()
        live = _live_ids(cluster)
        if op < 0.15:
            cluster.add_machine(rng.randint(1, 3))
        elif op < 0.30 and len(live) > 1:
            cluster.remove_machine(rng.choice(live))
        elif op < 0.65 and cluster.index.free_machine_count:
            free_ids = cluster.index.free_machine_ids()
            machine_id = rng.choice(free_ids)
            cluster.acquire_slot(machine_id)
            busy.append(machine_id)
        elif busy:
            # May release on a since-retired machine: the index must
            # keep it out even though a slot freed up.
            cluster.release_slot(busy.pop(rng.randrange(len(busy))))
        _assert_matches_rebuild(cluster)


def _reference_retire(members: Membership, count: int, min_machines: int):
    """The original selection: rescan the live count, then walk the
    whole fleet from the top skipping retired/blacklisted machines."""
    live = _live_ids(members)
    count = min(count, len(live) - max(1, min_machines))
    return live[::-1][: max(0, count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_machines_to_retire_matches_full_walk(seed):
    """Shrink selection clamps on the O(1) live count, yet must pick
    exactly what a rescan plus a full reversed walk picks, through runs
    of consecutive shrinks, growth, retirements anywhere in the fleet,
    blacklisting and reinstatement. The shared membership type, the
    cluster built on it and the decentralized probe pool run the same
    operations side by side."""
    rng = random.Random(seed)
    fleets = (
        Membership(12, 2),
        Cluster(num_machines=12, slots_per_machine=2),
        _ProbePool(12, 2),
    )
    members, cluster, pool = fleets
    for _ in range(300):
        op = rng.random()
        if op < 0.2:
            for fleet in fleets:
                fleet.add_machine()
        elif op < 0.5:
            count = rng.randint(1, 4)
            floor = rng.randint(1, 3)
            expected = _reference_retire(members, count, floor)
            for fleet in fleets:
                ids = fleet.machines_to_retire(count, floor)
                assert ids == expected
                assert fleet.remove_machine(*ids) == ids
        elif op < 0.6:
            # Retire any machine not yet retired: a blacklisted one
            # leaves no capacity behind, a live one leaves a hole the
            # shrink walk must step over.
            candidates = [m for m, s in enumerate(members.state) if not s & RETIRED]
            if candidates:
                target = rng.choice(candidates)
                left = [] if members.state[target] else [target]
                for fleet in fleets:
                    assert fleet.remove_machine(target) == left
        else:
            # Blacklist or reinstate any machine, retired ones included:
            # only a machine that is not retired changes liveness.
            blacklist = op < 0.8
            candidates = [
                m
                for m, state in enumerate(members.state)
                if bool(state & BLACKLISTED) != blacklist
            ]
            if candidates:
                target = rng.choice(candidates)
                flips = not members.state[target] & RETIRED
                for fleet in fleets:
                    assert fleet.apply_blacklist(target, blacklist) == flips
        assert cluster.state == pool.state == members.state
        live = _assert_totals_match_rescan(members)
        _assert_matches_rebuild(cluster)
        _assert_totals_match_rescan(pool)
        assert list(pool.ids) == live


# -- floors memo invalidation ------------------------------------------------


def _states(n):
    return [
        JobAllocationState(job_id=i, virtual_size=4.0, remaining_tasks=2)
        for i in range(n)
    ]


def test_floors_memo_invalidates_on_pool_resize():
    """The floors memo key is (membership_version, total_slots): a resize
    changes the slot pool and must recompute floors with no extra hook."""
    allocator = IncrementalAllocator(HopperPolicy(epsilon=0.5))
    for state in _states(3):
        allocator.reserve(state.job_id)
        allocator.upsert(state)
    floors_100 = allocator._fairness_floors(100)
    assert floors_100 is allocator._fairness_floors(100)  # memo hit
    assert allocator._floors_key == (allocator._membership_version, 100)
    floors_60 = allocator._fairness_floors(60)
    assert allocator._floors_key == (allocator._membership_version, 60)
    # Hopper floors are epsilon-scaled slot shares: a smaller pool means
    # strictly smaller floors, proving a real recompute happened.
    assert sum(floors_60.values()) < sum(floors_100.values())


def test_floors_memo_invalidates_on_membership_change():
    allocator = IncrementalAllocator(HopperPolicy(epsilon=0.5))
    states = _states(2)
    for state in states:
        allocator.reserve(state.job_id)
        allocator.upsert(state)
    before = allocator._fairness_floors(100)
    allocator.remove(states[0].job_id)
    after = allocator._fairness_floors(100)
    assert set(after) != set(before)
    assert allocator._floors_key == (allocator._membership_version, 100)


# -- mid-run resizes on every plane ------------------------------------------

_SPEC = WorkloadSpec(num_jobs=12, utilization=0.6, total_slots=48, seed=9)

@pytest.mark.parametrize("plane", ["batch", "centralized", "decentralized"])
def test_planes_complete_trace_through_shrink_and_grow(plane):
    """A shrink mid-run kills running copies; the kill→requeue path must
    still complete every job once capacity returns, on every plane."""
    trace = build_trace(_SPEC)
    result = run_simulator(
        "hopper",
        trace,
        _SPEC,
        plane=plane,
        autoscaler="schedule",
        resize_schedule="2:-4,10:+4",
    )
    assert len(result.jobs) == _SPEC.num_jobs
    baseline = run_simulator("hopper", trace, _SPEC, plane=plane)
    assert len(baseline.jobs) == _SPEC.num_jobs
    # The resize is not inert: some job's completion time moved.
    resized = {r.job_id: r.finish_time for r in result.jobs}
    static = {r.job_id: r.finish_time for r in baseline.jobs}
    assert resized != static


def test_centralized_shrink_only_leaves_smaller_cluster():
    trace = build_trace(_SPEC)
    simulator = build_centralized_simulator(
        trace,
        "hopper",
        _SPEC,
        autoscaler=ScheduleAutoscaler([(2.0, -3)]),
    )
    before = simulator.cluster.total_slots
    result = simulator.run()
    assert len(result.jobs) == _SPEC.num_jobs
    assert simulator.cluster.total_slots == before - 3 * 4
    assert simulator._elastic.machines_removed == 3
    assert simulator._elastic.resizes_applied == 1


def test_reactive_autoscaler_grows_overloaded_centralized_cluster():
    """A tiny cluster at high offered load sits above the upper
    threshold, so the reactive sampler must add machines mid-run."""
    spec = WorkloadSpec(num_jobs=12, utilization=0.85, total_slots=16, seed=9)
    trace = build_trace(spec)
    simulator = build_centralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler="reactive",
        scale_interval=1.0,
        scale_up_threshold=0.5,
        # lower=0 never fires: the run's draining tail must not shrink
        # the cluster back down and mask the growth under test.
        scale_down_threshold=0.0,
        scale_step=2,
    )
    before = simulator.cluster.total_slots
    result = simulator.run()
    assert len(result.jobs) == spec.num_jobs
    assert simulator._elastic.machines_added > 0
    assert simulator.cluster.total_slots > before


def test_remove_clamps_at_min_machines():
    spec = WorkloadSpec(num_jobs=4, utilization=0.5, total_slots=12, seed=3)
    trace = build_trace(spec)
    simulator = build_centralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler=ScheduleAutoscaler([(1.0, -100)], min_machines=2),
    )
    simulator.run()
    assert simulator.cluster.live_machine_count() == 2


# -- serving-side live capacity (the foregrounded bugfix) --------------------


def test_decentralized_probe_reports_live_capacity():
    """Regression: the serving probe once summed ``worker.num_slots``
    over *all* workers, counting evicted/retired capacity. It must track
    the live slot pool through a mid-serving shrink and grow-back."""
    spec = WorkloadSpec(num_jobs=6, utilization=0.5, total_slots=20, seed=4)
    trace = build_trace(spec)
    simulator = build_decentralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler=ScheduleAutoscaler([(1.0, -5)]),
    )
    probe = _PLANE_PROBES["decentralized"](simulator)
    assert probe.total_slots() == 20
    removed = simulator._autoscale_remove(5)
    assert removed == 5
    dead_sum = sum(
        simulator.worker(i).num_slots
        for i in range(simulator.members.num_machines)
    )
    assert dead_sum == 20  # the buggy denominator would still say 20
    assert probe.total_slots() == 15
    added = simulator._autoscale_add(2)
    assert added == 2
    assert probe.total_slots() == 17


def test_busy_slot_counter_equals_worker_sum_and_fits_live_capacity(
    monkeypatch,
):
    """The decentralized plane's busy-slot counter (kept by
    ``Worker.bind_copy``/``release_copy``) equals the per-worker sum and
    never exceeds live capacity: checked at every serving sample and at
    the end, through strike eviction and scheduled shrinks and grows."""
    from repro.serving import driver

    make_probe = driver._PLANE_PROBES["decentralized"]
    simulators, samples = [], []

    def worker_sum(simulator) -> int:
        return sum(w.busy_slots for w in simulator.workers.values())

    def checking_probe(simulator):
        probe = make_probe(simulator)
        read_busy = probe.busy_slots

        def busy_slots() -> int:
            busy = read_busy()
            assert busy == simulator.busy_slots == worker_sum(simulator)
            assert busy <= simulator.total_slots
            samples.append(busy)
            return busy

        probe.busy_slots = busy_slots
        simulators.append(simulator)
        return probe

    monkeypatch.setitem(driver._PLANE_PROBES, "decentralized", checking_probe)
    spec = WorkloadSpec(num_jobs=400, utilization=0.8, total_slots=60, seed=4)
    result = driver.run_serving(
        spec,
        "decentralized",
        "hopper",
        ServingRegime(warmup=5.0, horizon=40.0, cooldown=5.0, window=5.0),
        straggler_model="machine-correlated",
        obs=None,
        blacklist_policy="strikes",
        strike_threshold=2,
        autoscaler="schedule",
        resize_schedule="8:-12,16:+6,24:-8,32:+10",
    )
    (simulator,) = simulators
    # Not vacuous: workers were evicted, every resize applied, and the
    # sampled fleet was busy.
    assert result.evictions > 0
    assert simulator._elastic.resizes_applied == 4
    assert max(samples) > 0
    assert simulator.busy_slots == worker_sum(simulator)
    assert simulator.busy_slots <= simulator.total_slots


def test_centralized_probe_tracks_resized_cluster():
    spec = WorkloadSpec(num_jobs=6, utilization=0.5, total_slots=20, seed=4)
    trace = build_trace(spec)
    simulator = build_centralized_simulator(
        trace,
        "hopper",
        spec,
        autoscaler=ScheduleAutoscaler([(1.0, -2)]),
    )
    probe = _PLANE_PROBES["centralized"](simulator)
    assert probe.total_slots() == 20
    simulator._autoscale_remove(2)
    assert probe.total_slots() == 12  # 2 machines x 4 slots gone


# -- windowed utilization under capacity change ------------------------------


def _regime():
    return ServingRegime(warmup=0.0, horizon=40.0, cooldown=0.0, window=10.0)


def test_windowed_utilization_constant_capacity_is_mean_of_ratios():
    aggregator = WindowedAggregator(_regime())
    aggregator.sample(0, 3, 10)
    aggregator.sample(0, 7, 10)
    overall = aggregator.finalize()["overall"]
    assert overall["mean_utilization"] == pytest.approx((0.3 + 0.7) / 2)


def test_windowed_utilization_weights_by_live_capacity():
    """A mid-window shrink must not let utilization exceed 1.0: the
    constant-denominator mean would report 14/20 + 6/5 style nonsense;
    the capacity-weighted mean stays a true slot-seconds ratio."""
    aggregator = WindowedAggregator(_regime())
    aggregator.sample(0, 14, 20)  # before the shrink
    aggregator.sample(0, 5, 5)  # after: 5 live slots, all busy
    overall = aggregator.finalize()["overall"]
    assert overall["mean_utilization"] == pytest.approx(19 / 25)
    assert overall["mean_utilization"] <= 1.0


def test_windowed_utilization_handles_zero_capacity_samples():
    aggregator = WindowedAggregator(_regime())
    aggregator.sample(0, 0, 0)
    assert aggregator.finalize()["overall"]["mean_utilization"] == 0.0
    varying = WindowedAggregator(_regime())
    varying.sample(0, 4, 8)
    varying.sample(0, 0, 0)  # cluster fully retired for one sample
    overall = varying.finalize()["overall"]
    assert overall["mean_utilization"] == pytest.approx(0.5)


# -- counters-only observability ---------------------------------------------


@pytest.mark.parametrize(
    "plane",
    ["centralized", "decentralized"],
    ids=["run_centralized", "run_decentralized"],
)
def test_resizes_run_with_counters_only_obs(plane):
    """Regression: ``Obs()`` carries counters but no tracer, and the
    controller's capacity-change instant used to dereference the missing
    tracer on the first applied resize."""
    obs = Obs()
    assert obs.tracer is None
    result = run_simulator(
        "hopper",
        build_trace(_SPEC),
        _SPEC,
        plane=plane,
        autoscaler="schedule",
        resize_schedule="2:-2,6:+2",
        obs=obs,
    )
    assert len(result.jobs) == _SPEC.num_jobs
    counts = obs.counters.as_dict()
    assert counts["elastic.remove_machine_events"] == 1
    assert counts["elastic.machines_removed"] == 2
    assert counts["elastic.add_machine_events"] == 1


# -- resize-path invariants under eviction and reinstatement -----------------

_CHURN_SPEC = WorkloadSpec(num_jobs=20, utilization=0.7, total_slots=80, seed=2)


def _random_schedule(rng: random.Random, max_step: int) -> str:
    entries, time = [], 0.0
    for _ in range(10):
        time += rng.uniform(0.5, 3.0)
        delta = rng.choice((-1, 1)) * rng.randint(1, max_step)
        entries.append(f"{time:.3f}:{delta:+d}")
    return ",".join(entries)


def _busy_slots(simulator, worker_id: int) -> int:
    """Busy slots of a worker, 0 for one never created."""
    worker = simulator.workers.get(worker_id)
    return 0 if worker is None else worker.busy_slots


def _job_runtimes(simulator) -> list:
    """The runtimes of every active job, on either plane."""
    if isinstance(simulator, CentralizedSimulator):
        return list(simulator._jobs.values())
    return [sj for s in simulator.schedulers for sj in s.jobs.values()]


def _live_copies(simulator) -> list:
    """Every copy in an active job's view."""
    return [
        copy
        for runtime in _job_runtimes(simulator)
        for copies in runtime.view.copies_by_task.values()
        for copy in copies
    ]


def _assert_resize_invariants(simulator, evicted) -> None:
    """The delta-maintained membership equals one from-scratch rescan of
    its state bytes, with ``evicted`` (the blacklist policy's record) as
    the reference for which machines are blacklisted; then each plane's
    own structure equals one rebuilt from that membership."""
    members = simulator.members
    state = members.state
    assert {m for m, s in enumerate(state) if s & BLACKLISTED} == evicted
    live = _assert_totals_match_rescan(members)
    for copy in _live_copies(simulator):
        assert not state[copy.machine_id]
    if isinstance(members, Cluster):
        _assert_index_matches_rebuild(members)
        assert simulator._total_slots == members.total_slots
    else:
        assert list(members.ids) == live
        numerator = (1.0 - simulator.config.epsilon) * members.total_slots
        for scheduler in simulator.schedulers:
            assert scheduler._fair_numerator == numerator
        for worker in simulator.workers.values():
            if state[worker.worker_id]:
                assert worker.busy_slots == 0 and worker.queue == []


def _check_copy_handles_after_every_event(simulator, monkeypatch) -> list:
    """Step the run's engine one event at a time. After each event,
    every copy in a job's view is running and holds an uncancelled
    finish event, and each copy that finished or was killed during the
    event holds none (a dead copy is never touched again, so it is
    checked once). Returns every copy launched."""
    launched, running = [], {}
    launch = CopyLedger.launch

    def recorded_launch(ledger, *args):
        copy = launch(ledger, *args)
        launched.append(copy)
        running[copy.copy_id] = copy
        return copy

    def check() -> None:
        for copy_id, copy in list(running.items()):
            if copy.is_running:
                assert copy.event is not None and not copy.event.cancelled
            else:
                assert copy.event is None
                del running[copy_id]
        live = sorted(copy.copy_id for copy in _live_copies(simulator))
        assert live == sorted(running)

    engine_run = Simulator.run

    def stepped(engine, until=None, max_events=None):
        assert engine is simulator.sim
        assert until is None and max_events is None
        while engine.peek_next_time() is not None:
            engine_run(engine, max_events=1)
            check()
        return engine.now

    monkeypatch.setattr(CopyLedger, "launch", recorded_launch)
    monkeypatch.setattr(Simulator, "run", stepped)
    return launched


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("plane", ["batch", "centralized", "decentralized"])
def test_resize_invariants_hold_through_eviction_churn(plane, seed, monkeypatch):
    """Random schedule resizes interleaved with strike eviction and
    probation reinstatement: after EVERY applied ADD/REMOVE, eviction
    and reinstatement the delta-maintained state equals a from-scratch
    rescan, and no membership change rebuilds the centralized index.
    After every engine event, only running copies hold finish events."""
    rng = random.Random(seed)
    # The centralized family resizes whole 4-slot machines;
    # decentralized, workers.
    centralized = plane != "decentralized"
    max_step = 3 if centralized else 10
    simulator = build_simulator(
        "hopper",
        build_trace(_CHURN_SPEC),
        _CHURN_SPEC,
        plane=plane,
        straggler_model="machine-correlated",
        blacklist_policy="strikes-probation",
        strike_threshold=2,
        strike_window=8.0,
        autoscaler="schedule",
        resize_schedule=_random_schedule(rng, max_step),
        obs=None,
    )
    stats = {"resizes": 0, "killing_shrinks": 0, "evictions": 0, "reinstated": 0}
    policy = simulator.blacklist_policy
    # The policy forgets a whole batch of due machines before the
    # simulator reinstates them one by one; until then they still count
    # as evicted.
    due_batch = set()
    due_reinstatements = policy.due_reinstatements

    def evicted():
        return set(policy.evicted_machines) | due_batch

    def check():
        _assert_resize_invariants(simulator, evicted())

    def busy(machine_id):
        if centralized:
            return simulator.cluster.busy[machine_id]
        return _busy_slots(simulator, machine_id)

    # The simulators are slotted, so their methods are wrapped on the
    # class (monkeypatch restores them).
    plane_cls = type(simulator)
    add = plane_cls._autoscale_add
    remove = plane_cls._autoscale_remove
    evict = plane_cls._evict_machine
    reinstate = plane_cls._reinstate_machine

    def checked_add(sim, count):
        applied = add(sim, count)
        stats["resizes"] += 1
        check()
        return applied

    def checked_remove(sim, count):
        # The top live ids of the rescan, highest first.
        floor = max(1, sim._elastic.policy.min_machines)
        live = _live_ids(sim.members)
        retiring = live[::-1][: max(0, min(count, len(live) - floor))]
        busy_slots = sum(busy(m) for m in retiring)
        applied = remove(sim, count)
        assert applied == len(retiring)
        assert all(sim.members.state[m] & RETIRED for m in retiring)
        stats["resizes"] += 1
        stats["killing_shrinks"] += busy_slots > 0
        check()
        return applied

    def checked_due(now):
        due = due_reinstatements(now)
        due_batch.update(due)
        return due

    def checked_evict(sim, machine_id):
        assert machine_id in policy.evicted_machines
        evict(sim, machine_id)
        stats["evictions"] += 1
        check()

    def checked_reinstate(sim, machine_id):
        reinstate(sim, machine_id)
        due_batch.discard(machine_id)
        stats["reinstated"] += 1
        check()

    policy.due_reinstatements = checked_due
    monkeypatch.setattr(plane_cls, "_autoscale_add", checked_add)
    monkeypatch.setattr(plane_cls, "_autoscale_remove", checked_remove)
    monkeypatch.setattr(plane_cls, "_evict_machine", checked_evict)
    monkeypatch.setattr(plane_cls, "_reinstate_machine", checked_reinstate)
    rebuilds = []
    rebuild = ClusterIndex.rebuild

    def counted_rebuild(index, bits):
        # Only the simulator's own index counts: the invariant checks
        # build fresh reference indexes.
        if centralized and index is simulator.cluster.index:
            rebuilds.append(simulator.sim.now)
        rebuild(index, bits)

    monkeypatch.setattr(ClusterIndex, "rebuild", counted_rebuild)
    launched = _check_copy_handles_after_every_event(simulator, monkeypatch)
    result = simulator.run()
    assert len(result.jobs) == _CHURN_SPEC.num_jobs
    assert len(launched) == result.total_copies
    assert all(copy.event is None for copy in launched)
    # Not vacuous: the run evicted, reinstated, and shrank busy machines.
    assert result.evictions > 0
    assert result.reinstatements > 0
    assert (stats["evictions"], stats["reinstated"]) == (
        result.evictions,
        result.reinstatements,
    )
    assert stats["killing_shrinks"] > 0
    assert stats["resizes"] >= 4
    check()
    # The reset in run() is the only index rebuild; no eviction,
    # reinstatement or resize rescans the fleet.
    assert rebuilds == ([0.0] if centralized else [])


def _kill_and_requeue(simulator, victims) -> None:
    orphaned = []
    for c, jr in victims:
        simulator._kill_copy(c, jr)
        if not c.task.is_finished:
            orphaned.append((c.task, jr))
    for task, jr in orphaned:
        if jr.view.num_live_copies(task) == 0:
            simulator._requeue(task, jr)


def _old_autoscale_remove(simulator, count, shrinks):
    """The pre-bucketing centralized shrink: retire one machine, rescan
    every live copy for its victims, kill them, next machine; follow up
    on capacity last. Records each shrink's bucketed victims (taken up
    front) beside its scans."""
    cluster = simulator.cluster
    machine_ids = cluster.machines_to_retire(
        count, simulator._elastic.policy.min_machines
    )
    buckets = simulator._running_copies(machine_ids)
    scans = []
    for machine_id in machine_ids:
        cluster.remove_machine(machine_id)
        victims = [
            (c, jr)
            for jr in simulator._jobs.values()
            for copies in jr.view.copies_by_task.values()
            for c in copies
            if c.machine_id == machine_id
        ]
        scans.append(victims)
        _kill_and_requeue(simulator, victims)
    shrinks.append((buckets, scans))
    simulator._refresh_membership()
    simulator._request_dispatch()
    return len(machine_ids)


def test_bucketed_shrink_victims_match_per_machine_scans(monkeypatch):
    """One bucketed walk, concatenated in retirement order, equals the
    old per-machine scans (each made after the previous machine's kills
    and requeues) — and the two shrink paths replay byte-identically."""
    spec = WorkloadSpec(num_jobs=12, utilization=0.8, total_slots=64, seed=4)
    trace = build_trace(spec)
    docs, shrinks = [], []
    for use_old in (False, True):
        if use_old:
            monkeypatch.setattr(
                CentralizedSimulator,
                "_autoscale_remove",
                lambda sim, count: _old_autoscale_remove(sim, count, shrinks),
            )
        simulator = build_centralized_simulator(
            trace,
            "hopper",
            spec,
            autoscaler="schedule",
            resize_schedule="1.5:-6,3:+3,4:-5",
            obs=None,
        )
        docs.append(json.dumps(result_to_dict(simulator.run()), sort_keys=True))
    assert docs[0] == docs[1]
    assert len(shrinks) == 2
    for buckets, scans in shrinks:
        flat = [pair for bucket in buckets for pair in bucket]
        assert flat == [pair for victims in scans for pair in victims]
    # Not vacuous: several machines of one shrink each held copies, and
    # some machine held copies of two jobs (so walk order matters).
    assert max(sum(1 for b in buckets if b) for buckets, _ in shrinks) >= 2
    assert any(
        len({jr.job.job_id for _, jr in bucket}) >= 2
        for buckets, _ in shrinks
        for bucket in buckets
    )


@pytest.mark.parametrize("plane", ["centralized", "batch"])
def test_finished_run_leaves_no_garbage_cycle(plane):
    """A finished run with an autoscaler and probation blacklisting is
    freed by reference counting alone: the elastic controller keeps no
    reference back to its plane, so nothing the run built is left for
    the cycle collector."""
    spec = WorkloadSpec(num_jobs=20, utilization=0.7, total_slots=60, seed=2)
    trace = build_trace(spec)
    gc.collect()
    gc.disable()
    try:
        simulator = build_simulator(
            "hopper",
            trace,
            spec,
            plane=plane,
            straggler_model="machine-correlated",
            blacklist_policy="strikes-probation",
            strike_threshold=2,
            autoscaler="schedule",
            resize_schedule="1:-2,2:+2",
            obs=None,
        )
        result = simulator.run()
        assert simulator._elastic.resizes_applied == 2
        del simulator
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(result.jobs) == spec.num_jobs
    assert unreachable == 0
