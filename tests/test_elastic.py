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

import json
import random

import pytest

from repro.centralized.policies import HopperPolicy
from repro.cluster.cluster import Cluster
from repro.cluster.elastic import (
    ReactiveAutoscaler,
    ScheduleAutoscaler,
    parse_resize_schedule,
)
from repro.cluster.index import ClusterIndex
from repro.core.allocation import JobAllocationState
from repro.core.incremental import IncrementalAllocator
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
from repro.serving.driver import _PLANE_PROBES
from repro.serving.windows import ServingRegime, WindowedAggregator

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


def _assert_matches_rebuild(cluster: Cluster) -> None:
    """Index and totals must equal what a wholesale recompute reports."""
    rebuilt = ClusterIndex(cluster.machines)
    index = cluster.index
    assert len(index) == len(cluster.machines)
    assert index.free_machine_ids() == rebuilt.free_machine_ids()
    assert index.free_machine_count == rebuilt.free_machine_count
    for k in range(rebuilt.free_machine_count):
        assert index.nth_free_machine(k) == rebuilt.nth_free_machine(k)
    assert index.first_free_machine() == rebuilt.first_free_machine()
    assert (cluster.total_slots, cluster.live_machine_count()) == cluster._scan_live()


def test_add_machine_appends_fresh_id():
    cluster = Cluster(num_machines=3, slots_per_machine=2)
    machine = cluster.add_machine()
    assert machine.machine_id == 3
    assert machine.num_slots == 2  # defaults from the existing fleet
    assert cluster.total_slots == 8
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
    machine = cluster.add_machine()
    assert machine.machine_id == 4
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
        live = [
            m.machine_id
            for m in cluster.machines
            if not m.retired and not m.blacklisted
        ]
        if op < 0.15:
            cluster.add_machine(num_slots=rng.randint(1, 3))
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


def _reference_retire(cluster: Cluster, count: int, min_machines: int):
    """The original selection: rescan the live count, then walk the
    whole fleet from the top skipping retired/blacklisted machines."""
    live = sum(1 for m in cluster.machines if not m.retired and not m.blacklisted)
    count = min(count, live - max(1, min_machines))
    chosen = []
    for machine in reversed(cluster.machines):
        if len(chosen) >= count:
            break
        if not machine.retired and not machine.blacklisted:
            chosen.append(machine.machine_id)
    return chosen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_machines_to_retire_matches_full_walk(seed):
    """Shrink selection clamps on the O(1) live count, yet must pick
    exactly what a rescan plus a full reversed walk picks — through runs
    of consecutive shrinks, growth and blacklist changes."""
    rng = random.Random(seed)
    cluster = Cluster(num_machines=12, slots_per_machine=2)
    for _ in range(300):
        op = rng.random()
        if op < 0.2:
            cluster.add_machine()
        elif op < 0.55:
            count = rng.randint(1, 4)
            floor = rng.randint(1, 3)
            expected = _reference_retire(cluster, count, floor)
            ids = cluster.machines_to_retire(count, floor)
            assert ids == expected
            for machine_id in ids:
                cluster.remove_machine(machine_id)
        else:
            live = [m.machine_id for m in cluster.machines if not m.retired]
            target = rng.choice(live)
            if cluster.blacklist.is_blacklisted(target):
                cluster.blacklist.remove(target)
            else:
                cluster.blacklist.add(target)
            cluster.apply_blacklist()
        _assert_matches_rebuild(cluster)


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
    dead_sum = sum(w.num_slots for w in simulator.workers)
    assert dead_sum == 20  # the buggy denominator would still say 20
    assert probe.total_slots() == 15
    added = simulator._autoscale_add(2)
    assert added == 2
    assert probe.total_slots() == 17


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


def _assert_resize_invariants(simulator, plane: str) -> None:
    cluster = simulator.cluster
    live = sum(1 for m in cluster.machines if not m.retired and not m.blacklisted)
    assert cluster.live_machine_count() == live
    if plane == "decentralized":
        workers = simulator.workers
        pool = simulator._sample_pool
        assert pool == [workers[i] for i in cluster.index.free_machine_ids()]
        assert simulator.total_slots == len(pool) * simulator._slots_per_worker
        numerator = (1.0 - simulator.config.epsilon) * simulator.total_slots
        for scheduler in simulator.schedulers:
            assert scheduler._fair_numerator == numerator
    else:
        for jr in simulator._jobs.values():
            for copies in jr.view.copies_by_task.values():
                for copy in copies:
                    assert not cluster.machines[copy.machine_id].retired


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("plane", ["centralized", "decentralized"])
def test_resize_invariants_hold_through_eviction_churn(plane, seed):
    """Random schedule resizes interleaved with strike eviction and
    probation reinstatement: after EVERY applied ADD/REMOVE the
    delta-maintained state equals a from-scratch rescan."""
    rng = random.Random(seed)
    # Centralized resizes whole 4-slot machines; decentralized, workers.
    max_step = 3 if plane == "centralized" else 10
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
    controller = simulator._elastic
    add, remove = controller._add, controller._remove
    cluster = simulator.cluster
    stats = {"resizes": 0, "killing_shrinks": 0}

    def checked_add(count):
        applied = add(count)
        stats["resizes"] += 1
        _assert_resize_invariants(simulator, plane)
        return applied

    def checked_remove(count):
        floor = simulator._autoscaler.min_machines
        retiring = cluster.machines_to_retire(count, floor)
        if plane == "centralized":
            busy = sum(cluster.machines[m].busy_slots for m in retiring)
        else:
            busy = sum(simulator.workers[m].busy_slots for m in retiring)
        applied = remove(count)
        assert applied == len(retiring)
        stats["resizes"] += 1
        stats["killing_shrinks"] += busy > 0
        _assert_resize_invariants(simulator, plane)
        return applied

    controller._add, controller._remove = checked_add, checked_remove
    result = simulator.run()
    assert len(result.jobs) == _CHURN_SPEC.num_jobs
    # Not vacuous: the run evicted, reinstated, and shrank busy machines.
    assert result.evictions > 0
    assert result.reinstatements > 0
    assert stats["killing_shrinks"] > 0
    assert stats["resizes"] >= 4
    _assert_resize_invariants(simulator, plane)


def _old_autoscale_remove(simulator, count, shrinks):
    """The pre-bucketing centralized shrink: retire one machine, rescan
    every live copy for its victims, kill them, next machine. Records
    each shrink's bucketed victims (taken up front) beside its scans."""
    cluster = simulator.cluster
    machine_ids = cluster.machines_to_retire(
        count, simulator._autoscaler.min_machines
    )
    buckets = simulator._machine_victims(machine_ids)
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
        simulator._kill_victims(victims)
    shrinks.append(([buckets[m] for m in machine_ids], scans))
    simulator._resize_slot_pool()
    simulator._request_dispatch()
    return len(machine_ids)


def test_bucketed_shrink_victims_match_per_machine_scans():
    """One bucketed walk, concatenated in retirement order, equals the
    old per-machine scans (each made after the previous machine's kills
    and requeues) — and the two shrink paths replay byte-identically."""
    spec = WorkloadSpec(num_jobs=12, utilization=0.8, total_slots=64, seed=4)
    trace = build_trace(spec)
    docs, shrinks = [], []
    for use_old in (False, True):
        simulator = build_centralized_simulator(
            trace,
            "hopper",
            spec,
            autoscaler="schedule",
            resize_schedule="1.5:-6,3:+3,4:-5",
            obs=None,
        )
        if use_old:
            simulator._elastic._remove = (
                lambda count, s=simulator: _old_autoscale_remove(s, count, shrinks)
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
