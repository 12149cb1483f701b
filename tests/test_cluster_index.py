"""Property-style invariant tests for the incremental ClusterIndex.

The index is only admissible if, after *any* sequence of slot
acquire/release/blacklist operations, its contents equal what a
from-scratch scan of the machine list reports — the same check the old
O(machines) code performed on every query.
"""

import random

import pytest

from repro.cluster.blacklist import Blacklist
from repro.cluster.cluster import Cluster
from repro.cluster.index import ClusterIndex
from repro.cluster.machine import Machine


def _assert_index_matches_scan(cluster: Cluster) -> None:
    """The single source of truth: index contents == from-scratch scan."""
    scan_free = [m.machine_id for m in cluster.machines_with_free_slots()]
    index = cluster.index
    assert index.free_machine_ids() == scan_free
    assert index.free_machine_count == len(scan_free)
    for k, machine_id in enumerate(scan_free):
        assert index.nth_free_machine(k) == machine_id
    assert index.first_free_machine() == (scan_free[0] if scan_free else None)
    assert cluster.total_slots == sum(
        m.num_slots for m in cluster.machines if not m.blacklisted
    )
    assert cluster.free_slots == cluster.total_slots - cluster.busy_slots


def test_fresh_cluster_index_matches_scan():
    cluster = Cluster(num_machines=17, slots_per_machine=3)
    _assert_index_matches_scan(cluster)


def test_index_tracks_acquire_release():
    cluster = Cluster(num_machines=5, slots_per_machine=2)
    cluster.acquire_slot(2)
    _assert_index_matches_scan(cluster)
    cluster.acquire_slot(2)  # machine 2 now full -> leaves the index
    _assert_index_matches_scan(cluster)
    assert 2 not in cluster.index.free_machine_ids()
    cluster.release_slot(2)  # regains a slot -> re-enters the index
    _assert_index_matches_scan(cluster)
    assert 2 in cluster.index.free_machine_ids()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_launch_kill_finish_sequences(seed):
    """Random acquire ("launch") / release ("kill"/"finish") sequences
    keep the index equal to the from-scratch scan at every step."""
    rng = random.Random(seed)
    num_machines = rng.randint(1, 40)
    cluster = Cluster(
        num_machines=num_machines, slots_per_machine=rng.randint(1, 3)
    )
    busy = []  # machine ids with at least one slot we acquired
    for step in range(300):
        can_acquire = cluster.free_slots > 0
        if busy and (not can_acquire or rng.random() < 0.45):
            machine_id = busy.pop(rng.randrange(len(busy)))
            cluster.release_slot(machine_id)
        elif can_acquire:
            free_ids = cluster.index.free_machine_ids()
            machine_id = rng.choice(free_ids)
            cluster.acquire_slot(machine_id)
            busy.append(machine_id)
        if step % 7 == 0:
            _assert_index_matches_scan(cluster)
    _assert_index_matches_scan(cluster)


@pytest.mark.parametrize("seed", [10, 11])
def test_randomized_sequences_with_blacklisting(seed):
    rng = random.Random(seed)
    cluster = Cluster(num_machines=20, slots_per_machine=2)
    for _ in range(50):
        if rng.random() < 0.3:
            victim = rng.randrange(20)
            if rng.random() < 0.5:
                cluster.blacklist.add(victim)
            else:
                cluster.blacklist.remove(victim)
            # Blacklisting a machine with busy slots would strand them;
            # apply on an idle cluster like the simulators do.
            if cluster.busy_slots == 0:
                cluster.apply_blacklist()
        else:
            free_ids = cluster.index.free_machine_ids()
            if free_ids and cluster.busy_slots == 0:
                machine_id = rng.choice(free_ids)
                cluster.acquire_slot(machine_id)
                cluster.release_slot(machine_id)
        _assert_index_matches_scan(cluster)


class _ReferenceBlacklist:
    """Brute-force reference for :class:`Blacklist`: keeps the complete
    strike history and recomputes everything from scratch per query."""

    def __init__(self, strikes_to_blacklist, strike_window):
        self.k = strikes_to_blacklist
        self.window = strike_window
        self.history = {}  # machine -> [strike times]
        self.blacklisted = set()

    def _counting(self, machine_id, now):
        times = self.history.get(machine_id, [])
        if self.window is None:
            return len(times)
        return len([t for t in times if now - t < self.window])

    def record_strike(self, machine_id, now):
        if machine_id in self.blacklisted:
            return False
        self.history.setdefault(machine_id, []).append(now)
        if self._counting(machine_id, now) >= self.k:
            self.blacklisted.add(machine_id)
            return True
        return False

    def add(self, machine_id):
        self.blacklisted.add(machine_id)

    def remove(self, machine_id):
        self.blacklisted.discard(machine_id)
        self.history.pop(machine_id, None)


@pytest.mark.parametrize("seed", range(6))
def test_blacklist_matches_brute_force_reference(seed):
    """Property: randomized strike/eviction/reinstatement sequences with
    non-decreasing timestamps keep the windowed Blacklist equal to the
    full-history brute-force reference at every step."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    window = rng.choice([None, 1.0, 5.0, 20.0])
    num_machines = rng.randint(1, 12)
    actual = Blacklist(strikes_to_blacklist=k, strike_window=window)
    reference = _ReferenceBlacklist(k, window)
    now = 0.0
    for _ in range(400):
        now += rng.random() * 3.0
        machine_id = rng.randrange(num_machines)
        op = rng.random()
        if op < 0.7:
            assert actual.record_strike(
                machine_id, now
            ) == reference.record_strike(machine_id, now)
        elif op < 0.85:
            actual.add(machine_id)
            reference.add(machine_id)
        else:  # reinstatement wipes the strike record in both
            actual.remove(machine_id)
            reference.remove(machine_id)
        assert actual.blacklisted_machines == reference.blacklisted
        if window is not None:
            probe = rng.randrange(num_machines)
            if not actual.is_blacklisted(probe):
                assert actual.strike_count(probe, now) == reference._counting(
                    probe, now
                )


def test_blacklist_window_expires_old_strikes():
    blacklist = Blacklist(strikes_to_blacklist=2, strike_window=5.0)
    assert not blacklist.record_strike(0, now=0.0)
    # The first strike has aged out: the second one does not blacklist.
    assert not blacklist.record_strike(0, now=6.0)
    assert blacklist.record_strike(0, now=8.0)
    assert blacklist.is_blacklisted(0)


def test_blacklist_lifetime_mode_unchanged():
    """window=None keeps the original cumulative-count semantics."""
    blacklist = Blacklist(strikes_to_blacklist=3)
    assert not blacklist.record_strike(1, now=0.0)
    assert not blacklist.record_strike(1, now=1000.0)
    assert blacklist.record_strike(1, now=9999.0)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_index_invariants_under_midrun_eviction(seed):
    """Property: interleave slot traffic with simulator-style mid-run
    eviction (kill the victim's busy slots, then apply the blacklist)
    and reinstatement; the index must equal the from-scratch scan at
    every step."""
    rng = random.Random(seed)
    num_machines = rng.randint(4, 24)
    cluster = Cluster(
        num_machines=num_machines, slots_per_machine=rng.randint(1, 3)
    )
    policy_blacklist = Blacklist(strikes_to_blacklist=2, strike_window=8.0)
    busy = {m: 0 for m in range(num_machines)}
    now = 0.0
    for _ in range(250):
        now += rng.random()
        op = rng.random()
        if op < 0.45 and cluster.index.free_machine_count:
            free_ids = cluster.index.free_machine_ids()
            machine_id = free_ids[rng.randrange(len(free_ids))]
            cluster.acquire_slot(machine_id)
            busy[machine_id] += 1
        elif op < 0.7:
            candidates = [m for m, b in busy.items() if b > 0]
            if candidates:
                machine_id = rng.choice(candidates)
                cluster.release_slot(machine_id)
                busy[machine_id] -= 1
        elif op < 0.9:
            # Strike a machine; on crossing the threshold, evict it the
            # way the simulators do: kill (release) its running copies
            # first, then apply the blacklist (which rebuilds the index).
            machine_id = rng.randrange(num_machines)
            if policy_blacklist.record_strike(machine_id, now):
                while busy[machine_id] > 0:
                    cluster.release_slot(machine_id)
                    busy[machine_id] -= 1
                cluster.blacklist.add(machine_id)
                cluster.apply_blacklist()
        else:
            evicted = sorted(policy_blacklist.blacklisted_machines)
            if evicted:  # probation served: reinstate one
                machine_id = rng.choice(evicted)
                policy_blacklist.remove(machine_id)
                cluster.blacklist.remove(machine_id)
                cluster.apply_blacklist()
        _assert_index_matches_scan(cluster)
        assert cluster.busy_slots == sum(busy.values())


def test_index_survives_cluster_reset():
    cluster = Cluster(num_machines=4, slots_per_machine=1)
    for machine_id in range(4):
        cluster.acquire_slot(machine_id)
    assert cluster.index.free_machine_count == 0
    cluster.reset()
    _assert_index_matches_scan(cluster)
    assert cluster.index.free_machine_count == 4


def test_index_after_simulation_run_matches_scan():
    """End-to-end: after a full centralized replay (launch / kill /
    finish traffic) the index equals the scan and the cluster is idle."""
    from repro.centralized.config import CentralizedConfig
    from repro.centralized.simulator import CentralizedSimulator
    from repro.simulation.rng import RandomSource
    from repro.speculation import LATE
    from repro.stragglers.model import ParetoRedrawStragglerModel
    from repro.workload.generator import SPARK_FACEBOOK_PROFILE, TraceGenerator
    from repro.workload.traces import Trace
    from repro.registry import SYSTEMS

    gen = TraceGenerator(
        SPARK_FACEBOOK_PROFILE,
        random_source=RandomSource(seed=5),
        max_phase_tasks=40,
    )
    trace = Trace(jobs=gen.generate(12, interarrival_mean=1.0))
    cluster = Cluster(num_machines=15, slots_per_machine=2)
    simulator = CentralizedSimulator(
        cluster=cluster,
        policy=SYSTEMS.get("centralized/hopper").factory(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(beta=1.4),
        config=CentralizedConfig(),
        random_source=RandomSource(seed=6),
    )
    simulator.run()
    _assert_index_matches_scan(cluster)
    assert cluster.busy_slots == 0


def test_nth_free_machine_bounds():
    index = ClusterIndex([Machine(machine_id=i) for i in range(3)])
    assert index.nth_free_machine(0) == 0
    assert index.nth_free_machine(2) == 2
    with pytest.raises(IndexError):
        index.nth_free_machine(3)
    with pytest.raises(IndexError):
        index.nth_free_machine(-1)


def test_nth_free_matches_selection_on_sparse_patterns():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 64)
        machines = [
            Machine(machine_id=i, num_slots=1, rack=0) for i in range(n)
        ]
        for m in machines:
            if rng.random() < 0.5:
                m.busy_slots = 1
        index = ClusterIndex(machines)
        free_ids = [m.machine_id for m in machines if m.has_free_slot]
        assert index.free_machine_count == len(free_ids)
        assert index.free_machine_ids() == free_ids
        for k, expected in enumerate(free_ids):
            assert index.nth_free_machine(k) == expected


def test_randrange_selection_equals_choice_on_scan():
    """The bit-identity cornerstone: rng.randrange(count) + nth_free
    consumes the same entropy and picks the same machine as
    rng.choice(scan) did on the scan-based simulator."""
    cluster = Cluster(num_machines=50, slots_per_machine=1)
    for machine_id in range(0, 50, 3):
        cluster.acquire_slot(machine_id)

    rng_a = random.Random(7)
    rng_b = random.Random(7)
    for _ in range(200):
        via_choice = rng_a.choice(cluster.machines_with_free_slots())
        via_index = cluster.index.nth_free_machine(
            rng_b.randrange(cluster.index.free_machine_count)
        )
        assert via_choice.machine_id == via_index
        assert rng_a.getstate() == rng_b.getstate()
