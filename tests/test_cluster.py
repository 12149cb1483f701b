"""Tests for machines, clusters, the datastore and blacklisting."""

import pytest

from repro.cluster.blacklist import Blacklist
from repro.cluster.cluster import Cluster
from repro.cluster.datastore import DataStore
from repro.simulation.rng import RandomSource
from repro.workload.job import make_chain_job, make_single_phase_job
from repro.workload.task import Task


def _free_slots_on(cluster, machine_id):
    return cluster.slots_per_machine - cluster.busy[machine_id]


def test_machine_slot_accounting():
    cluster = Cluster(num_machines=1, slots_per_machine=2)
    assert _free_slots_on(cluster, 0) == 2
    cluster.acquire_slot(0)
    assert _free_slots_on(cluster, 0) == 1
    cluster.release_slot(0)
    assert _free_slots_on(cluster, 0) == 2


def test_machine_over_acquire_raises():
    cluster = Cluster(num_machines=1, slots_per_machine=1)
    cluster.acquire_slot(0)
    with pytest.raises(RuntimeError):
        cluster.acquire_slot(0)


def test_machine_over_release_raises():
    cluster = Cluster(num_machines=1, slots_per_machine=1)
    with pytest.raises(RuntimeError):
        cluster.release_slot(0)


def test_machine_requires_slots():
    with pytest.raises(ValueError):
        Cluster(num_machines=1, slots_per_machine=0)


def test_cluster_totals():
    cluster = Cluster(num_machines=10, slots_per_machine=4)
    assert cluster.num_machines == 10
    assert cluster.total_slots == 40
    assert cluster.free_slots == 40


def test_cluster_slot_tracking_is_consistent():
    cluster = Cluster(num_machines=3, slots_per_machine=2)
    cluster.acquire_slot(0)
    cluster.acquire_slot(1)
    assert cluster.busy_slots == 2
    assert cluster.free_slots == 4
    assert cluster.utilization() == pytest.approx(2 / 6)
    cluster.release_slot(0)
    assert cluster.busy_slots == 1


def test_cluster_machines_with_free_slots():
    cluster = Cluster(num_machines=2, slots_per_machine=1)
    cluster.acquire_slot(0)
    free = cluster.machines_with_free_slots()
    assert free == [1]


def test_cluster_rack_assignment():
    cluster = Cluster(num_machines=45, machines_per_rack=20)
    racks = {cluster.rack(m) for m in range(cluster.num_machines)}
    assert racks == {0, 1, 2}


def test_cluster_reset():
    cluster = Cluster(num_machines=2, slots_per_machine=2)
    cluster.acquire_slot(0)
    cluster.reset()
    assert cluster.busy_slots == 0
    assert cluster.busy[0] == 0


def test_cluster_requires_machines():
    with pytest.raises(ValueError):
        Cluster(num_machines=0)


def test_blacklist_strikes():
    blacklist = Blacklist(strikes_to_blacklist=2, strike_window=10.0)
    assert not blacklist.record_strike(3, now=0.0)
    assert blacklist.record_strike(3, now=1.0)  # second strike crosses threshold
    assert blacklist.is_blacklisted(3)
    assert not blacklist.record_strike(3, now=2.0)  # already blacklisted


def test_blacklist_remove_reinstates():
    blacklist = Blacklist(strikes_to_blacklist=1, strike_window=10.0)
    assert blacklist.record_strike(1, now=0.0)
    assert blacklist.is_blacklisted(1)
    blacklist.remove(1)
    assert not blacklist.is_blacklisted(1)
    assert blacklist.strike_count(1, now=0.0) == 0  # a clean record


def test_cluster_apply_blacklist_removes_capacity():
    cluster = Cluster(num_machines=4, slots_per_machine=2)
    cluster.apply_blacklist(0, True)
    assert cluster.total_slots == 6
    assert cluster.live_machine_count() == 3
    assert 0 not in cluster.machines_with_free_slots()
    with pytest.raises(ValueError):
        cluster.apply_blacklist(0, True)
    cluster.apply_blacklist(0, False)
    assert cluster.total_slots == 8
    assert cluster.live_machine_count() == 4
    assert 0 in cluster.machines_with_free_slots()


# -- datastore ------------------------------------------------------------------

def _job_with_input(num_tasks=4):
    return make_single_phase_job(0, 0.0, [1.0] * num_tasks)


def test_datastore_places_replicas():
    store = DataStore(num_machines=10, replicas=3)
    job = _job_with_input()
    store.place_job_inputs(job)
    for task in job.phases[0].tasks:
        assert len(task.preferred_machines) == 3


def test_datastore_placement_is_stable():
    store = DataStore(num_machines=10)
    task = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    first = store.place_task_input(task)
    second = store.place_task_input(task)
    assert first == second


def test_datastore_locality_checks():
    store = DataStore(num_machines=10)
    task = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    placement = store.place_task_input(task)
    local = placement[0]
    remote = next(m for m in range(10) if m not in placement)
    assert store.is_local(task, local)
    assert not store.is_local(task, remote)
    assert store.duration_multiplier(task, local) == 1.0
    assert store.duration_multiplier(task, remote) == store.remote_penalty


def test_datastore_only_places_input_phases():
    store = DataStore(num_machines=10)
    job = make_chain_job(0, 0.0, [[1.0] * 2, [1.0]])
    store.place_job_inputs(job)
    assert all(t.preferred_machines for t in job.phases[0].tasks)
    assert all(not t.preferred_machines for t in job.phases[1].tasks)


def test_datastore_respects_existing_preference():
    store = DataStore(num_machines=10)
    task = Task(
        task_id=1, job_id=0, phase_index=0, size=1.0, preferred_machines=(7,)
    )
    assert store.place_task_input(task) == (7,)


def test_datastore_validates_params():
    with pytest.raises(ValueError):
        DataStore(num_machines=0)
    with pytest.raises(ValueError):
        DataStore(num_machines=5, remote_penalty=0.5)


def test_datastore_deterministic_with_seed():
    a = DataStore(num_machines=10, random_source=RandomSource(seed=3))
    b = DataStore(num_machines=10, random_source=RandomSource(seed=3))
    task_a = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    task_b = Task(task_id=1, job_id=0, phase_index=0, size=1.0)
    assert a.place_task_input(task_a) == b.place_task_input(task_b)
