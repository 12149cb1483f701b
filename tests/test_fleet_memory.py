"""Fleet memory: what one idle worker or machine costs.

Idle fleet state dominates a 100k-slot run, so each test pins the traced
bytes per fleet member to a bound derived from ``sys.getsizeof``: the
member object, the int objects it owns and its slot in each list that
holds it, with the over-allocation an appended list carries. Anything
else allocated per member (an instance dict, per-worker lists, a mirror
machine) breaks the bound. The fixed cost of a one-member fleet is
subtracted from the measurement.

Run as a script to check a larger fleet, e.g. one million workers::

    PYTHONPATH=src python tests/test_fleet_memory.py 1000000
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.cluster.cluster import Cluster
from repro.cluster.elastic import ScheduleAutoscaler
from repro.cluster.policy import StrikeBlacklistPolicy
from repro.decentralized.simulator import DecentralizedSimulator
from repro.simulation.rng import RandomSource
from repro.speculation.late import LATE
from repro.stragglers.model import NoStragglerModel
from repro.workload.traces import Trace

FLEET = 20_000


def _traced_bytes(build, size: int) -> int:
    """Traced bytes still held by ``build(size)``'s result."""
    build(1)  # warm any state built lazily on first use
    gc.collect()
    tracemalloc.start()
    try:
        held = build(size)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held
    return current


def _bytes_per_member(build, size: int) -> float:
    """Marginal traced bytes per fleet member: the fixed cost of a
    one-member fleet is subtracted out."""
    return (_traced_bytes(build, size) - _traced_bytes(build, 1)) / (size - 1)


def _allocated(obj) -> int:
    """Bytes the allocator hands out for ``obj``: its ``sys.getsizeof``
    rounded up to the 8-byte alignment of its C struct (a one-digit int
    reports 28 bytes and occupies 32)."""
    return -(-sys.getsizeof(obj) // 8) * 8


def _appended_slot_bytes(size: int) -> float:
    """Bytes per element of a list grown by appends to ``size``, with
    the list's over-allocation."""
    grown = []
    for _ in range(size):
        grown.append(None)
    return (sys.getsizeof(grown) - sys.getsizeof([])) / size


def build_decentralized(num_workers: int) -> DecentralizedSimulator:
    return DecentralizedSimulator(
        num_workers=num_workers,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[]),
        straggler_model=NoStragglerModel(),
        random_source=RandomSource(seed=1),
        blacklist_policy=StrikeBlacklistPolicy(num_workers),
        autoscaler=ScheduleAutoscaler([(10.0, -8), (20.0, 8)]),
    )


def worker_bound(num_workers: int) -> float:
    """One worker object, its id int and its slot in the worker list
    (which is also the sample pool until the first shrink)."""
    worker = build_decentralized(2).workers[-1]
    return (
        _allocated(worker)
        + _allocated(num_workers - 1)
        + _appended_slot_bytes(num_workers)
    )


def build_cluster(num_machines: int) -> Cluster:
    return Cluster(num_machines=num_machines, slots_per_machine=4)


def machine_bound(num_machines: int) -> float:
    """One machine object, its id and rack ints, and its slots in the
    machine list and the index's bit list (both appended) and Fenwick
    tree (allocated at its exact length, one entry past the fleet)."""
    machine = build_cluster(2).machines[-1]
    return (
        _allocated(machine)
        + 2 * _allocated(num_machines - 1)
        + 2 * _appended_slot_bytes(num_machines)
        + 8 * (num_machines + 1) / num_machines
    )


def check_workers(num_workers: int) -> tuple:
    """``(measured, bound)`` bytes per worker at ``num_workers``."""
    measured = _bytes_per_member(build_decentralized, num_workers)
    return measured, worker_bound(num_workers)


def test_idle_worker_costs_its_object_id_and_list_slot():
    measured, bound = check_workers(FLEET)
    assert measured <= bound, f"{measured:.1f} B per worker > bound {bound:.1f}"


def test_idle_machine_costs_its_object_ints_and_index_slots():
    measured = _bytes_per_member(build_cluster, FLEET)
    bound = machine_bound(FLEET)
    assert measured <= bound, f"{measured:.1f} B per machine > bound {bound:.1f}"


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else FLEET
    measured, bound = check_workers(size)
    print(f"{size} workers: {measured:.1f} B per worker (bound {bound:.1f})")
    sys.exit(0 if measured <= bound else 1)
