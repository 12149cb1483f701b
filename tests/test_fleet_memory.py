"""Fleet memory: what one idle worker or machine costs.

Idle fleet state dominates a 100k-slot run, so each test pins the traced
bytes per fleet member to a bound derived from ``sys.getsizeof``. A
machine costs its object, the int objects it owns and its slot in each
list that holds it, with the over-allocation an appended list carries.
A decentralized worker nothing has addressed is no object at all: it
costs a slot in the worker store, an id in the probe pool and a retired
flag byte, measured after a scheduled shrink and grow-back. Anything else allocated per member (a ``Worker``, an int object,
per-worker lists, a mirror machine) breaks the bound. The fixed cost of
a one-member fleet is subtracted from the measurement.

Run as a script to check a larger fleet, e.g. one million workers::

    PYTHONPATH=src python tests/test_fleet_memory.py 1000000
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from array import array

from repro.cluster.cluster import Cluster
from repro.cluster.elastic import ScheduleAutoscaler
from repro.cluster.policy import StrikeBlacklistPolicy
from repro.decentralized.simulator import DecentralizedSimulator
from repro.simulation.rng import RandomSource
from repro.speculation.late import LATE
from repro.stragglers.model import NoStragglerModel
from repro.workload.traces import Trace

FLEET = 20_000
#: The decentralized fleet's scheduled resize: shrink by this many
#: workers, then grow back by as many.
RESIZE = 8
#: Bytes a decentralized fleet holds beyond its containers whatever its
#: size: counts that are cached small ints in the one-member baseline
#: (live capacity, ε-fair floors) are int objects in a large fleet.
#: About 150 B are measured at 20k workers; one extra byte per worker
#: would add 20 KB.
FIXED_ALLOWANCE = 1024


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
        autoscaler=ScheduleAutoscaler([(10.0, -RESIZE), (20.0, RESIZE)]),
    )


def build_resized(num_workers: int) -> DecentralizedSimulator:
    """A fleet after its scheduled shrink and grow-back: the trace is
    empty, so running it applies only the two resizes."""
    simulator = build_decentralized(num_workers)
    simulator.run()
    return simulator


def _grown_bytes(item, made: int, added: int) -> int:
    """Bytes of a container of ``item`` made with ``made`` elements and
    then extended by ``added``, over-allocation included."""
    grown = item * made
    grown.extend(item * added)
    return sys.getsizeof(grown)


def _pool_bytes(made: int, cut: int) -> int:
    """Bytes of an id array made from ``range(made)``, cut by ``cut``
    ids and grown back by as many, over-allocation included."""
    pool = array("l", range(made))
    del pool[-cut:]
    pool.extend(range(made - cut, made))
    return sys.getsizeof(pool)


def worker_bound(num_workers: int) -> float:
    """Per worker: a slot in the worker store and a retired flag (both
    made at the fleet size, then grown by the regrown ids), an id in the
    probe pool (made at the fleet size, cut, then grown back) and a
    share of :data:`FIXED_ALLOWANCE`."""
    return (
        _grown_bytes([None], num_workers, RESIZE)
        + _pool_bytes(num_workers, RESIZE)
        + _grown_bytes(bytearray(1), num_workers, RESIZE)
        + FIXED_ALLOWANCE
    ) / num_workers


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
    measured = _bytes_per_member(build_resized, num_workers)
    return measured, worker_bound(num_workers)


def test_idle_worker_costs_its_store_slot_pool_id_and_flag():
    measured, bound = check_workers(FLEET)
    assert measured <= bound, f"{measured:.1f} B per worker > bound {bound:.1f}"


def test_building_and_resizing_a_fleet_creates_no_worker():
    simulator = build_decentralized(FLEET)
    assert simulator.workers.count(None) == FLEET
    simulator.run()
    assert simulator._elastic.resizes_applied == 2
    assert simulator.workers.count(None) == FLEET + RESIZE
    assert len(simulator._sample_pool) == FLEET


def test_idle_machine_costs_its_object_ints_and_index_slots():
    measured = _bytes_per_member(build_cluster, FLEET)
    bound = machine_bound(FLEET)
    assert measured <= bound, f"{measured:.1f} B per machine > bound {bound:.1f}"


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else FLEET
    measured, bound = check_workers(size)
    print(f"{size} workers: {measured:.2f} B per worker (bound {bound:.2f})")
    sys.exit(0 if measured <= bound else 1)
