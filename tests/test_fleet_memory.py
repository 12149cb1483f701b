"""Fleet memory: what one idle worker or machine costs.

Idle fleet state dominates a 100k-slot run, so each test pins the traced
bytes per fleet member to a bound derived from ``sys.getsizeof``. A
centralized machine is no object at all: it costs its busy count, its
membership state byte and its free-slot index entries (a bit byte and a
Fenwick node). A decentralized worker nothing has addressed is no
object either: it costs a 4-byte id in the probe pool and its membership
state byte, measured after a scheduled shrink and grow-back. Anything
else allocated per member (a ``Machine`` or ``Worker``, an int object,
a worker store slot, per-worker lists, a mirror machine) breaks the
bound. The fixed cost of a one-member fleet is subtracted from the
measurement. A worker that something has contacted is pinned to its
object, its request queue and its entry in the worker store, and a task
in a trace copy to its slotted object and its list slot.

Run as a script to check a larger fleet, e.g. one million workers and
one million machines; each line also prints the bound's margin over
the whole fleet, (bound - measured) x N bytes::

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
from repro.workload.job import make_single_phase_job
from repro.workload.traces import Trace

FLEET = 20_000
#: The decentralized fleet's scheduled resize: shrink by this many
#: workers, then grow back by as many.
RESIZE = 8
#: Bytes a fleet holds beyond its containers whatever its size: counts
#: that are cached small ints in the one-member baseline (live capacity,
#: ε-fair floors, free-machine totals) are int objects in a large fleet.
#: About 150 B are measured at 20k workers; one extra byte per member
#: would add 20 KB.
FIXED_ALLOWANCE = 1024
#: Worker fields: one slot each (a ``Worker`` has no instance dict).
WORKER_FIELDS = 6


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


def _appended_list_bytes(size: int) -> int:
    """Bytes of a list grown by appends to ``size`` elements, with the
    list's over-allocation."""
    grown = []
    for _ in range(size):
        grown.append(None)
    return sys.getsizeof(grown)


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
    """Bytes of a 4-byte id array made from ``range(made)``, cut by
    ``cut`` ids and grown back by as many, over-allocation included."""
    pool = array("I", range(made))
    del pool[-cut:]
    pool.extend(range(made - cut, made))
    return sys.getsizeof(pool)


def worker_bound(num_workers: int) -> float:
    """Per worker: an id in the probe pool (made at the fleet size, cut,
    then grown back), a state byte (made at the fleet size, then grown
    by the regrown ids) and a share of :data:`FIXED_ALLOWANCE`. The
    worker store holds contacted workers only, so it has no slot here."""
    return (
        _pool_bytes(num_workers, RESIZE)
        + _grown_bytes(bytearray(1), num_workers, RESIZE)
        + FIXED_ALLOWANCE
    ) / num_workers


def build_cluster(num_machines: int) -> Cluster:
    return Cluster(num_machines=num_machines, slots_per_machine=4)


def machine_bound(num_machines: int) -> float:
    """Per machine: its busy count, its state byte, its free bit in the
    index and its Fenwick node (a list slot; the tree is allocated at its
    exact length, one entry past the fleet), all made at the fleet size.
    A node covering more than 256 ids holds an int object rather than a
    cached small int: one node in 512. Plus a share of
    :data:`FIXED_ALLOWANCE`."""
    column = array("I").itemsize
    state = bit = 1
    node = sys.getsizeof([None]) - sys.getsizeof([])
    large_nodes = num_machines // 512
    return (
        column
        + state
        + bit
        + node * (num_machines + 1) / num_machines
        + (large_nodes * _allocated(512) + FIXED_ALLOWANCE) / num_machines
    )


def contacted_worker_bound(before: int, after: int, worker_id: int) -> float:
    """A ``Worker`` with one slot per field (no instance dict), its
    empty request queue, its entry in the worker store (a store grown
    from ``before`` to ``after`` workers, per worker added,
    over-allocation included) and its id ``worker_id``, an int object
    shared by the store key and ``Worker.worker_id``. Ids -5..256 are
    cached small ints and cost nothing; a fleet of more than 257
    workers is almost all larger ids."""

    class Fields:
        __slots__ = tuple(f"f{i}" for i in range(WORKER_FIELDS))

    fields = Fields()
    for name in Fields.__slots__:
        setattr(fields, name, None)
    store = {i: None for i in range(before)}
    empty = sys.getsizeof(store)
    for i in range(before, after):
        store[i] = None
    entry = (sys.getsizeof(store) - empty) / (after - before)
    return _allocated(fields) + sys.getsizeof([]) + entry + _allocated(worker_id)


def check_workers(num_workers: int) -> tuple:
    """``(measured, bound)`` bytes per worker at ``num_workers``."""
    measured = _bytes_per_member(build_resized, num_workers)
    return measured, worker_bound(num_workers)


def check_machines(num_machines: int) -> tuple:
    """``(measured, bound)`` bytes per machine at ``num_machines``."""
    measured = _bytes_per_member(build_cluster, num_machines)
    return measured, machine_bound(num_machines)


def test_idle_worker_costs_its_pool_id_and_flag():
    measured, bound = check_workers(FLEET)
    assert measured <= bound, f"{measured:.2f} B per worker > bound {bound:.2f}"


def test_building_and_resizing_a_fleet_creates_no_worker():
    simulator = build_decentralized(FLEET)
    assert simulator.workers == {}
    simulator.run()
    assert simulator._elastic.resizes_applied == 2
    assert simulator.workers == {}
    assert simulator.members.num_machines == FLEET + RESIZE
    assert len(simulator.members.ids) == FLEET


def test_contacted_worker_costs_its_fields_queue_and_store_entry():
    """Traced bytes held per worker once workers are first contacted,
    wherever they were allocated; only tracemalloc's own snapshots are
    left out. The ids lie above 256, so each is an int object the
    worker keeps, as in a large fleet. One contact under tracing comes
    first: the first traced call allocates 64 B of its own, once."""
    simulator = build_decentralized(FLEET)
    contacted = range(5000, 5032)
    gc.collect()
    tracemalloc.start()
    try:
        simulator.worker(3)
        before = tracemalloc.take_snapshot()
        for worker_id in contacted:
            simulator.worker(worker_id)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert not hasattr(simulator.workers[contacted[0]], "__dict__")
    not_tracemalloc = [tracemalloc.Filter(False, tracemalloc.__file__)]
    grown = sum(
        stat.size_diff
        for stat in after.filter_traces(not_tracemalloc).compare_to(
            before.filter_traces(not_tracemalloc), "filename"
        )
    )
    measured = grown / len(contacted)
    bound = contacted_worker_bound(1, 1 + len(contacted), contacted[-1])
    assert measured <= bound, (
        f"{measured:.1f} B per contacted worker > {bound:.1f}"
    )


def _fresh_copy_bytes(num_tasks: int) -> int:
    """Traced bytes held by a fresh copy of a one-job trace of
    ``num_tasks`` tasks."""
    trace = Trace(jobs=[make_single_phase_job(0, 0.0, [1.0] * num_tasks)])
    return _traced_bytes(lambda _: trace.fresh_copy(), num_tasks)


def test_trace_copy_costs_a_slotted_task_and_a_list_slot_per_task():
    """Per task, ``Trace.fresh_copy`` allocates one ``Task`` (its slots,
    no instance dict) and its slot in the appended phase task list;
    sizes, placements and states are shared or immutable. The copy's
    per-job and per-phase dicts and lists differ by a few dozen bytes
    between a one-task and a large trace: :data:`FIXED_ALLOWANCE`."""
    tasks = 5_000
    measured = (_fresh_copy_bytes(tasks) - _fresh_copy_bytes(1)) / (tasks - 1)
    task = make_single_phase_job(0, 0.0, [1.0]).phases[0].tasks[0]
    slot = (_appended_list_bytes(tasks) - _appended_list_bytes(1)) / (tasks - 1)
    bound = _allocated(task) + slot + FIXED_ALLOWANCE / tasks
    assert measured <= bound, f"{measured:.1f} B per task > bound {bound:.1f}"


def test_idle_machine_costs_its_column_and_index_entries():
    measured, bound = check_machines(FLEET)
    assert measured <= bound, f"{measured:.2f} B per machine > bound {bound:.2f}"


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else FLEET
    failed = False
    for kind, check in (("worker", check_workers), ("machine", check_machines)):
        measured, bound = check(size)
        margin = (bound - measured) * size
        print(
            f"{size} {kind}s: {measured:.2f} B per {kind} (bound {bound:.2f},"
            f" margin {margin:.0f} B)"
        )
        failed = failed or measured > bound
    sys.exit(1 if failed else 0)
