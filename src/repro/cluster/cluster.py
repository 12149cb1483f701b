"""The cluster: per-machine-id columns with aggregate slot accounting.

A machine is an id, not an object. Its state lives in four columns
indexed by id: busy and slot counts (``array('I')``, 4 bytes each) and
the blacklisted and retired flags (``bytearray``, 1 byte each). The
rack is computed from the id. A machine therefore costs its column
entries and its two :class:`~repro.cluster.index.ClusterIndex` entries,
with no object and no int of its own.

Aggregate capacity (``total_slots``), the live machine count and the set
of machines with a free slot are maintained *incrementally* — slot
acquire/release, elastic membership and blacklisting each update an
O(log machines) :class:`~repro.cluster.index.ClusterIndex` and the
totals instead of every reader rescanning the columns. Reset is the only
wholesale recomputation.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.cluster.index import ClusterIndex


class Cluster:
    """A fleet of machine ids; tracks aggregate free/busy slots.

    Elastic membership is priced per machine changed, not per machine
    held: ``add_machine``/``remove_machine`` move ``total_slots``, the
    O(1) live machine count and the Fenwick index in O(log machines),
    and ``machines_to_retire`` walks down only from the top of the
    fleet, so a resize of Δ machines costs O(Δ·log machines) here
    (plus any machines a shrink finds already retired above its
    victims). The planes add one O(live copies) victim pass per
    centralized shrink and an O(Δ) decentralized probe-pool update (see
    :mod:`repro.cluster.elastic`).

    The columns ``busy``, ``slots``, ``blacklisted`` and ``retired`` are
    read-only outside this class. ``blacklisted`` is set and cleared one
    machine at a time by ``apply_blacklist``, as the owning simulator
    acts on its :class:`~repro.cluster.policy.BlacklistPolicy`, which
    keeps the only strike record. Retirement is permanent: elastic
    shrink never resurrects a machine id — growth appends fresh ids
    instead — so a reinstatement can't revive it.

    Parameters
    ----------
    num_machines:
        Number of machines.
    slots_per_machine:
        Slots on each machine.
    machines_per_rack:
        Rack assignment granularity (for locality experiments).
    """

    def __init__(
        self,
        num_machines: int,
        slots_per_machine: int = 1,
        machines_per_rack: int = 20,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        _check_slots(slots_per_machine)
        self._machines_per_rack = machines_per_rack
        #: Busy slots per machine id.
        self.busy = array("I", [0]) * num_machines
        #: Slot count per machine id.
        self.slots = array("I", [slots_per_machine]) * num_machines
        self.blacklisted = bytearray(num_machines)
        self.retired = bytearray(num_machines)
        self._busy_count = 0
        self._total_slots = num_machines * slots_per_machine
        self._live_machines = num_machines
        #: Incremental free-slot index (see repro.cluster.index).
        self.index = ClusterIndex(self.free_bits())

    def free_bits(self) -> bytearray:
        """Scan the columns: 1 for every machine with a free slot that is
        neither blacklisted nor retired, else 0 (O(machines))."""
        return bytearray(
            busy < num_slots and not blacklisted and not retired
            for busy, num_slots, blacklisted, retired in zip(
                self.busy, self.slots, self.blacklisted, self.retired
            )
        )

    @property
    def num_machines(self) -> int:
        return len(self.slots)

    @property
    def total_slots(self) -> int:
        return self._total_slots

    @property
    def busy_slots(self) -> int:
        return self._busy_count

    @property
    def free_slots(self) -> int:
        return self._total_slots - self._busy_count

    def rack(self, machine_id: int) -> int:
        return machine_id // self._machines_per_rack

    def acquire_slot(self, machine_id: int) -> None:
        """Mark a slot busy on ``machine_id`` (O(1) aggregate tracking)."""
        busy = self.busy[machine_id] + 1
        num_slots = self.slots[machine_id]
        if busy > num_slots:
            raise RuntimeError(f"machine {machine_id}: no free slot")
        self.busy[machine_id] = busy
        self._busy_count += 1
        if busy == num_slots:
            self.index.set_machine(machine_id, False)

    def release_slot(self, machine_id: int) -> None:
        """Mark a slot free on ``machine_id``."""
        busy = self.busy[machine_id]
        if busy <= 0:
            raise RuntimeError(f"machine {machine_id}: no busy slot")
        self.busy[machine_id] = busy - 1
        self._busy_count -= 1
        self.index.set_machine(
            machine_id,
            not self.blacklisted[machine_id] and not self.retired[machine_id],
        )

    # -- elastic membership (O(log machines), see repro.cluster.elastic) ----

    def add_machine(self, num_slots: Optional[int] = None) -> int:
        """Append one machine and delta-update the aggregates; returns
        its id.

        Machine ids are append-only: a new machine always gets the next
        id, so per-id state elsewhere (straggler flaky sets, worker
        lists) stays valid. Totals and the Fenwick index update in
        O(log machines); nothing is rescanned or rebuilt.
        """
        machine_id = len(self.slots)
        if num_slots is None:
            num_slots = self.slots[0]
        _check_slots(num_slots)
        self.busy.append(0)
        self.slots.append(num_slots)
        self.blacklisted.append(0)
        self.retired.append(0)
        self._total_slots += num_slots
        self._live_machines += 1
        self.index.append_machine(1)
        return machine_id

    def remove_machine(self, machine_id: int) -> None:
        """Retire one machine and delta-update the aggregates.

        The id stays in every column (ids are stable) but stops counting
        toward capacity and drops out of the free-slot index. Copies
        still running on it are the caller's problem — the plane
        simulators reuse their eviction kill→requeue paths.
        """
        if self.retired[machine_id]:
            raise ValueError(f"machine {machine_id} already retired")
        self.retired[machine_id] = 1
        if not self.blacklisted[machine_id]:
            self._total_slots -= self.slots[machine_id]
            self._live_machines -= 1
        self.index.set_machine(machine_id, False)

    def live_machine_count(self) -> int:
        """Machines contributing capacity (not retired, not blacklisted),
        O(1): kept beside ``total_slots``."""
        return self._live_machines

    def machines_to_retire(self, count: int, min_machines: int = 1) -> List[int]:
        """The ids an elastic shrink of ``count`` machines retires: the
        highest live ids, descending, clamped so at least
        ``max(1, min_machines)`` machines stay live.

        The walk down from the highest id visits the chosen machines
        plus any retired or blacklisted ones above them — O(count) when
        growth has re-filled the top since the last shrink.
        """
        count = min(count, self._live_machines - max(1, min_machines))
        blacklisted = self.blacklisted
        retired = self.retired
        chosen: List[int] = []
        machine_id = len(retired)
        while len(chosen) < count:
            machine_id -= 1
            if not retired[machine_id] and not blacklisted[machine_id]:
                chosen.append(machine_id)
        return chosen

    def machines_with_free_slots(self) -> List[int]:
        """Ids of the machines with a free slot, ascending (a scan of
        the columns, for tests and debugging)."""
        return [i for i, bit in enumerate(self.free_bits()) if bit]

    def utilization(self) -> float:
        total = self._total_slots
        return self.busy_slots / total if total else 0.0

    def apply_blacklist(self, machine_id: int, blacklisted: bool) -> None:
        """Blacklist or reinstate one machine and delta-update the
        aggregates in O(log machines), as ``remove_machine`` does (§2.2:
        clusters blacklist problematic machines and avoid scheduling on
        them). Copies still running on a machine being blacklisted are
        the caller's to kill; its slot releases keep its index bit 0.
        """
        if self.blacklisted[machine_id] == blacklisted:
            state = "blacklisted" if blacklisted else "not blacklisted"
            raise ValueError(f"machine {machine_id} already {state}")
        self.blacklisted[machine_id] = blacklisted
        retired = self.retired[machine_id]
        num_slots = self.slots[machine_id]
        if not retired:
            sign = -1 if blacklisted else 1
            self._total_slots += sign * num_slots
            self._live_machines += sign
        self.index.set_machine(
            machine_id,
            not blacklisted and not retired and self.busy[machine_id] < num_slots,
        )

    def reset(self) -> None:
        """Free every slot and rebuild the index from the columns (the
        one O(machines) pass; the totals do not depend on busy slots)."""
        self.busy = array("I", [0]) * len(self.slots)
        self._busy_count = 0
        self.index.rebuild(self.free_bits())


def _check_slots(num_slots: int) -> None:
    if num_slots <= 0:
        raise ValueError("machine must have at least one slot")
