"""The cluster: fleet membership plus busy slots and a free-slot index.

A machine is an id, not an object. Its state byte and the live totals
are its :class:`~repro.cluster.membership.Membership`; the cluster adds
its busy-slot count (``array('I')``, 4 bytes) and its two
:class:`~repro.cluster.index.ClusterIndex` entries. The rack is computed
from the id. A machine therefore costs those column entries, with no
object and no int of its own.

Busy slots and the set of machines with a free slot are maintained
*incrementally*: slot acquire/release, elastic membership and
blacklisting each update the O(log machines) index instead of every
reader rescanning the columns. Reset is the only wholesale
recomputation.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.cluster.index import ClusterIndex
from repro.cluster.membership import Membership


class Cluster(Membership):
    """A fleet of machine ids; tracks aggregate free/busy slots.

    Elastic membership is priced per machine changed, not per machine
    held: ``add_machine``, ``remove_machine`` and ``apply_blacklist``
    extend the membership's O(1) delta by one Fenwick update each, so a
    resize of Δ machines costs O(Δ·log machines) here. The column
    ``busy`` is read-only outside this class.

    Parameters
    ----------
    num_machines:
        Number of machines.
    slots_per_machine:
        Slots on each machine.
    machines_per_rack:
        Rack assignment granularity (for locality experiments).
    """

    __slots__ = ("_machines_per_rack", "busy", "_busy_count", "index")

    def __init__(
        self,
        num_machines: int,
        slots_per_machine: int = 1,
        machines_per_rack: int = 20,
    ) -> None:
        super().__init__(num_machines, slots_per_machine)
        self._machines_per_rack = machines_per_rack
        #: Busy slots per machine id.
        self.busy = array("I", [0]) * num_machines
        self._busy_count = 0
        #: Incremental free-slot index (see repro.cluster.index).
        self.index = ClusterIndex(self.free_bits())

    def free_bits(self) -> bytearray:
        """Scan the columns: 1 for every live machine with a free slot,
        else 0 (O(machines))."""
        slots = self.slots_per_machine
        return bytearray(
            busy < slots and not state
            for busy, state in zip(self.busy, self.state)
        )

    @property
    def busy_slots(self) -> int:
        return self._busy_count

    @property
    def free_slots(self) -> int:
        return self.total_slots - self._busy_count

    def rack(self, machine_id: int) -> int:
        return machine_id // self._machines_per_rack

    def acquire_slot(self, machine_id: int) -> None:
        """Mark a slot busy on ``machine_id`` (O(1) aggregate tracking)."""
        busy = self.busy[machine_id] + 1
        slots = self.slots_per_machine
        if busy > slots:
            raise RuntimeError(f"machine {machine_id}: no free slot")
        self.busy[machine_id] = busy
        self._busy_count += 1
        if busy == slots:
            self.index.set_machine(machine_id, False)

    def release_slot(self, machine_id: int) -> None:
        """Mark a slot free on ``machine_id``; a machine that is not live
        keeps its index bit 0."""
        busy = self.busy[machine_id]
        if busy <= 0:
            raise RuntimeError(f"machine {machine_id}: no busy slot")
        self.busy[machine_id] = busy - 1
        self._busy_count -= 1
        self.index.set_machine(machine_id, not self.state[machine_id])

    # -- membership deltas (O(log machines) each) -----------------------------

    def add_machine(self, count: int = 1) -> int:
        """Append ``count`` idle machines under fresh ids and extend the
        index by one Fenwick append each; returns the first new id."""
        machine_id = super().add_machine(count)
        self.busy += array("I", [0]) * count
        append = self.index.append_machine
        for _ in range(count):
            append(1)
        return machine_id

    def remove_machine(self, *machine_ids: int) -> List[int]:
        """Retire machines: they leave the totals and the index."""
        left = super().remove_machine(*machine_ids)
        set_machine = self.index.set_machine
        for machine_id in left:
            set_machine(machine_id, False)
        return left

    def apply_blacklist(self, machine_id: int, blacklisted: bool) -> bool:
        """Blacklist or reinstate one machine and sync its index bit."""
        flipped = super().apply_blacklist(machine_id, blacklisted)
        self.index.set_machine(
            machine_id,
            not self.state[machine_id]
            and self.busy[machine_id] < self.slots_per_machine,
        )
        return flipped

    def live_machine_count(self) -> int:
        """Machines contributing capacity (neither retired nor
        blacklisted), O(1)."""
        return self.live

    def machines_with_free_slots(self) -> List[int]:
        """Ids of the machines with a free slot, ascending (a scan of
        the columns, for tests and debugging)."""
        return [i for i, bit in enumerate(self.free_bits()) if bit]

    def utilization(self) -> float:
        total = self.total_slots
        return self._busy_count / total if total else 0.0

    def reset(self) -> None:
        """Free every slot and rebuild the index from the columns (the
        one O(machines) pass; the totals do not depend on busy slots)."""
        self.busy = array("I", [0]) * len(self.state)
        self._busy_count = 0
        self.index.rebuild(self.free_bits())
