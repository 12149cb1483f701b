"""The cluster: a collection of machines with aggregate slot accounting.

Aggregate capacity (``total_slots``), the live machine count and the set
of machines with a free slot are maintained *incrementally* — slot
acquire/release updates an O(log machines)
:class:`~repro.cluster.index.ClusterIndex` instead of every reader
rescanning the machine list. Blacklist application and reset are the
only wholesale recomputations.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.cluster.blacklist import Blacklist
from repro.cluster.index import ClusterIndex
from repro.cluster.machine import Machine


class Cluster:
    """A set of machines; tracks aggregate free/busy slots.

    Elastic membership is priced per machine changed, not per machine
    held: ``add_machine``/``remove_machine`` move ``total_slots``, the
    O(1) live machine count and the Fenwick index in O(log machines),
    and ``machines_to_retire`` walks down only from the top of the
    fleet, so a resize of Δ machines costs O(Δ·log machines) here
    (plus any machines a shrink finds already retired above its
    victims). The planes add one O(live copies) victim pass per
    centralized shrink and an O(Δ) decentralized probe-pool update (see
    :mod:`repro.cluster.elastic`).

    Parameters
    ----------
    num_machines:
        Number of machines (ignored if ``machines`` given).
    slots_per_machine:
        Slots on each machine.
    machines_per_rack:
        Rack assignment granularity (for locality experiments).
    machines:
        Pre-built machines, overriding the size parameters.
    """

    def __init__(
        self,
        num_machines: int = 0,
        slots_per_machine: int = 1,
        machines_per_rack: int = 20,
        machines: Optional[Iterable[Machine]] = None,
    ) -> None:
        if machines is not None:
            self.machines: List[Machine] = list(machines)
        else:
            if num_machines <= 0:
                raise ValueError("num_machines must be positive")
            self.machines = [
                Machine(
                    machine_id=i,
                    num_slots=slots_per_machine,
                    rack=i // machines_per_rack,
                )
                for i in range(num_machines)
            ]
        if not self.machines:
            raise ValueError("cluster must contain at least one machine")
        self._machines_per_rack = machines_per_rack
        self.blacklist = Blacklist()
        self._busy_count = 0
        self._total_slots, self._live_machines = self._scan_live()
        #: Incremental free-slot index (see repro.cluster.index).
        self.index = ClusterIndex(self.machines)

    def _scan_live(self) -> Tuple[int, int]:
        """``(total_slots, live machines)`` in one pass over the fleet."""
        slots = live = 0
        for m in self.machines:
            if not m.blacklisted and not m.retired:
                slots += m.num_slots
                live += 1
        return slots, live

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def total_slots(self) -> int:
        return self._total_slots

    @property
    def busy_slots(self) -> int:
        return self._busy_count

    @property
    def free_slots(self) -> int:
        return self._total_slots - self._busy_count

    def acquire_slot(self, machine_id: int) -> None:
        """Mark a slot busy on ``machine_id`` (O(1) aggregate tracking)."""
        machine = self.machines[machine_id]
        machine.acquire_slot()
        self._busy_count += 1
        if machine.busy_slots == machine.num_slots:
            self.index.set_machine(machine_id, False)

    def release_slot(self, machine_id: int) -> None:
        """Mark a slot free on ``machine_id``."""
        machine = self.machines[machine_id]
        machine.release_slot()
        self._busy_count -= 1
        self.index.refresh(machine)

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    # -- elastic membership (O(log machines), see repro.cluster.elastic) ----

    def add_machine(
        self,
        num_slots: Optional[int] = None,
        rack: Optional[int] = None,
    ) -> Machine:
        """Append one machine and delta-update the aggregates.

        Machine ids are append-only: a new machine always gets the next
        id, so per-id state elsewhere (straggler flaky sets, worker
        lists) stays valid. Unlike ``apply_blacklist`` this never
        rescans or rebuilds — totals and the Fenwick index update in
        O(log machines).
        """
        machine_id = len(self.machines)
        if num_slots is None:
            num_slots = self.machines[0].num_slots
        if rack is None:
            rack = machine_id // self._machines_per_rack
        machine = Machine(machine_id=machine_id, num_slots=num_slots, rack=rack)
        self.machines.append(machine)
        self._total_slots += num_slots
        self._live_machines += 1
        self.index.append_machine(machine)
        return machine

    def remove_machine(self, machine_id: int) -> None:
        """Retire one machine and delta-update the aggregates.

        The machine object stays in place (ids are stable) but stops
        counting toward capacity and drops out of the free-slot index.
        Copies still running on it are the caller's problem — the plane
        simulators reuse their eviction kill→requeue paths.
        """
        machine = self.machines[machine_id]
        if machine.retired:
            raise ValueError(f"machine {machine_id} already retired")
        machine.retired = True
        if not machine.blacklisted:
            self._total_slots -= machine.num_slots
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
        machines = self.machines
        chosen: List[int] = []
        machine_id = len(machines)
        while len(chosen) < count:
            machine_id -= 1
            machine = machines[machine_id]
            if not machine.retired and not machine.blacklisted:
                chosen.append(machine_id)
        return chosen

    def machines_with_free_slots(self) -> List[Machine]:
        return [m for m in self.machines if m.has_free_slot]

    def utilization(self) -> float:
        total = self._total_slots
        return self.busy_slots / total if total else 0.0

    def apply_blacklist(self) -> None:
        """Propagate the blacklist onto machine flags (§2.2: clusters
        blacklist problematic machines and avoid scheduling on them)."""
        for machine in self.machines:
            machine.blacklisted = self.blacklist.is_blacklisted(machine.machine_id)
        self._total_slots, self._live_machines = self._scan_live()
        self.index.rebuild(self.machines)

    def reset(self) -> None:
        for machine in self.machines:
            machine.reset()
        self._busy_count = 0
        self._total_slots, self._live_machines = self._scan_live()
        self.index.rebuild(self.machines)
