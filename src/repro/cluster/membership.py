"""Fleet membership, shared by every scheduler plane.

A machine (a decentralized worker) is an id. :class:`Membership` keeps
one state byte per id, 0 for a live machine, else its
:data:`BLACKLISTED` and :data:`RETIRED` bits; one slot count for the
whole fleet; and the live machine count and live ``total_slots`` beside
them. Growth, retirement, blacklisting and reinstatement are deltas: each
changes one byte and the two totals. A plane subclasses it to keep its
own structure in step: the centralized
:class:`~repro.cluster.cluster.Cluster` adds busy slots and a Fenwick
free-slot index; the decentralized plane adds the ascending pool of live
ids it samples probes from.

Retirement is permanent: growth appends fresh ids (so per-id state
everywhere stays valid) and a reinstatement only clears the blacklisted
bit, so a retired id never comes back.

:class:`~repro.runtime.plane.Plane` runs the one membership sequence
both planes share on top of it: observe a completion, evict, reinstate
or shrink, follow up on capacity, then kill and requeue.
"""

from __future__ import annotations

from typing import List

#: State bits of a machine id.
BLACKLISTED = 1
RETIRED = 2


class Membership:
    """Per-id state bytes and the live totals of a fleet.

    ``state``, ``slots_per_machine``, ``live`` and ``total_slots`` are
    read-only outside this class and its subclasses. Each change reports
    which machines' liveness flipped, so a subclass updates its own
    structure only where it must.
    """

    __slots__ = ("state", "slots_per_machine", "live", "total_slots")

    def __init__(self, num_machines: int, slots_per_machine: int) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if slots_per_machine <= 0:
            raise ValueError("machine must have at least one slot")
        self.state = bytearray(num_machines)
        self.slots_per_machine = slots_per_machine
        self.live = num_machines
        self.total_slots = num_machines * slots_per_machine

    @property
    def num_machines(self) -> int:
        return len(self.state)

    def add_machine(self, count: int = 1) -> int:
        """Append ``count`` live machines under fresh ids; returns the
        first of them."""
        machine_id = len(self.state)
        self.state.extend(bytes(count))
        self.live += count
        self.total_slots += count * self.slots_per_machine
        return machine_id

    def remove_machine(self, *machine_ids: int) -> List[int]:
        """Retire machines for good; returns those that were live, in
        the order given. Copies still running on them are the caller's
        to kill. One call retires a whole shrink, so the decentralized
        pool pays no method call per worker."""
        state = self.state
        left = []
        for machine_id in machine_ids:
            flags = state[machine_id]
            if flags & RETIRED:
                raise ValueError(f"machine {machine_id} already retired")
            state[machine_id] = flags | RETIRED
            if not flags:
                left.append(machine_id)
        self.live -= len(left)
        self.total_slots -= len(left) * self.slots_per_machine
        return left

    def apply_blacklist(self, machine_id: int, blacklisted: bool) -> bool:
        """Blacklist or reinstate one machine (§2.2: clusters blacklist
        problematic machines and avoid scheduling on them); True if its
        liveness flipped, which it does unless the machine is retired."""
        state = self.state[machine_id]
        if bool(state & BLACKLISTED) == blacklisted:
            status = "blacklisted" if blacklisted else "not blacklisted"
            raise ValueError(f"machine {machine_id} already {status}")
        self.state[machine_id] = state ^ BLACKLISTED
        if state & RETIRED:
            return False
        sign = -1 if blacklisted else 1
        self.live += sign
        self.total_slots += sign * self.slots_per_machine
        return True

    def machines_to_retire(self, count: int, min_machines: int = 1) -> List[int]:
        """The ids an elastic shrink of ``count`` machines retires: the
        highest live ids, descending, clamped so at least
        ``max(1, min_machines)`` machines stay live.

        The walk down from the highest id visits the chosen machines
        plus any retired or blacklisted ones above them: O(count) when
        growth has re-filled the top since the last shrink.
        """
        count = min(count, self.live - max(1, min_machines))
        state = self.state
        chosen: List[int] = []
        machine_id = len(state)
        while len(chosen) < count:
            machine_id -= 1
            if not state[machine_id]:
                chosen.append(machine_id)
        return chosen
