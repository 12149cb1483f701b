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

:class:`MembershipPlane` is the one membership sequence both planes run
on top of it: observe a completion, evict, reinstate or shrink, follow
up on capacity, then kill and requeue.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.policy import evaluate_completion

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


class MembershipPlane:
    """The membership sequence both scheduler planes share.

    A plane provides ``members`` (its :class:`Membership`), ``sim`` (the
    engine), ``metrics``, ``obs``, ``blacklist_policy``, ``_elastic``
    and ``_kill_copy(copy, runtime)``, plus three hooks:

    * ``_running_copies(machine_ids)`` — the ``(copy, runtime)`` pairs
      running on those ids, one list per machine in the order given
      (each machine's queued work leaves with it; a machine with
      nothing to tear down may be left out);
    * ``_requeue(task, runtime)`` — put a task whose last copy died back
      in line;
    * ``_refresh_membership()`` — the capacity follow-up of every
      membership change (the speculation budget on the centralized
      plane, the ε-fair floors on the decentralized one).

    One order serves both planes: flag every leaving id, follow up on
    capacity, then kill and requeue machine by machine. Flags and
    capacity come first so that a requeue (whose probes sample the
    decentralized pool, and whose gossip reads the fair floors) never
    sees a leaving machine as live. Requeueing per machine puts a task
    with copies on two leaving machines back in line after the second
    of them; killing every machine's copies before requeueing any
    would move it, and the pinned replays change.
    """

    __slots__ = ()

    def _observe_blacklist(self, copy, runtime) -> None:
        """Feed one completion to the eviction policy and act on it."""
        obs = self.obs
        if obs is None:
            reinstated, evict = evaluate_completion(
                self.blacklist_policy, self.sim.now, copy, runtime.view
            )
        else:
            with obs.timers.phase("policy.evaluate_completion"):
                reinstated, evict = evaluate_completion(
                    self.blacklist_policy, self.sim.now, copy, runtime.view
                )
        for machine_id in reinstated:
            self._reinstate_machine(machine_id)
        if evict is not None:
            self._evict_machine(evict)

    def _evict_machine(self, machine_id: int) -> None:
        """Blacklist ``machine_id`` mid-run, killing its running copies."""
        self.members.apply_blacklist(machine_id, True)
        victims = self._vacate((machine_id,))
        self.metrics.record_eviction()
        self._note("evict", "blacklist.evictions", machine=machine_id, victims=victims)

    def _reinstate_machine(self, machine_id: int) -> None:
        """Probation served: the machine's slots rejoin the pool."""
        self.members.apply_blacklist(machine_id, False)
        self._refresh_membership()
        self.metrics.record_reinstatement()
        self._note("reinstate", "blacklist.reinstatements", machine=machine_id)

    def _note(self, kind: str, counter: str, **args) -> None:
        obs = self.obs
        if obs is not None:
            obs.counters.inc(counter)
            if obs.tracer is not None:
                obs.tracer.instant("blacklist", kind, self.sim.now, **args)

    def _retire(self, count: int) -> int:
        """An elastic shrink: retire up to ``count`` of the highest live
        ids (clamped to the autoscaler's ``min_machines``) and tear them
        down as an eviction does; returns how many left."""
        machine_ids = self.members.machines_to_retire(
            count, self._elastic.policy.min_machines
        )
        if machine_ids:
            self.members.remove_machine(*machine_ids)
            self._vacate(machine_ids)
        return len(machine_ids)

    def _vacate(self, machine_ids: Sequence[int]) -> int:
        """``machine_ids`` just left membership (evicted, or retired by
        a shrink): follow up on capacity, then kill the copies running
        on them and requeue each task whose last copy died; returns the
        number killed."""
        self._refresh_membership()
        killed = 0
        for victims in self._running_copies(machine_ids):
            orphaned = []
            for copy, runtime in victims:
                self._kill_copy(copy, runtime)
                if not copy.task.is_finished:
                    orphaned.append((copy.task, runtime))
            for task, runtime in orphaned:
                # A live sibling elsewhere still carries the task; its
                # last copy dying here requeues it, speculative or not.
                if runtime.view.num_live_copies(task) == 0:
                    self._requeue(task, runtime)
            killed += len(victims)
        return killed
