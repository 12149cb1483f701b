"""Incremental allocation engine.

Every scheduler event used to rebuild every active job's
:class:`~repro.core.allocation.JobAllocationState`, re-sort the dispatch
order, and re-run the policy solve from scratch — O(active jobs) work per
event, the known wall for the 100k-slot regime. This module keeps that
state *between* events and updates it by delta, the same way
``ClusterIndex`` replaced O(machines) scans:

* the active states live in an **insertion-ordered table** mirroring the
  simulator's ``_jobs`` dict, so materializing them yields exactly the
  list a from-scratch rebuild over the active jobs would produce;
* the policy's **dispatch order is a sorted container** (bisect-maintained
  key list) updated per upsert/remove instead of re-sorted per event;
* the last **targets dict is memoized** on (state version, slot count) —
  an event that changed nothing allocation-relevant (a lost speculation
  race, a periodic straggler scan) reuses it outright.

Byte-identity with the from-scratch path is the design constraint, since
every golden study digest pins replay output. Two rules follow:

1. **No incrementally maintained float sums.** Sums over states (the
   capacity-constrained test, total virtual size, fairness-floor weight)
   accumulate in insertion order inside the solve, freshly each time —
   maintaining them by add/subtract would drift in the last bits and
   could flip a regime decision. The solves re-sum in O(active) cheap
   float adds; only the state *construction* and *sorting* are delta'd.
2. **The maintained sort is exact, not approximate.** Policy sort keys
   end in the unique ``job_id``, so the order is total and the bisect
   container reproduces ``sorted()`` exactly.

A regime flip (capacity-constrained ↔ rich) needs no special case: the
full solve is the same sort plus the same ordered solve over the same
states, order, virtual-size sum and floors, each of which the property
tests hold equal to its from-scratch value after every event.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional

from repro.core.allocation import JobAllocationState


class IncrementalAllocator:
    """Delta-maintained allocation state for one centralized policy.

    The owning simulator drives it with three verbs:

    * :meth:`reserve` on job arrival — fixes the job's position in the
      insertion order before its state is first computed;
    * :meth:`upsert` when a job's state is (re)computed;
    * :meth:`remove` on job completion (or when a job goes inactive).

    ``states()`` / ``ordered()`` materialize the insertion-ordered active
    list and the policy-sorted dispatch order; ``allocate()`` returns the
    policy targets, memoized while nothing changed.
    """

    __slots__ = (
        "policy",
        "_states",
        "_keys",
        "_entries",
        "_version",
        "_membership_version",
        "_insertion_cache",
        "_ordered_cache",
        "_targets",
        "_targets_version",
        "_targets_slots",
        "_vsum",
        "_vsum_version",
        "_floors",
        "_floors_key",
    )

    def __init__(self, policy) -> None:
        self.policy = policy
        # job_id -> state; dict order == simulator insertion order.
        # A reserved-but-uncomputed slot holds None.
        self._states: Dict[int, Optional[JobAllocationState]] = {}
        # job_id -> sort key currently present in _entries.
        self._keys: Dict[int, tuple] = {}
        # Sorted policy sort keys; each ends in the unique job_id, so
        # the order is total and entry removal can bisect exactly.
        self._entries: List[tuple] = []
        self._version = 0
        # Bumped only when the *active set* changes (a job's state first
        # materializes, a job is removed, or a weight changes) — the
        # invalidation key for values that are independent of virtual
        # sizes, like fairness floors.
        self._membership_version = 0
        self._insertion_cache: Optional[List[JobAllocationState]] = None
        self._ordered_cache: Optional[List[JobAllocationState]] = None
        self._targets: Optional[Dict[int, int]] = None
        self._targets_version = -1
        self._targets_slots = -1
        # Insertion-order sum of virtual sizes, memoized per version:
        # the regime test, Guideline 3's denominator, and the
        # guideline-decision metric all consume the identical float.
        self._vsum = 0.0
        self._vsum_version = -1
        # Fairness floors, memoized on (membership version, slots).
        self._floors: Optional[Dict[int, int]] = None
        self._floors_key = (-1, -1)

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._states

    @property
    def version(self) -> int:
        """Bumped on every effective mutation; memo keys hang off it."""
        return self._version

    def _touch(self) -> None:
        self._version += 1
        self._insertion_cache = None
        self._ordered_cache = None

    def reserve(self, job_id: int) -> None:
        """Fix ``job_id``'s position in the insertion order before its
        state exists. The from-scratch path iterates jobs in arrival
        order; reserving at arrival (rather than inserting at the first
        refresh) keeps the two orders identical no matter how many
        events separate arrival from the next solve."""
        if job_id not in self._states:
            self._states[job_id] = None
            self._touch()

    def upsert(self, state: JobAllocationState) -> bool:
        """Insert or replace one job's state; returns True if anything
        changed (False leaves the targets memo valid)."""
        job_id = state.job_id
        old = self._states.get(job_id)
        if old == state:
            return False
        key = self.policy.sort_key(state)
        old_key = self._keys.get(job_id)
        if old_key is None:
            insort(self._entries, key)
            self._keys[job_id] = key
            self._membership_version += 1
        elif old is not None and old.weight != state.weight:
            self._membership_version += 1
        if old_key is not None and old_key != key:
            del self._entries[bisect_left(self._entries, old_key)]
            insort(self._entries, key)
            self._keys[job_id] = key
        # Replacing a present dict key keeps its position — the invariant
        # that makes states() the from-scratch insertion-order list.
        self._states[job_id] = state
        self._touch()
        return True

    def remove(self, job_id: int) -> bool:
        """Drop a job (completed or no longer active)."""
        if job_id not in self._states:
            return False
        del self._states[job_id]
        old_key = self._keys.pop(job_id, None)
        if old_key is not None:
            del self._entries[bisect_left(self._entries, old_key)]
            self._membership_version += 1
        self._touch()
        return True

    def clear(self) -> None:
        self._states.clear()
        self._keys.clear()
        self._entries.clear()
        self._targets = None
        self._targets_version = -1
        self._targets_slots = -1
        self._membership_version += 1
        self._floors = None
        self._floors_key = (-1, -1)
        self._touch()

    # -- materialization ---------------------------------------------------

    def states(self) -> List[JobAllocationState]:
        """Active states in insertion (arrival) order — exactly the list
        the from-scratch builder produces."""
        cached = self._insertion_cache
        if cached is None:
            cached = [s for s in self._states.values() if s is not None]
            self._insertion_cache = cached
        return cached

    def ordered(self) -> List[JobAllocationState]:
        """Active states in the policy's dispatch order — exactly
        ``sorted(states(), key=policy.sort_key)``, maintained by delta."""
        cached = self._ordered_cache
        if cached is None:
            states = self._states
            cached = [states[key[-1]] for key in self._entries]
            self._ordered_cache = cached
        return cached

    # -- solving -----------------------------------------------------------

    def virtual_size_sum(self) -> float:
        """Insertion-order sum of active virtual sizes, memoized per
        version. It is the exact float the from-scratch path computes —
        for the capacity-regime test, Guideline 3's share denominator,
        and the guideline-decision metric — so all three consumers can
        share one O(active) accumulation per event."""
        if self._vsum_version != self._version:
            self._vsum = sum(s.virtual_size for s in self.states())
            self._vsum_version = self._version
        return self._vsum

    def _fairness_floors(self, total_slots: int) -> Optional[Dict[int, int]]:
        """Policy fairness floors, memoized on (membership, slots).

        Floors depend only on which jobs are active, their weights, and
        the slot pool — not on virtual sizes — so they survive the
        per-completion state churn and recompute only on arrival,
        completion, or a pool resize."""
        key = (self._membership_version, total_slots)
        if self._floors_key != key:
            self._floors = self.policy.fairness_floors(
                self.states(), total_slots
            )
            self._floors_key = key
        return self._floors

    def allocate(self, total_slots: int) -> Dict[int, int]:
        """Policy targets for the current state set.

        Reuses the previous targets verbatim when no state changed and
        the slot pool is the same size (targets are a pure function of
        both). Otherwise runs the policy's ordered solve over the
        maintained orders."""
        if (
            self._targets is not None
            and self._targets_version == self._version
            and self._targets_slots == total_slots
        ):
            return self._targets
        self._targets = self.policy.allocate_ordered(
            self.states(),
            self.ordered(),
            total_slots,
            total_virtual=self.virtual_size_sum(),
            floors=self._fairness_floors(total_slots),
        )
        self._targets_version = self._version
        self._targets_slots = total_slots
        return self._targets
