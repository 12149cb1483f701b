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
  key list) updated per upsert/remove instead of re-sorted per event.

Byte-identity with the from-scratch path is the design constraint, since
every golden study digest pins replay output. Two rules follow:

1. **No incrementally maintained float sums.** Sums over states (the
   capacity-constrained test, total virtual size, fairness-floor weight)
   accumulate in insertion order inside the solve, freshly each time —
   maintaining them by add/subtract would drift in the last bits and
   could flip a regime decision. The solves re-sum in O(active) cheap
   float adds; only the state *construction* and *sorting* are delta'd.
   Integer sums are exact under add/subtract, so they *may* be
   delta-maintained: the sum of the caps (and the per-job caps) is kept
   per upsert/remove, and the everyone-capped solve reads it in O(1).
2. **The maintained sort is exact, not approximate.** Policy sort keys
   end in the unique ``job_id``, so the order is total and the bisect
   container reproduces ``sorted()`` exactly.

The everyone-capped solve returns before it builds any list. When the
caps fit in the pool the policy may prove that its targets are the caps
(:meth:`~repro.centralized.policies.CentralizedPolicy.capped_targets`;
Hopper does), and :meth:`IncrementalAllocator.allocate` then returns a
copy of the maintained ``job_id -> cap`` dict without materializing
``states()`` or ``ordered()``, whose caches every upsert invalidates.
It keeps the returned dict in :attr:`IncrementalAllocator.last_capped`,
and :meth:`IncrementalAllocator.upsert` reports whether the job's cap
moved: in the capped regime those are exactly the jobs whose target
moved. The simulator feeds each such move to the job's change record
(:meth:`repro.runtime.JobRuntime.mark_changed`), which lets its
preemption sweep and speculation pass skip the rest.

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
    policy targets.
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
        "_vsum",
        "_vsum_version",
        "_floors",
        "_floors_key",
        "_caps",
        "_cap_sum",
        "last_capped",
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
        # Insertion-order sum of virtual sizes, memoized per version:
        # the regime test, Guideline 3's denominator, and the
        # guideline-decision metric all consume the identical float.
        self._vsum = 0.0
        self._vsum_version = -1
        # Fairness floors, memoized on (membership version, slots).
        self._floors: Optional[Dict[int, int]] = None
        self._floors_key = (-1, -1)
        # job_id -> cap of every materialized state, and their exact
        # integer sum (see rule 1).
        self._caps: Dict[int, int] = {}
        self._cap_sum = 0
        # The targets the last allocate() returned unsolved as the caps
        # (None when it ran the solve).
        self.last_capped: Optional[Dict[int, int]] = None

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
        """Insert or replace one job's state; returns True when the job's
        cap moved or first materialized. An unchanged state leaves the
        version, and every memo, valid."""
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
        cap = state.cap
        if old is not None:
            self._cap_sum -= old.cap
        self._cap_sum += cap
        self._caps[job_id] = cap
        # Replacing a present dict key keeps its position — the invariant
        # that makes states() the from-scratch insertion-order list.
        self._states[job_id] = state
        self._touch()
        return old is None or old.cap != cap

    def remove(self, job_id: int) -> bool:
        """Drop a job (completed or no longer active)."""
        if job_id not in self._states:
            return False
        if self._states.pop(job_id) is not None:
            self._cap_sum -= self._caps.pop(job_id)
        old_key = self._keys.pop(job_id, None)
        if old_key is not None:
            del self._entries[bisect_left(self._entries, old_key)]
            self._membership_version += 1
        self._touch()
        return True

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

    def in_order(self, job_ids) -> List[JobAllocationState]:
        """The states of ``job_ids`` in dispatch order — the subsequence
        of :meth:`ordered` they form, in O(k log k) for k ids instead of
        O(active). Ids without a materialized state are skipped."""
        keys = self._keys
        states = self._states
        return [
            states[key[-1]]
            for key in sorted([keys[j] for j in job_ids if j in keys])
        ]

    # -- solving -----------------------------------------------------------

    @property
    def cap_sum(self) -> int:
        """Exact integer sum of the active states' caps."""
        return self._cap_sum

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
        """Policy targets for the current state set: the policy's
        ordered solve over the maintained orders, caps and cap sum.

        When every cap fits in the pool, a policy that proves its
        targets are the caps gets no list built at all (see the module
        docstring); otherwise the virtual-size sum and the floors are
        left for the policy to compute (``None``): the everyone-capped
        solve reads neither, so the O(active) sum is skipped, and a
        policy that does read them computes the same values from the
        same states."""
        capped = self._cap_sum <= total_slots
        if capped:
            targets = self.policy.capped_targets(
                total_slots, self._cap_sum, self._caps
            )
            self.last_capped = targets
            if targets is not None:
                return targets
        else:
            self.last_capped = None
        return self.policy.allocate_ordered(
            self.states(),
            self.ordered(),
            total_slots,
            total_virtual=None if capped else self.virtual_size_sum(),
            floors=None if capped else self._fairness_floors(total_slots),
            cap_sum=self._cap_sum,
            caps=self._caps,
        )
