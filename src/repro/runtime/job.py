"""Per-job runtime state shared by both simulator families.

A :class:`JobRuntime` owns what a scheduler must track per job while it
replays: the pending-task queue fed by DAG phase activation, the
:class:`~repro.speculation.base.JobExecutionView` the speculation policy
inspects, and the throttled speculation-candidate cache.

It is also the job's **change feed**: every mutation a scheduler memo
depends on enters through a method of :class:`JobRuntime`, and each
bumps ``changes``, the job's change record.

* The pending queue's push and pop: :meth:`activate_runnable_phases`,
  :meth:`requeue` and a :meth:`pop_pending` that takes a task. Per
  task, the queue also calls the ``_note_queued`` / ``_note_dequeued``
  index hooks. Pruning finished tasks from the front calls the hooks
  but is no change: no answer a memo holds depends on a finished task.
* :meth:`mark_changed` for everything else: a copy launched, was
  killed or finished (the :class:`~repro.runtime.lifecycle.CopyLedger`
  calls it), a bind was declined, or a periodic scan asks for a fresh
  look; each of these also stales the speculation cache. The
  scheduler's slot cap for the job moving is a change too
  (``copies=False``: the speculation cache stays valid).

A memo that keeps the record it was computed under is valid while the
record is unchanged (the decentralized demand memo). A plane that keeps
cross-job work sets subscribes once, by overriding the index hooks and
:meth:`mark_changed` in its runtime subclass (the centralized
``_JobRuntime``). A mutation site then calls only the runtime and need
not know which memos exist.

:class:`LocalityJobRuntime` adds per-machine buckets counting how many
queued tasks prefer each machine — a *fast-reject* index for
locality-aware dispatch, used by the centralized plane only (the
decentralized protocol never asks locality questions, so its
``SchedulerJob`` stays on the bucket-free base and pays nothing on the
enqueue/dequeue hot path). The buckets do not replace the bounded
locality scan: the scan window (first 64 queue entries) is observable
behavior that the golden digests pin, so the exact scan still runs
whenever a bucket says a match might exist. The buckets only prove the
frequent negative ("no queued task prefers machine m at all") in O(1)
instead of O(64).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.speculation.base import JobExecutionView, SpeculationPolicy
from repro.workload.job import Job
from repro.workload.task import Task


class JobRuntime:
    """Mutable per-job execution state owned by a simulator.

    Subclasses add family-specific state (the centralized runtime adds
    locality buckets and running-copy counters, the decentralized
    ``SchedulerJob`` adds gossip and probe accounting).
    """

    __slots__ = (
        "job",
        "view",
        "pending",
        "pending_ids",
        "activated_phases",
        "spec_policy",
        "spec_dirty",
        "spec_cache_time",
        "spec_candidates",
        "changes",
    )

    def __init__(
        self, job: Job, spec_policy: Optional[SpeculationPolicy] = None
    ) -> None:
        self.job = job
        self.view = JobExecutionView(job=job)
        self.pending: Deque[Task] = deque()
        self.pending_ids: Set[int] = set()
        self.activated_phases: Set[int] = set()
        self.spec_policy = spec_policy
        # Throttled speculation-candidate cache; ``None`` marks a list
        # that is owed (see refresh_speculation_cache).
        self.spec_dirty = True
        self.spec_cache_time = -float("inf")
        self.spec_candidates: Optional[list] = []
        self.changes = 0  # the change record (see the module docstring)

    # -- pending queue ------------------------------------------------------

    def activate_runnable_phases(self) -> List[Task]:
        """Queue tasks of newly runnable phases; returns the new tasks."""
        fresh: List[Task] = []
        for phase in self.job.phases:
            if phase.index in self.activated_phases:
                continue
            if self.job.phase_is_runnable(phase):
                self.activated_phases.add(phase.index)
                for task in phase.tasks:
                    if not task.is_finished:
                        self.pending.append(task)
                        self.pending_ids.add(task.task_id)
                        self._note_queued(task)
                        fresh.append(task)
        if fresh:
            self.changes += 1
        return fresh

    def _note_queued(self, task: Task) -> None:
        """Index hook: a task entered the pending queue (no-op here)."""

    def _note_dequeued(self, task: Task) -> None:
        """Index hook: a task left the pending queue (no-op here)."""

    def may_have_local_pending(self, machine_id: int) -> bool:
        """Whether a queued task *might* prefer ``machine_id``. The
        index-free base is conservative (always scan)."""
        return True

    def pop_pending(self, prefer_machine: Optional[int] = None) -> Optional[Task]:
        """Take the next pending task, preferring one local to
        ``prefer_machine`` (bounded scan)."""
        pending = self.pending
        while pending and pending[0].is_finished:
            dropped = pending.popleft()
            self.pending_ids.discard(dropped.task_id)
            self._note_dequeued(dropped)
        if not pending:
            return None
        task = None
        if prefer_machine is not None and self.may_have_local_pending(
            prefer_machine
        ):
            for i in range(min(len(pending), 64)):
                queued = pending[i]
                if not queued.is_finished and queued.prefers(prefer_machine):
                    del pending[i]
                    task = queued
                    break
        if task is None:
            task = pending.popleft()
        self.pending_ids.discard(task.task_id)
        self._note_dequeued(task)
        self.changes += 1
        return task

    def has_pending(self) -> bool:
        """True when an unfinished task is queued (prunes finished ones
        from the queue front as a side effect)."""
        pending = self.pending
        while pending and pending[0].is_finished:
            dropped = pending.popleft()
            self.pending_ids.discard(dropped.task_id)
            self._note_dequeued(dropped)
        return bool(pending)

    def has_pending_local_to(self, machine_id: int) -> bool:
        if not self.may_have_local_pending(machine_id):
            return False
        pending = self.pending
        scan_limit = min(len(pending), 64)
        for i in range(scan_limit):
            task = pending[i]
            if not task.is_finished and task.prefers(machine_id):
                return True
        return False

    def discard_pending_id(self, task_id: int) -> None:
        """Forget a task id that finished without being dequeued (the
        queue entry itself is lazily dropped by pop_pending)."""
        self.pending_ids.discard(task_id)

    def requeue(self, task: Task) -> bool:
        """Return a dispatched task to the back of the pending queue.

        Used when a machine eviction kills a task's only running copy:
        the work is not lost, it goes back through normal dispatch.
        Idempotent — a task that is already queued (or finished) is not
        queued twice. Returns True when the task was actually queued.
        """
        if task.is_finished or task.task_id in self.pending_ids:
            return False
        self.pending.append(task)
        self.pending_ids.add(task.task_id)
        self._note_queued(task)
        self.changes += 1
        return True

    # -- speculation candidates --------------------------------------------

    def refresh_speculation_cache(self, now: float, min_interval: float) -> None:
        """Advance the throttle cache without evaluating the policy.

        When this job's copies changed or the throttle interval elapsed,
        the cache is restamped at ``now`` and its list marked *owed*
        (``spec_candidates = None``): the scan is deferred until someone
        reads the list, or skipped entirely if the next
        :meth:`mark_changed` dirties the cache first."""
        if self.spec_dirty or now - self.spec_cache_time >= min_interval:
            self.spec_cache_time = now
            self.spec_dirty = False
            self.spec_candidates = None

    def speculation_candidates(self, now: float, min_interval: float) -> list:
        """Throttled candidate evaluation: re-run the policy's scan only
        when this job's copies changed or the throttle interval elapsed.

        An owed list (see :meth:`refresh_speculation_cache`) is computed
        by calling the policy at ``spec_cache_time``, not ``now``. That
        is the list an eager refresh would have cached: the policy's
        result depends only on ``(view, now)``, and the view changes
        only through a launch, kill or finish of this job's copies, each
        of which calls :meth:`mark_changed` and so discards the owed
        list."""
        self.refresh_speculation_cache(now, min_interval)
        candidates = self.spec_candidates
        if candidates is None:
            candidates = self.spec_policy.speculation_candidates(
                self.view, self.spec_cache_time
            )
            self.spec_candidates = candidates
        return candidates

    # -- change feed ----------------------------------------------------------

    def mark_changed(self, copies: bool = True) -> None:
        """Record a change to this job. ``copies``: a copy launched, was
        killed or finished, a bind was declined or a periodic scan is
        due, so the speculation cache is stale; False for a slot-cap
        move."""
        if copies:
            self.spec_dirty = True
        self.changes += 1


class LocalityJobRuntime(JobRuntime):
    """JobRuntime with per-machine locality buckets over the queue.

    ``may_have_local_pending`` becomes an O(1) exact negative: it is
    False only when *no* queued task prefers the machine, so guarding
    the bounded scan with it never changes which task is picked.
    """

    __slots__ = ("_local_counts", "_wildcard_pending")

    def __init__(
        self, job: Job, spec_policy: Optional[SpeculationPolicy] = None
    ) -> None:
        super().__init__(job, spec_policy)
        # machine -> queued tasks preferring it, plus a count of queued
        # tasks with no preference (they "prefer" everything — see
        # Task.prefers).
        self._local_counts: Dict[int, int] = {}
        self._wildcard_pending = 0

    def _note_queued(self, task: Task) -> None:
        preferred = task.preferred_machines
        if preferred:
            counts = self._local_counts
            for machine_id in preferred:
                counts[machine_id] = counts.get(machine_id, 0) + 1
        else:
            self._wildcard_pending += 1

    def _note_dequeued(self, task: Task) -> None:
        preferred = task.preferred_machines
        if preferred:
            counts = self._local_counts
            for machine_id in preferred:
                left = counts[machine_id] - 1
                if left:
                    counts[machine_id] = left
                else:
                    del counts[machine_id]
        else:
            self._wildcard_pending -= 1

    def may_have_local_pending(self, machine_id: int) -> bool:
        """False only when *no* queued task prefers ``machine_id``."""
        return self._wildcard_pending > 0 or machine_id in self._local_counts
