"""Common interface for speculation policies.

A speculation policy inspects one job's running copies (progress, elapsed
time) and proposes *speculation candidates*: tasks for which launching an
extra copy is expected to help, ordered by expected benefit. The scheduler
— not the policy — decides whether slots are actually granted; that
separation is exactly the coordination gap the paper closes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List

from repro.stragglers.progress import TaskCopy
from repro.workload.job import Job
from repro.workload.task import Task


@dataclass
class SpeculationRequest:
    """A proposal to launch one extra copy of ``task``.

    ``expected_new_duration`` is the policy's tnew estimate and
    ``expected_benefit`` its trem - tnew (larger = more urgent).
    """

    task: Task
    expected_new_duration: float
    expected_benefit: float


@dataclass
class JobExecutionView:
    """What a speculation policy may observe about one job.

    Mirrors what real frameworks expose: per-copy progress, completed task
    durations (for estimating the duration of a fresh copy) — nothing
    about other jobs.

    ``copies_by_task`` holds only *live* copies; finished and killed
    copies are pruned via :meth:`remove_copy` so that scans stay
    proportional to the number of currently running copies.
    """

    job: Job
    copies_by_task: Dict[int, List[TaskCopy]] = field(default_factory=dict)
    completed_durations: List[float] = field(default_factory=list)
    attempt_counts: Dict[int, int] = field(default_factory=dict)
    # Median cache for estimate_new_copy_duration; completed_durations is
    # append-only, so a length check detects staleness exactly.
    _median_cache: float = field(default=0.0, repr=False, compare=False)
    _median_count: int = field(default=0, repr=False, compare=False)
    # Tasks currently racing >1 live copy. Both simulators prune finished
    # and killed copies synchronously, so list membership == running and
    # this counter equals the "already speculating" scan LATE used to do.
    num_speculating_tasks: int = field(default=0, repr=False, compare=False)
    # Sorted multiset of live copies' progress rates (1/duration), split
    # into the merged sorted list and the not-yet-merged rates of copies
    # registered at the most recent start tick (these must be excluded
    # while "now" still equals that tick — see sorted_progress_rates).
    _rates_sorted: List[float] = field(
        default_factory=list, repr=False, compare=False
    )
    _pending_rates: List[float] = field(
        default_factory=list, repr=False, compare=False
    )
    _pending_time: float = field(
        default=-float("inf"), repr=False, compare=False
    )
    # Live *speculative* copies indexed per task, plus the order in which
    # tasks first entered copies_by_task. Together they let
    # live_speculative_copies() reproduce, without a full scan, exactly
    # the enumeration order of walking copies_by_task — which the
    # centralized preemption path depends on for bit-identical victim
    # selection (stable sort ties break on enumeration order).
    _spec_live: Dict[int, List[TaskCopy]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _task_seq: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _next_task_seq: int = field(default=0, repr=False, compare=False)

    def register_copy(self, copy: TaskCopy) -> None:
        """Track a newly launched copy."""
        task_id = copy.task.task_id
        live = self.copies_by_task.get(task_id)
        if live is None:
            self.copies_by_task[task_id] = [copy]
            self._task_seq[task_id] = self._next_task_seq
            self._next_task_seq += 1
        else:
            live.append(copy)
            if len(live) == 2:
                self.num_speculating_tasks += 1
        if copy.speculative:
            spec_live = self._spec_live.get(task_id)
            if spec_live is None:
                self._spec_live[task_id] = [copy]
            else:
                spec_live.append(copy)
        self.attempt_counts[task_id] = self.attempt_counts.get(task_id, 0) + 1
        start = copy.start_time
        if start != self._pending_time:
            self._merge_pending()
            self._pending_time = start
        self._pending_rates.append(1.0 / copy.duration)

    def _merge_pending(self) -> None:
        pending = self._pending_rates
        if pending:
            rates = self._rates_sorted
            for rate in pending:
                insort(rates, rate)
            pending.clear()

    def sorted_progress_rates(self, now: float) -> List[float]:
        """Ascending progress rates of live copies started before ``now``.

        Maintained incrementally (one ``insort``/removal per copy event)
        so policies don't rebuild and re-sort the list per scan. The
        multiset equals ``sorted(1/c.duration for live c if now >
        c.start_time)`` exactly: only copies started at the current tick
        are excluded, and those are precisely the un-merged pending ones.
        """
        if self._pending_time != now:
            self._merge_pending()
        return self._rates_sorted

    def remove_copy(self, copy: TaskCopy) -> None:
        """Stop tracking a finished or killed copy."""
        task_id = copy.task.task_id
        live = self.copies_by_task.get(task_id)
        if not live:
            return
        try:
            live.remove(copy)
        except ValueError:
            return
        if len(live) == 1:
            self.num_speculating_tasks -= 1
        elif not live:
            del self.copies_by_task[task_id]
            del self._task_seq[task_id]
        if copy.speculative:
            spec_live = self._spec_live.get(task_id)
            if spec_live is not None:
                try:
                    spec_live.remove(copy)
                except ValueError:
                    pass
                else:
                    if not spec_live:
                        del self._spec_live[task_id]
        rate = 1.0 / copy.duration
        if copy.start_time == self._pending_time:
            try:
                self._pending_rates.remove(rate)
                return
            except ValueError:
                pass  # already merged before the pending tick advanced
        rates = self._rates_sorted
        i = bisect_left(rates, rate)
        if i < len(rates) and rates[i] == rate:
            del rates[i]

    def attempts(self, task: Task) -> int:
        """Total copies ever launched for ``task``."""
        return self.attempt_counts.get(task.task_id, 0)

    def copies_of(self, task: Task) -> List[TaskCopy]:
        return list(self.copies_by_task.get(task.task_id, ()))

    def num_live_copies(self, task: Task) -> int:
        """Live copies of ``task`` without materializing a list."""
        return len(self.copies_by_task.get(task.task_id, ()))

    def live_speculative_copies(self) -> List[TaskCopy]:
        """Live speculative copies of racing tasks, in the exact order a
        full ``copies_by_task`` walk would yield them.

        Equivalent to ``[c for copies in self.copies_by_task.values()
        for c in copies if c.speculative and len(copies) > 1]`` but
        proportional to the number of live speculative copies instead of
        all live copies (the equivalence is pinned by a property test).
        """
        spec_live = self._spec_live
        if not spec_live:
            return []
        task_seq = self._task_seq
        copies_by_task = self.copies_by_task
        victims: List[TaskCopy] = []
        for task_id in sorted(spec_live, key=task_seq.__getitem__):
            if len(copies_by_task.get(task_id, ())) > 1:
                victims.extend(spec_live[task_id])
        return victims

    def running_unfinished_tasks(self) -> List[Task]:
        """Tasks that are unfinished but have at least one running copy."""
        tasks = []
        append = tasks.append
        for copies in self.copies_by_task.values():
            if copies:
                task = copies[0].task
                if not task.is_finished:
                    append(task)
        return tasks

    def estimate_new_copy_duration(self, task: Task) -> float:
        """tnew estimate: median of this job's completed task durations,
        falling back to the task's nominal size (frameworks use exactly
        this "duration of a typical finished task" heuristic)."""
        durations = self.completed_durations
        if durations:
            count = len(durations)
            if count != self._median_count:
                self._median_cache = _median(durations)
                self._median_count = count
            return self._median_cache
        return task.size


def _median(values: List[float]) -> float:
    """``statistics.median`` with the same float operations (sort, then
    the middle element or the mean of the middle two), without importing
    the statistics module at start-up."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class SpeculationPolicy(ABC):
    """Interface all speculation algorithms implement."""

    #: human-readable name used in experiment reports
    name: str = "base"

    @abstractmethod
    def speculation_candidates(
        self, view: JobExecutionView, now: float
    ) -> List[SpeculationRequest]:
        """Tasks worth duplicating right now, best-benefit first.

        Contract: the result is a pure function of ``(view, now)`` — no
        state of the policy or the view that changes between calls may
        alter it (LATE, Mantri, GRASS and none all comply; GRASS also
        reads ``job.remaining_tasks()``, which moves only when a task of
        the job finishes). The runtime's throttle cache relies on this:
        it may stamp the cache at ``now`` and evaluate the list later
        with that same ``now`` (an *owed* list, see
        :meth:`repro.runtime.job.JobRuntime.speculation_candidates`),
        and every view change in between — a launch, kill or finish —
        discards the owed list first."""

    def max_copies_per_task(self) -> int:
        """Upper bound on simultaneous copies of one task (original
        included). Frameworks race exactly two copies in the common case."""
        return 2

    def _slowest_first(
        self, requests: List[SpeculationRequest]
    ) -> List[SpeculationRequest]:
        return sorted(requests, key=lambda r: r.expected_benefit, reverse=True)
