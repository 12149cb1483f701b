"""LATE — Longest Approximate Time to End (Zaharia et al., OSDI 2008).

Deployed in Facebook's clusters (§7.2). Decision rule, as in the original
paper, adapted to our progress model:

* only consider tasks that have run at least ``detect_after`` time units
  (progress estimates are meaningless earlier);
* rank running tasks by *estimated time left*; speculate the ones with the
  longest time left whose progress rate is below the ``slow_task_pct``
  percentile of the job's running progress rates (the "slow task
  threshold");
* only launch a copy if the estimated time left exceeds the estimated
  duration of a fresh copy (otherwise speculation cannot win the race);
* cap the number of simultaneously speculating tasks per job
  (``speculative_cap_fraction`` of running tasks, min 1).
"""

from __future__ import annotations

from typing import List

from repro.speculation.base import (
    JobExecutionView,
    SpeculationPolicy,
    SpeculationRequest,
)
from repro.workload.task import TaskState

_FINISHED = TaskState.FINISHED


class LATE(SpeculationPolicy):
    name = "late"

    def __init__(
        self,
        detect_after: float = 1.0,
        slow_task_pct: float = 0.25,
        speculative_cap_fraction: float = 0.1,
        max_copies: int = 2,
    ) -> None:
        if detect_after < 0:
            raise ValueError("detect_after must be non-negative")
        if not 0.0 < slow_task_pct <= 1.0:
            raise ValueError("slow_task_pct must be in (0, 1]")
        if not 0.0 < speculative_cap_fraction <= 1.0:
            raise ValueError("speculative_cap_fraction must be in (0, 1]")
        if max_copies < 2:
            raise ValueError("max_copies must be >= 2")
        self.detect_after = detect_after
        self.slow_task_pct = slow_task_pct
        self.speculative_cap_fraction = speculative_cap_fraction
        self.max_copies = max_copies

    def max_copies_per_task(self) -> int:
        return self.max_copies

    def speculation_candidates(
        self, view: JobExecutionView, now: float
    ) -> List[SpeculationRequest]:
        copies_by_task = view.copies_by_task
        if not copies_by_task:
            return []

        # How many tasks may speculate at once. Checked before the rate
        # read: skipping that read only postpones the view's idempotent
        # merge of pending rates.
        num_running_tasks = len(copies_by_task)
        cap = max(1, int(self.speculative_cap_fraction * num_running_tasks))
        budget = cap - view.num_speculating_tasks
        if budget <= 0:
            return []

        # Slow-task threshold: progress-rate percentile among running
        # copies. The sorted rate multiset is maintained incrementally by
        # the view; every task keyed in copies_by_task has at least one
        # live copy and (both simulators prune copies of finished tasks
        # synchronously) is unfinished, so len() is the running count.
        rates = view.sorted_progress_rates(now)
        if rates:
            idx = max(0, min(len(rates) - 1, int(self.slow_task_pct * len(rates))))
            rate_threshold = rates[idx]
        else:
            rate_threshold = float("inf")

        max_copies = self.max_copies_per_task()
        detect_after = self.detect_after
        requests: List[SpeculationRequest] = []
        for copies in copies_by_task.values():
            if not copies:
                continue
            first = copies[0]
            task = first.task
            if task.state is _FINISHED or len(copies) >= max_copies:
                continue
            # The cheap filters (detection window, slow-task rate) run
            # before the time-left estimate; all are pure, so the order
            # does not change which tasks pass.
            single = len(copies) == 1
            slowest = first if single else max(copies, key=lambda c: c.duration)
            if now - slowest.start_time < detect_after:
                continue
            if 1.0 / slowest.duration > rate_threshold:
                continue  # not among the slow tasks
            if single:
                # estimated_remaining of the only copy, inlined.
                if now <= first.start_time:
                    trem = task.size
                else:
                    trem = first.start_time + first.duration - now
                    if trem < 0.0:
                        trem = 0.0
            else:
                trem = min(c.estimated_remaining(now) for c in copies)
            # The race's current best copy decides whether a fresh draw
            # can still win.
            tnew = view.estimate_new_copy_duration(task)
            if trem <= tnew:
                continue  # a new copy cannot win the race
            requests.append(
                SpeculationRequest(
                    task=task,
                    expected_new_duration=tnew,
                    expected_benefit=trem - tnew,
                )
            )
        return self._slowest_first(requests)[:budget]
