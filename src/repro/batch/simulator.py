"""The third scheduler plane: periodic batch-mode scheduling rounds.

Where the centralized plane reschedules on every arrival and every copy
completion, this plane runs Firmament-style *rounds*: jobs accumulate in
the pending buffer between rounds, and a single recurring engine event
every ``round_interval`` virtual seconds runs the allocation policy over
the full buffer and binds tasks.

The simulator subclasses :class:`~repro.centralized.simulator
.CentralizedSimulator` and reuses its entire dispatch machinery — the
allocation policies, the shared :mod:`repro.runtime` core (JobRuntime +
CopyLedger), speculation, stragglers, blacklisting, and obs all work
unchanged. Only the *when* changes:

* ``_on_job_arrival`` buffers the job (runtime created, phases
  activated) without dispatching;
* copy completions request the next round instead of rescheduling
  inline;
* the periodic straggler scan only arms the next round, whose
  reschedule runs the speculation pass — rounds are the only dispatch
  points.

Rounds are demand-armed like the speculation check: one is scheduled
only while jobs exist and none is pending, so an idle simulator
schedules nothing and the run terminates naturally. ``round_interval ==
0`` degenerates to a round per event batch at the same timestamp, which
converges to the per-arrival centralized schedule (pinned by a property
test).
"""

from __future__ import annotations

from repro.centralized.simulator import CentralizedSimulator
from repro.workload.job import Job


class BatchSimulator(CentralizedSimulator):
    """Periodic-rounds variant of the centralized simulator."""

    __slots__ = ("round_interval", "_round_scheduled")

    def __init__(self, *args, round_interval: float = 0.5, **kwargs) -> None:
        if round_interval < 0.0:
            raise ValueError("round_interval must be non-negative")
        super().__init__(*args, **kwargs)
        self.round_interval = round_interval
        self._round_scheduled = False
        self.metrics.result.scheduler_name = f"batch-{self.policy.name}"

    # ------------------------------------------------------------- events ----

    def _on_job_arrival(self, job: Job) -> None:
        # Same bookkeeping as the per-arrival plane (shared `_admit_job`,
        # which also reserves the job's slot in the incremental
        # allocator), minus the immediate reschedule: the job waits in
        # the buffer for the next round. Because the allocation cache
        # lives on the shared simulator core, a round only recomputes
        # the jobs whose states changed since the previous round — the
        # arrival/completion events in between just mark them dirty.
        self._admit_job(job)
        self._ensure_round()
        self._ensure_spec_check()

    def _ensure_round(self) -> None:
        if self._round_scheduled or not self._jobs:
            return
        self._round_scheduled = True
        self.sim.schedule(self.round_interval, self._on_round)

    def _on_round(self) -> None:
        self._round_scheduled = False
        if not self._jobs:
            return
        self._reschedule()
        # At a zero interval re-arming here would spin forever on the
        # same timestamp; rounds are then armed purely by events
        # (arrivals, completions, straggler scans).
        if self.round_interval > 0.0:
            self._ensure_round()

    def _on_spec_check(self) -> None:
        self._spec_check_scheduled = False
        if not self._jobs:
            return
        self._ensure_round()
        self._ensure_spec_check()

    def _request_dispatch(self) -> None:
        # Copy completions free slots, but binding waits for the round.
        self._ensure_round()
