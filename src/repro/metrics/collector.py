"""Per-run metric records produced by the simulators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.workload.generator import bin_index_for_size


@dataclass
class JobRecord:
    """Summary of one completed job."""

    job_id: int
    name: str
    num_tasks: int
    dag_length: int
    arrival_time: float
    finish_time: float

    @property
    def duration(self) -> float:
        return self.finish_time - self.arrival_time

    @property
    def size_bin(self) -> int:
        """Paper's job-size bin index (Fig. 7)."""
        return bin_index_for_size(self.num_tasks)


@dataclass
class SimulationResult:
    """Everything an experiment needs from one simulation run."""

    scheduler_name: str
    jobs: List[JobRecord] = field(default_factory=list)

    # speculation accounting
    total_copies: int = 0
    speculative_copies: int = 0
    speculative_wins: int = 0
    killed_copies: int = 0
    wasted_slot_time: float = 0.0
    useful_slot_time: float = 0.0
    local_copies: int = 0
    remote_copies: int = 0

    # decentralized accounting
    messages_sent: int = 0
    guideline2_decisions: int = 0
    guideline3_decisions: int = 0

    # diagnostics (PR 5/6 follow-ons). Maintained in memory on every
    # run; serialized only under the schema-2 "obs" section when
    # observability is enabled, so obs-off documents — and therefore
    # every pinned golden digest — stay byte-identical to schema 1.
    # ``compare=False`` keeps them out of result equality for the same
    # reason: they are best-effort debugging aids that do not survive a
    # schema-1 round trip (a fresh run and its cached replay must still
    # compare equal).
    #: Queued probe requests dropped because their target was dead,
    #: evicted, or their job already complete (decentralized plane).
    requests_dropped: int = field(default=0, compare=False)
    #: Machines/workers evicted by the blacklist policy during the run.
    evictions: int = field(default=0, compare=False)
    #: Evicted machines/workers returned to service during the run.
    reinstatements: int = field(default=0, compare=False)
    #: Lifetime straggler-strike totals per machine id (never reset,
    #: even when an eviction clears the policy's active strike window).
    machine_strikes: Dict[int, int] = field(
        default_factory=dict, compare=False
    )
    #: Observability report (counters + phase timers) attached at the
    #: end of an instrumented run; ``None`` on uninstrumented runs.
    obs: Optional[Dict[str, Any]] = field(default=None, compare=False)
    #: Steady-state windowed metrics (warm-up-truncated per-window tail
    #: JCT / queueing delay, time-averaged depth and utilization)
    #: attached by the serving driver; ``None`` on batch runs. Unlike
    #: the obs diagnostics these *are* results: they serialize under
    #: the schema-3 "serving" section, survive round trips, and feed
    #: golden digests — hence compared for equality.
    serving: Optional[Dict[str, Any]] = None

    def job_by_id(self) -> Dict[int, JobRecord]:
        return {r.job_id: r for r in self.jobs}

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def mean_job_duration(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(r.duration for r in self.jobs) / len(self.jobs)

    @property
    def speculation_task_fraction(self) -> float:
        """Fraction of all copies that were speculative (paper: ~25% of
        tasks in Facebook's cluster are speculative)."""
        if self.total_copies == 0:
            return 0.0
        return self.speculative_copies / self.total_copies

    @property
    def speculation_resource_fraction(self) -> float:
        """Fraction of slot-time spent on copies that were killed
        (paper: ~21% of resource usage)."""
        total = self.wasted_slot_time + self.useful_slot_time
        if total <= 0:
            return 0.0
        return self.wasted_slot_time / total

    @property
    def data_locality_fraction(self) -> float:
        total = self.local_copies + self.remote_copies
        if total == 0:
            return 1.0
        return self.local_copies / total


class MetricsCollector:
    """Accumulates records during a simulation run."""

    def __init__(self, scheduler_name: str) -> None:
        self.result = SimulationResult(scheduler_name=scheduler_name)
        #: Optional serving-regime aggregator (see
        #: :mod:`repro.serving.windows`), fed each completion here and
        #: each launch by the copy ledger; one ``is not None`` check on
        #: each path, so batch runs pay nothing.
        self.serving_window = None

    def record_job_completion(
        self,
        job_id: int,
        name: str,
        num_tasks: int,
        dag_length: int,
        arrival_time: float,
        finish_time: float,
    ) -> None:
        if finish_time < arrival_time:
            raise ValueError("finish_time before arrival_time")
        self.result.jobs.append(
            JobRecord(
                job_id=job_id,
                name=name,
                num_tasks=num_tasks,
                dag_length=dag_length,
                arrival_time=arrival_time,
                finish_time=finish_time,
            )
        )
        if self.serving_window is not None:
            self.serving_window.on_completion(
                job_id, arrival_time, finish_time
            )

    def record_copy_launch(self, speculative: bool, local: bool) -> None:
        self.result.total_copies += 1
        if speculative:
            self.result.speculative_copies += 1
        if local:
            self.result.local_copies += 1
        else:
            self.result.remote_copies += 1

    def record_copy_finished(
        self, slot_time: float, speculative_win: bool = False
    ) -> None:
        self.result.useful_slot_time += slot_time
        if speculative_win:
            self.result.speculative_wins += 1

    def record_copy_killed(self, slot_time: float) -> None:
        self.result.killed_copies += 1
        self.result.wasted_slot_time += slot_time

    def record_message(self, count: int = 1) -> None:
        self.result.messages_sent += count

    def record_guideline_decision(self, constrained: bool) -> None:
        if constrained:
            self.result.guideline2_decisions += 1
        else:
            self.result.guideline3_decisions += 1

    def record_eviction(self) -> None:
        self.result.evictions += 1

    def record_reinstatement(self) -> None:
        self.result.reinstatements += 1
