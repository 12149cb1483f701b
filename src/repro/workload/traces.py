"""Traces: job sequences with arrival times, plus utilization targeting.

The paper speeds up trace replay to evaluate a range of average cluster
utilizations (60%-90%, §7.1). We reproduce this by rescaling interarrival
gaps so that the offered load ``rho = lambda * E[job work] / S`` matches a
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.workload.job import Job
from repro.workload.task import Task


def arrival_rate_for_utilization(
    mean_job_work: float,
    total_slots: int,
    utilization: float,
) -> float:
    """Poisson arrival rate (jobs/time-unit) giving the target utilization.

    ``rho = lambda * E[work] / S  =>  lambda = rho * S / E[work]``.
    """
    if mean_job_work <= 0:
        raise ValueError("mean_job_work must be positive")
    if total_slots <= 0:
        raise ValueError("total_slots must be positive")
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    return utilization * total_slots / mean_job_work


def clone_job(job: Job) -> Job:
    """Independent copy of ``job``, runtime state included.

    Equivalent to a generic deep copy at a fraction of its cost: each
    ``Job`` and ``Phase`` gets a copy of its attribute dict, each
    slotted ``Task`` a copy of its slots, and only the per-instance
    containers (``Job.phases``, ``Job._phase_by_index``,
    ``Phase.tasks``) are rebuilt; every other attribute is an immutable
    scalar, tuple or enum, so sharing it is safe. Constructors are deliberately not re-run: after
    :meth:`Phase.scale_work` the cached ``_total_work`` is the scaled
    total, which ``sum(task.size)`` need not reproduce bit-for-bit.
    """
    new_job = object.__new__(type(job))
    job_attrs = job.__dict__.copy()
    phases = []
    for phase in job.phases:
        new_phase = object.__new__(type(phase))
        phase_attrs = phase.__dict__.copy()
        tasks = []
        for task in phase.tasks:
            new_task = object.__new__(Task)
            new_task.task_id = task.task_id
            new_task.job_id = task.job_id
            new_task.phase_index = task.phase_index
            new_task.size = task.size
            new_task.preferred_machines = task.preferred_machines
            new_task.state = task.state
            new_task.finish_time = task.finish_time
            new_task.completed_by_speculative = task.completed_by_speculative
            tasks.append(new_task)
        phase_attrs["tasks"] = tasks
        new_phase.__dict__ = phase_attrs
        phases.append(new_phase)
    job_attrs["phases"] = phases
    job_attrs["_phase_by_index"] = {p.index: p for p in phases}
    new_job.__dict__ = job_attrs
    return new_job


@dataclass
class Trace:
    """An ordered sequence of jobs to replay."""

    jobs: List[Job]

    def __post_init__(self) -> None:
        self.jobs = sorted(self.jobs, key=lambda j: j.arrival_time)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    @property
    def total_tasks(self) -> int:
        return sum(j.num_tasks for j in self.jobs)

    @property
    def total_work(self) -> float:
        return sum(t.size for j in self.jobs for t in j.all_tasks())

    def offered_utilization(self, total_slots: int) -> float:
        """Empirical offered load over the arrival window."""
        if not self.jobs or total_slots <= 0:
            return 0.0
        span = self.jobs[-1].arrival_time - self.jobs[0].arrival_time
        if span <= 0:
            return float("inf")
        return self.total_work / (span * total_slots)

    def rescaled_to_utilization(self, total_slots: int, utilization: float) -> "Trace":
        """Return a copy with interarrival gaps scaled to the target load.

        Mirrors the paper's "speed-up the trace appropriately" (§7.1).
        """
        current = self.offered_utilization(total_slots)
        if current in (0.0, float("inf")):
            raise ValueError("trace has no arrival span to rescale")
        factor = current / utilization
        jobs = [clone_job(job) for job in self.jobs]
        base = jobs[0].arrival_time
        for job in jobs:
            job.arrival_time = base + (job.arrival_time - base) * factor
        return Trace(jobs=jobs)

    def fresh_copy(self) -> "Trace":
        """Independent copy with runtime state cleared — safe to replay."""
        jobs = [clone_job(job) for job in self.jobs]
        for job in jobs:
            job.reset_runtime_state()
        return Trace(jobs=jobs)


def merge_traces(traces: Sequence[Trace]) -> Trace:
    """Interleave several traces by arrival time.

    Jobs are cloned (and their runtime state reset) so that replaying
    the merged trace cannot mutate the source traces' Job objects. Traces
    produced by independent generators can carry colliding job ids (each
    generator numbers from 0); since the simulators key jobs by id, the
    merged copies are renumbered sequentially when a collision exists.
    """
    # Copy per occurrence so a job passed in twice (e.g. merge([a, a]))
    # yields two distinct clones.
    all_jobs: List[Job] = []
    for trace in traces:
        for job in trace.jobs:
            clone = clone_job(job)
            clone.reset_runtime_state()
            all_jobs.append(clone)
    merged = Trace(jobs=all_jobs)
    if len({job.job_id for job in merged.jobs}) != len(merged.jobs):
        for new_id, job in enumerate(merged.jobs):
            job.job_id = new_id
            for task in job.all_tasks():
                task.job_id = new_id
    return merged
