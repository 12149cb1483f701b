"""Task-copy lifecycle shared by both simulator families.

A :class:`CopyLedger` owns copy identity (monotonic copy ids) and the
bookkeeping every copy transition must perform against the speculation
view, the metrics collector, and the beta estimator. A running copy
carries its own pending finish event (``TaskCopy.event``): the ledger
sets it at launch and clears it when the copy finishes or is killed, so
it keeps no per-copy table. The centralized and decentralized
simulators differ in *slot* accounting (cluster machines vs worker
queues) and in the order side effects interleave with their control
planes, so the ledger exposes both a composite :meth:`finish`
(centralized) and the fine-grained :meth:`settle_finished` /
:meth:`detach` / :meth:`record_finish` pieces the decentralized
simulator needs to keep its episode machinery firing at exactly the
pre-refactor points.

Every launch, kill and finish feeds the job's change record through
:meth:`repro.runtime.JobRuntime.mark_changed`, so neither plane dirties
its memos at a copy transition itself.
"""

from __future__ import annotations

from typing import List, Optional

from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator
from repro.metrics.collector import MetricsCollector
from repro.runtime.job import JobRuntime
from repro.simulation.engine import Simulator
from repro.speculation.base import JobExecutionView
from repro.stragglers.progress import TaskCopy
from repro.workload.job import Job
from repro.workload.task import Task, TaskState


class CopyLedger:
    """Copy identity + lifecycle bookkeeping for one simulator run.

    The ledger is the single chokepoint every copy transition passes
    through on both planes, which makes it the natural tracing surface:
    with a :class:`repro.obs.Tracer` attached, it emits one ``copy``
    span per task copy (launch → finish/kill, tagged with the race
    outcome), a ``spec.win`` instant when a speculative copy wins, and
    closes the per-job span opened by the simulator at arrival. Without
    one, every hook is a single ``is not None`` check.
    """

    __slots__ = (
        "engine",
        "metrics",
        "beta_estimator",
        "_next_copy_id",
        "tracer",
    )

    def __init__(
        self,
        engine: Simulator,
        metrics: MetricsCollector,
        beta_estimator: OnlineBetaEstimator,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.beta_estimator = beta_estimator
        self._next_copy_id = 0
        self.tracer = tracer

    # -- launch -------------------------------------------------------------

    def launch(
        self,
        jr: JobRuntime,
        task: Task,
        machine_id: int,
        duration: float,
        speculative: bool,
        local: bool,
        on_finish,
        *finish_args,
    ) -> TaskCopy:
        """Create a copy, register it with the job's view, schedule its
        finish event, and record the launch."""
        copy = TaskCopy(
            copy_id=self._next_copy_id,
            task=task,
            machine_id=machine_id,
            start_time=self.engine.now,
            duration=duration,
            speculative=speculative,
        )
        self._next_copy_id += 1
        jr.view.register_copy(copy)
        jr.mark_changed()
        copy.event = self.engine.schedule(
            duration, on_finish, copy, *finish_args
        )
        metrics = self.metrics
        metrics.record_copy_launch(speculative=speculative, local=local)
        # A serving run's aggregator measures queueing delay (arrival ->
        # first launch) from every launch; one None check when off.
        if metrics.serving_window is not None:
            metrics.serving_window.note_launch(task.job_id, copy.start_time)
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(
                "copy",
                "spec" if speculative else "task",
                ("copy", copy.copy_id),
                copy.start_time,
                job=task.job_id,
                task=task.task_id,
                machine=machine_id,
                speculative=speculative,
            )
        return copy

    # -- finish -------------------------------------------------------------

    def settle_finished(self, copy: TaskCopy) -> None:
        """Drop the fired event handle and stamp the copy as finished."""
        copy.event = None
        copy.finished = True
        copy.end_time = self.engine.now

    def record_finish(self, copy: TaskCopy) -> bool:
        """Record the finish; returns True when this copy won the race
        (its task was still unfinished)."""
        won = not copy.task.is_finished
        self.metrics.record_copy_finished(
            copy.duration, speculative_win=copy.speculative and won
        )
        tracer = self.tracer
        if tracer is not None:
            now = self.engine.now
            tracer.end(("copy", copy.copy_id), now, won=won)
            if copy.speculative and won:
                tracer.instant(
                    "copy",
                    "spec.win",
                    now,
                    job=copy.task.job_id,
                    task=copy.task.task_id,
                    machine=copy.machine_id,
                )
        return won

    def detach(self, copy: TaskCopy, jr: JobRuntime) -> None:
        """Remove a copy that stopped running from the job's view and
        feed the change to the job's change record."""
        jr.view.remove_copy(copy)
        jr.mark_changed()

    def finish(self, copy: TaskCopy, jr: JobRuntime) -> bool:
        """Composite finish: settle, detach from the job, record.

        Returns True when this copy won the race.
        """
        self.settle_finished(copy)
        self.detach(copy, jr)
        return self.record_finish(copy)

    # -- kill ---------------------------------------------------------------

    def kill(self, copy: TaskCopy, jr: JobRuntime) -> None:
        """Cancel a running copy: detach it everywhere and account its
        wasted slot-time."""
        copy.event.cancel()
        copy.event = None
        copy.killed = True
        copy.end_time = self.engine.now
        self.detach(copy, jr)
        self.metrics.record_copy_killed(copy.resource_time(self.engine.now))
        if self.tracer is not None:
            self.tracer.end(("copy", copy.copy_id), self.engine.now, killed=True)

    # -- task / job completion ----------------------------------------------

    def finish_task(self, view: JobExecutionView, copy: TaskCopy) -> List[TaskCopy]:
        """Mark the winner's task finished and feed the estimators;
        returns the still-running sibling copies (the race losers)."""
        task = copy.task
        task.state = TaskState.FINISHED
        task.finish_time = self.engine.now
        task.completed_by_speculative = copy.speculative
        view.job.phase(task.phase_index).mark_task_finished(task.size)
        view.completed_durations.append(copy.duration)
        self.beta_estimator.observe(copy.duration)
        return [
            c for c in view.copies_by_task.get(task.task_id, ()) if c.is_running
        ]

    def record_job_completion(
        self, job: Job, alpha_estimator: Optional[AlphaEstimator] = None
    ) -> None:
        """Stamp and record a completed job (and teach the alpha model)."""
        now = self.engine.now
        job.finish_time = now
        self.metrics.record_job_completion(
            job_id=job.job_id,
            name=job.name,
            num_tasks=job.num_tasks,
            dag_length=job.dag_length,
            arrival_time=job.arrival_time,
            finish_time=now,
        )
        if alpha_estimator is not None:
            alpha_estimator.observe_job(job)
            # Completed jobs are never queried again; dropping their
            # memo keeps estimator state bounded under sustained
            # arrivals (open-loop serving runs have no end-of-run
            # teardown to rely on).
            alpha_estimator.drop_job(job.job_id)
        if self.tracer is not None:
            self.tracer.end(("job", job.job_id), now, tasks=job.num_tasks)
