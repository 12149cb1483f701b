"""Estimating intermediate data sizes and the DAG factor alpha (§6.3).

Intermediate output sizes are unknown upfront; Hopper predicts them from
*recurring* jobs — periodic scripts whose outputs are similar run to run.
The estimator keeps a per-(job name, phase index) running mean of observed
phase output sizes and predicts the next run's outputs from it, falling
back to a neutral alpha of 1.0 for never-seen jobs. The paper reports 92%
average accuracy with this scheme.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.workload.job import Job


class AlphaEstimator:
    """Recurring-job history for intermediate data and alpha prediction.

    All state is **bounded for a bounded set of recurring job names**:
    observations fold into per-(name, phase) running sums, prediction
    accuracy into one running error sum, and the per-job alpha memo is
    dropped on job completion (see :meth:`drop_job`). An open-loop
    serving run can therefore stream jobs indefinitely without the
    estimator growing per job or per observation.
    """

    def __init__(self, network_rate: float = 1.0) -> None:
        if network_rate <= 0:
            raise ValueError("network_rate must be positive")
        self.network_rate = network_rate
        # (job name, phase index) -> (running total, count); the running
        # total accumulates in observation order, so total/count is the
        # exact float mean a stored history would produce.
        self._sums: Dict[Tuple[str, int], Tuple[float, int]] = {}
        # predict_alpha memo: job_id -> (finished tasks, history version,
        # alpha). Alpha is a pure function of the job's per-phase finish
        # counts (monotone, so their total identifies the state) and of
        # the recorded history (versioned below). Entries are evicted
        # when their job completes.
        self._alpha_cache: Dict[int, Tuple[int, int, float]] = {}
        self._history_version = 0
        # job name -> history version right after its latest
        # observation. A name that is absent has no history at all.
        self._name_versions: Dict[str, int] = {}
        # Accuracy accounting as a running (error sum, count) — the
        # per-prediction error list it replaces grew without bound
        # under sustained arrivals and was only ever read as a mean.
        self._error_sum = 0.0
        self._error_count = 0

    # -- recording -------------------------------------------------------------

    def observe_phase_output(
        self, job_name: str, phase_index: int, output_data: float
    ) -> None:
        """Record the actual intermediate output of a finished phase."""
        if not job_name:
            return
        if output_data < 0:
            raise ValueError("output_data must be non-negative")
        predicted = self.predict_phase_output(job_name, phase_index)
        if predicted is not None and output_data > 0:
            self._error_sum += abs(predicted - output_data) / output_data
            self._error_count += 1
        key = (job_name, phase_index)
        total, count = self._sums.get(key, (0.0, 0))
        self._sums[key] = (total + float(output_data), count + 1)
        self._history_version += 1
        self._name_versions[job_name] = self._history_version

    def observe_job(self, job: Job) -> None:
        """Record all phases of a completed job."""
        for phase in job.phases:
            if phase.output_data > 0:
                self.observe_phase_output(job.name, phase.index, phase.output_data)

    @property
    def history_version(self) -> int:
        """Monotone counter bumped on every recorded observation.

        A cached ``predict_alpha`` result is valid exactly while this and
        the job's finished-task count are unchanged; the incremental
        allocation engine uses it as its alpha epoch."""
        return self._history_version

    def name_version(self, job_name: str) -> int:
        """The :attr:`history_version` right after the latest observation
        recorded under ``job_name`` (0 if none).

        A job's predicted alpha reads only its own name's history, so it
        can have moved since history version ``v`` only if this exceeds
        ``v`` (or the job's finished-task count changed)."""
        return self._name_versions.get(job_name, 0)

    # -- prediction --------------------------------------------------------

    def predict_phase_output(
        self, job_name: str, phase_index: int
    ) -> Optional[float]:
        """Predicted output size, or None with no history."""
        entry = self._sums.get((job_name, phase_index))
        if entry is None:
            return None
        total, count = entry
        return total / count

    def predict_alpha(self, job: Job) -> float:
        """Alpha using *predicted* intermediate sizes.

        Computes remaining downstream communication over remaining
        upstream work for the job's running front, exactly like
        ``Job.alpha`` but substituting historical predictions for actual
        output sizes. Returns 1.0 when there is no applicable history.
        """
        finished = 0
        for phase in job.phases:
            finished += phase._finished_count
        cached = self._alpha_cache.get(job.job_id)
        if (
            cached is not None
            and cached[0] == finished
            and cached[1] == self._history_version
        ):
            return cached[2]

        if job.name not in self._name_versions:
            alpha = 1.0  # no phase of this name has a prediction
        else:
            alpha = self._alpha_from_history(job)
        self._alpha_cache[job.job_id] = (
            finished,
            self._history_version,
            alpha,
        )
        return alpha

    def _alpha_from_history(self, job: Job) -> float:
        upstream_work = 0.0
        downstream_comm = 0.0
        saw_prediction = False
        for phase in job.current_phases():
            upstream_work += phase.remaining_work()
            predicted = self.predict_phase_output(job.name, phase.index)
            if predicted is None:
                continue
            remaining_fraction = (
                phase.remaining_tasks / phase.num_tasks if phase.num_tasks else 0.0
            )
            for child in job.downstream_of(phase):
                if not child.is_complete:
                    saw_prediction = True
                    downstream_comm += (
                        predicted * remaining_fraction / self.network_rate
                    )
        if not saw_prediction or upstream_work <= 0 or downstream_comm <= 0:
            return 1.0
        return downstream_comm / upstream_work

    # -- completed-job teardown --------------------------------------------

    def drop_job(self, job_id: int) -> None:
        """Evict a completed job's alpha memo.

        Called by the copy ledger on job completion. Safe because a
        completed job is never passed to :meth:`predict_alpha` again;
        without it the memo grows one entry per job forever, which an
        open-loop serving run cannot afford. The per-*name* running
        sums stay — they are the recurring-job history itself.
        """
        self._alpha_cache.pop(job_id, None)

    # -- accuracy reporting ------------------------------------------------

    @property
    def accuracy(self) -> float:
        """Mean prediction accuracy (1 - relative error), as reported in
        §6.3 (92% in the paper's workloads). 0.0 before any repeat runs."""
        if not self._error_count:
            return 0.0
        return max(0.0, 1.0 - self._error_sum / self._error_count)

    @property
    def num_predictions_scored(self) -> int:
        return self._error_count
