"""Per-job schedulers implementing Pseudocode 2.

Each scheduler owns a subset of jobs. It pushes reservation requests to
random workers at job submission, answers worker slot offers (accept /
refuse / no-task), runs the job's speculation algorithm, and piggybacks
virtual-size, remaining-count and starvation updates on its messages
(modelled by refreshing the shared :class:`JobGossip`).

Per-offer work follows the job the offer names, not the scheduler's
job count. Two per-job memos make that so:

* **Demand.** :meth:`SchedulerAgent._has_demand` (a queued task, or a
  speculative candidate below the copy limit) is memoized on the
  :class:`SchedulerJob` together with the job's change record
  (``changes``, see :mod:`repro.runtime.job`). Every mutation the answer
  depends on bumps the record: a ``pop_pending`` that takes a task (slot
  offer, late-binding pull), a requeue, a phase activation, a copy
  launch, kill or finish (through the copy ledger, and a finish may
  finish a queued task), a declined bind and the periodic scan. So a
  "has pending" answer is valid while the record holds. A speculative
  answer also needs the throttle stamp it was computed under to be
  unchanged and unexpired. A valid memo therefore equals a fresh
  evaluation, and the evaluation it skips would neither prune the queue
  nor restamp the throttle cache, so replays are unchanged. Refusals,
  which walk every job of the scheduler in
  :meth:`~SchedulerAgent._smallest_unsatisfied`, read the memo instead
  of re-deriving demand.
* **Virtual size.** The gossip's virtual size is recomputed only when
  its inputs moved: remaining tasks, beta, and (for a multi-phase job
  under ``use_alpha``) the alpha estimator's history version for the
  job's name (:meth:`~repro.estimation.alpha.AlphaEstimator.name_version`).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.decentralized.config import WorkerPolicy
from repro.decentralized.messages import JobGossip, Request, ResponseType
from repro.runtime import JobRuntime
from repro.speculation.base import SpeculationPolicy
from repro.workload.job import Job
from repro.workload.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.decentralized.simulator import DecentralizedSimulator
    from repro.decentralized.worker import Episode, Worker

#: Minimum interval between two speculation scans of one job (the
#: ``min_interval`` of :meth:`repro.runtime.JobRuntime.speculation_candidates`).
_SPEC_THROTTLE = 0.25


class SchedulerJob(JobRuntime):
    """Scheduler-side runtime state for one job: the shared
    :class:`repro.runtime.JobRuntime` core plus the gossip / probe
    accounting only the decentralized protocol needs."""

    __slots__ = (
        "gossip",
        "occupied",
        "probes_sent",
        "spec_probed_tasks",
        "last_activity",
        "demand",
        "demand_at",
        "demand_stamp",
        "vsize_inputs",
    )

    def __init__(
        self,
        job: Job,
        gossip: JobGossip,
        spec_policy: SpeculationPolicy,
        now: float,
    ) -> None:
        super().__init__(job, spec_policy)
        self.gossip = gossip
        self.occupied = 0  # running copies across the cluster
        self.probes_sent = 0
        self.spec_probed_tasks: Set[int] = set()
        self.last_activity = now
        # Demand memo (see the module docstring): the answer and the
        # change record it was computed under (-1: none yet); a
        # speculative answer keeps the throttle stamp it was read under,
        # a "has pending" answer keeps None there.
        self.demand = False
        self.demand_at = -1
        self.demand_stamp: Optional[float] = None
        # (remaining, beta, alpha history of the job's name) the gossip's
        # virtual size was computed from.
        self.vsize_inputs: Optional[tuple] = None


class SchedulerAgent:
    """One autonomous scheduler (of many)."""

    def __init__(self, scheduler_id: int, sim: "DecentralizedSimulator") -> None:
        self.scheduler_id = scheduler_id
        self.sim = sim
        # Hot-path handles: the engine's clock is read on every offer and
        # every candidate-cache check. Config is immutable after simulator
        # construction, so its per-offer scalars are snapshotted here.
        self._engine = sim.sim
        self.jobs: Dict[int, SchedulerJob] = {}
        config = sim.config
        self._fairness_off = config.epsilon >= 1.0
        # (1 - eps) * slots, pre-multiplied so _refresh_gossip keeps the exact
        # float operation order of ((1 - eps) * slots) / n_est.
        self._fair_numerator = (1.0 - config.epsilon) * sim.total_slots
        self._num_schedulers = config.num_schedulers
        self._use_alpha = config.use_alpha
        # Hopper's coordination: every reservation request can be
        # redeemed for a speculative copy. The baselines must issue fresh
        # probes per speculative copy instead (see Request.spec_ok).
        self._spec_eligible_requests = (
            config.worker_policy is WorkerPolicy.HOPPER
        )
        self._late_binding = config.late_binding
        # The beta every gossip refresh reads: the learning estimator,
        # or None for the fixed default_beta.
        self._beta_estimator = sim.beta_estimator if config.learn_beta else None
        self._default_beta = config.default_beta
        self._alpha_estimator = sim.alpha_estimator
        self._send = sim.send
        self._counters = sim._counters  # None unless observability is on

    # -- job lifecycle -----------------------------------------------------

    def submit_job(self, job: Job) -> SchedulerJob:
        gossip = JobGossip(
            job_id=job.job_id,
            scheduler_id=self.scheduler_id,
            virtual_size=0.0,
            remaining_tasks=job.remaining_tasks(),
        )
        sj = SchedulerJob(
            job=job,
            gossip=gossip,
            spec_policy=self.sim.speculation_factory(),
            now=self.sim.sim.now,
        )
        self.jobs[job.job_id] = sj
        fresh = sj.activate_runnable_phases()
        self._refresh_gossip(sj)
        self._send_probes(sj, len(fresh))
        return sj

    def _send_probes(
        self, sj: SchedulerJob, num_tasks: int, spec_ok: Optional[bool] = None
    ) -> None:
        if num_tasks <= 0:
            return
        if spec_ok is None:
            spec_ok = self._spec_eligible_requests
        budget = self.sim.config.max_probes_per_job - sj.probes_sent
        count = min(
            int(math.ceil(self.sim.config.probe_ratio * num_tasks)),
            max(budget, 0),
        )
        if count <= 0:
            return
        sj.probes_sent += count
        workers = self.sim.sample_workers(count)
        now = self.sim.sim.now
        # One immutable Request serves the whole burst: each worker
        # queues it in its own list, so sharing is observationally
        # identical to per-worker instances (and k-1 allocations cheaper).
        request = Request(gossip=sj.gossip, enqueue_time=now, spec_ok=spec_ok)
        send = self.sim.send
        for worker in workers:
            send(worker.on_request, request)
        if self._counters is not None:
            self._counters.inc("probe.sent", len(workers))
        sj.last_activity = now

    def _send_baseline_spec_probes(self, sj: SchedulerJob) -> None:
        """Sparrow/Sparrow-SRPT: each newly flagged straggler gets fresh,
        speculation-eligible probes that join the back of worker queues."""
        fresh = 0
        now = self._engine._now
        for request in sj.speculation_candidates(now, _SPEC_THROTTLE):
            task_id = request.task.task_id
            if task_id in sj.spec_probed_tasks:
                continue
            sj.spec_probed_tasks.add(task_id)
            fresh += 1
        if fresh:
            self._send_probes(sj, fresh, spec_ok=True)

    # -- gossip / estimation -----------------------------------------------

    def _virtual_size(
        self, sj: SchedulerJob, remaining: int, beta: float
    ) -> float:
        alpha = 1.0
        if self._use_alpha and len(sj.job.phases) > 1:
            alpha = self._alpha_estimator.predict_alpha(sj.job)
        # Inlined repro.core.virtual_size.virtual_size (identical float
        # operations in identical order) — this runs whenever a job's
        # gossip inputs move.
        if remaining == 0:
            return 0.0
        threshold = 2.0 / beta
        if threshold < 1.0:
            threshold = 1.0
        size = threshold * remaining * math.sqrt(alpha)
        remaining_f = float(remaining)
        return size if size > remaining_f else remaining_f

    def _refresh_gossip(self, sj: SchedulerJob) -> None:
        gossip = sj.gossip
        job = sj.job
        remaining = job.remaining_tasks()
        # beta is read on every refresh: a learning estimator refits on
        # reads, so skipping a read would move its later fits.
        estimator = self._beta_estimator
        beta = estimator.beta if estimator is not None else self._default_beta
        history = -1  # alpha is constant 1.0 (single phase or alpha off)
        if self._use_alpha and len(job.phases) > 1:
            history = self._alpha_estimator.name_version(job.name)
        inputs = (remaining, beta, history)
        if inputs != sj.vsize_inputs:
            sj.vsize_inputs = inputs
            gossip.virtual_size = self._virtual_size(sj, remaining, beta)
        gossip.remaining_tasks = remaining
        if self._fairness_off:
            gossip.starved = False
            return
        # The ε-fair floor from local knowledge only: this scheduler's
        # job count stands for every scheduler's.
        n_local = len(self.jobs)
        fair_share = 0.0
        if n_local:
            fair_share = self._fair_numerator / (n_local * self._num_schedulers)
        gossip.starved = sj.occupied < fair_share and self._has_demand(sj)

    # -- speculation --------------------------------------------------------

    def _next_speculative_task(self, sj: SchedulerJob) -> Optional[Task]:
        candidates = sj.speculation_candidates(self._engine._now, _SPEC_THROTTLE)
        if not candidates:
            return None
        copies_by_task = sj.view.copies_by_task
        max_copies = sj.spec_policy.max_copies_per_task()
        for request in candidates:
            task = request.task
            if task.is_finished:
                continue
            live = copies_by_task.get(task.task_id)
            if live is not None and len(live) >= max_copies:
                continue
            return task
        return None

    def _has_demand(self, sj: SchedulerJob) -> bool:
        """A queued task or a launchable speculative copy, memoized per
        job (validity and invalidation: see the module docstring)."""
        if sj.demand_at == sj.changes:
            stamp = sj.demand_stamp
            if stamp is None or (
                stamp == sj.spec_cache_time
                and self._engine._now - stamp < _SPEC_THROTTLE
            ):
                return sj.demand
        if sj.has_pending():
            demand = True
            stamp = None
        else:
            demand = self._next_speculative_task(sj) is not None
            stamp = sj.spec_cache_time
        sj.demand = demand
        sj.demand_at = sj.changes
        sj.demand_stamp = stamp
        return demand

    def _smallest_unsatisfied(self) -> Optional[Tuple[float, int, int]]:
        """(virtual size, job id, scheduler id) of this scheduler's
        smallest job that still wants slots (attached to refusals)."""
        best: Optional[Tuple[float, int, int]] = None
        for sj in self.jobs.values():
            if sj.occupied >= sj.gossip.virtual_size:
                continue
            if not self._has_demand(sj):
                continue
            entry = (sj.gossip.virtual_size, sj.job.job_id, self.scheduler_id)
            if best is None or entry < best:
                best = entry
        return best

    # -- Pseudocode 2: answering slot offers ---------------------------------

    def on_slot_offer(
        self,
        worker: "Worker",
        episode: "Episode",
        request,
        rtype: ResponseType,
    ) -> None:
        # A job leaves ``jobs`` in the event that completes it, so a
        # listed job is never complete.
        job_id = request.gossip.job_id
        sj = self.jobs.get(job_id)
        if sj is None:
            self._send(worker.on_no_task, episode, request)
            return
        sj.last_activity = self._engine._now
        self._refresh_gossip(sj)

        if self._late_binding:
            self._offer_reservation(worker, episode, request, rtype, sj)
            return

        # An empty queue has nothing to prune: skip the call.
        task = sj.pop_pending() if sj.pending else None
        speculative = False
        if task is None and request.spec_ok:
            # Speculative copies only ever come from the job's speculation
            # algorithm (Hopper is compatible with, not a replacement for,
            # LATE/Mantri/GRASS). A refusable offer is honoured only while
            # the job sits below its desired speculation level (its
            # virtual size) or below its ε-fair floor; a non-refusable
            # offer is a worker's Guideline-3 grant of extra capacity.
            below_virtual = sj.occupied < sj.gossip.virtual_size
            allowed = (
                rtype is ResponseType.NON_REFUSABLE
                or below_virtual
                or sj.gossip.starved
            )
            if allowed:
                task = self._next_speculative_task(sj)
                speculative = task is not None

        if task is not None:
            sj.occupied += 1  # reserve eagerly; confirmed when copy binds
            self._send(
                worker.on_accept, episode, request, task, speculative
            )
            return

        if not self._has_demand(sj) and sj.occupied == 0:
            # Nothing running and nothing to run: workers can drop us.
            self._send(worker.on_no_task, episode, request)
            return
        self._send(
            worker.on_refuse, episode, request, self._smallest_unsatisfied()
        )

    # -- Sparrow late binding -------------------------------------------------

    def _offer_reservation(
        self,
        worker: "Worker",
        episode: "Episode",
        request,
        rtype: ResponseType,
        sj: SchedulerJob,
    ) -> None:
        """Late-binding accept path: grant a reservation without picking
        a task; the concrete task is popped when the worker pulls it
        (:meth:`on_pull`), one message round-trip later."""
        wants = sj.has_pending()
        if not wants and request.spec_ok:
            below_virtual = sj.occupied < sj.gossip.virtual_size
            allowed = (
                rtype is ResponseType.NON_REFUSABLE
                or below_virtual
                or sj.gossip.starved
            )
            if allowed and self._next_speculative_task(sj) is not None:
                wants = True
        if wants:
            sj.occupied += 1  # reserve eagerly; released on pull miss
            self._send(worker.on_reserve, episode, request)
            return
        if not self._has_demand(sj) and sj.occupied == 0:
            self._send(worker.on_no_task, episode, request)
            return
        self._send(
            worker.on_refuse, episode, request, self._smallest_unsatisfied()
        )

    def on_pull(self, worker: "Worker", episode: "Episode", request) -> None:
        """Redeem a late-binding reservation for a concrete task.

        The task is bound only now, at execution time — the whole point
        of late binding: whichever reservation's worker frees up first
        gets the job's next pending task. If demand evaporated between
        reserve and pull (another reservation drained the queue), the
        reservation is released and the worker told there is no task.
        """
        job_id = request.gossip.job_id
        sj = self.jobs.get(job_id)
        if sj is None:
            # Job completion already dropped its bookkeeping; nothing to
            # release.
            self._send(worker.on_no_task, episode, request)
            return
        sj.last_activity = self._engine._now
        self._refresh_gossip(sj)
        task = sj.pop_pending()
        speculative = False
        if task is None and request.spec_ok:
            task = self._next_speculative_task(sj)
            speculative = task is not None
        if task is not None:
            self._send(
                worker.on_accept, episode, request, task, speculative
            )
            return
        sj.occupied -= 1  # release the reservation granted at offer time
        self._send(worker.on_no_task, episode, request)

    # -- execution callbacks (data plane) ------------------------------------

    def on_copy_bound(self, sj: SchedulerJob) -> None:
        sj.last_activity = self.sim.sim.now

    def on_copy_gone(self, sj: SchedulerJob) -> None:
        """Release the occupancy a copy held (or reserved at accept)."""
        sj.occupied -= 1

    def on_task_finished(self, sj: SchedulerJob, task: Task) -> None:
        """React to a task completing (the simulator already marked it
        finished and collected the race losers via the copy ledger)."""
        fresh = sj.activate_runnable_phases()
        if fresh:
            self._send_probes(sj, len(fresh))
        self._refresh_gossip(sj)

    def requeue_task(self, sj: SchedulerJob, task: Task) -> None:
        """A worker eviction killed the task's last running copy: put it
        back in the pending queue and probe for a fresh slot."""
        if sj.requeue(task):
            self._refresh_gossip(sj)
            self._send_probes(sj, 1)

    def on_cluster_resize(self, total_slots: int) -> None:
        """Eviction/reinstatement changed the usable slot count; refresh
        the snapshotted ε-fair numerator (see ``_refresh_gossip``)."""
        self._fair_numerator = (1.0 - self.sim.config.epsilon) * total_slots

    def complete_job(self, sj: SchedulerJob) -> None:
        sj.gossip.active = False
        del self.jobs[sj.job.job_id]

    # -- periodic maintenance -------------------------------------------------

    def on_spec_check(self) -> None:
        """Periodic straggler scan + gossip refresh + liveness nudge."""
        now = self.sim.sim.now
        interval = self.sim.config.speculation_check_interval
        for sj in list(self.jobs.values()):
            sj.mark_changed()
            self._refresh_gossip(sj)
            if not self._spec_eligible_requests:
                self._send_baseline_spec_probes(sj)
            if (
                self.sim.config.nudge_probes > 0
                and self._has_demand(sj)
                and now - sj.last_activity > interval
            ):
                sj.probes_sent = min(
                    sj.probes_sent, self.sim.config.max_probes_per_job - 1
                )
                self._nudge(sj)

    def _nudge(self, sj: SchedulerJob) -> None:
        workers = self.sim.sample_workers(self.sim.config.nudge_probes)
        now = self.sim.sim.now
        request = Request(gossip=sj.gossip, enqueue_time=now, spec_ok=True)
        for worker in workers:
            self.sim.send(worker.on_request, request)
        if self._counters is not None:
            self._counters.inc("probe.sent", len(workers))
        sj.last_activity = now
