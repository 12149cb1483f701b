"""Event-driven centralized cluster simulator.

Replays a trace through a central scheduler: on every job arrival, task
completion, or periodic straggler scan, the policy recomputes slot targets
and the dispatcher fills deficits — original tasks first, then speculative
copies proposed by the job's speculation algorithm. When any copy of a
task finishes, its sibling copies are killed and their slot-time is
accounted as speculation waste.

The simulator owns all runtime state; jobs/tasks keep only the minimal
flags needed for replay (`reset_runtime_state`).

Scale-out notes (10k+-slot clusters):

* per-job state is a :class:`repro.runtime.JobRuntime` and the copy
  lifecycle goes through the shared :class:`repro.runtime.CopyLedger` —
  the same core the decentralized path runs on;
* every "which machine has a free slot?" question is answered by the
  cluster's incremental :class:`~repro.cluster.index.ClusterIndex`
  (O(log machines)) instead of an O(machines) scan. Random placement
  draws ``rng.randrange(free_count)`` and selects the n-th free machine
  in ascending-id order, which consumes the same entropy and returns
  the same machine as the old ``rng.choice(scan)`` — replays are
  bit-identical (pinned by ``tests/test_golden_results.py``);
* allocation state is **incremental** the same way: per-job
  :class:`~repro.core.allocation.JobAllocationState` inputs are cached
  on the runtime and recomputed only for jobs a task-finish dirtied
  (plus a lazy sweep when the beta or alpha-history epoch moves), the
  dispatch order lives in a delta-maintained sorted container, and
  fairness floors and the virtual-size sum are memoized — see
  :class:`repro.core.incremental.IncrementalAllocator`. The property
  tests hold the cache equal to a from-scratch rebuild after every
  event;
* trace arrivals are bulk-inserted with
  :meth:`~repro.simulation.engine.Simulator.schedule_many`;
* the speculation-preemption sweep enumerates victims from the view's
  live-speculative index instead of walking every live copy, and only
  visits jobs in the incrementally tracked live-speculation set;
* each reschedule's work follows the jobs that changed. The work sets
  are fed by the runtime's one change feed (see :mod:`repro.runtime.job`),
  to which ``_JobRuntime`` subscribes once: a job is in
  ``_pending_job_ids`` exactly while its pending deque is non-empty,
  and every change to it (a copy launch, kill or finish, or a cap move)
  puts it in the speculation work set ``_spec_work`` and in ``_moved``.
  ``_moved`` is the one definition of a job that *moved* since the last
  preemption sweep (its running count or its cap did), and every
  reschedule clears it. While the targets stay the caps, the sweep
  visits only moved jobs, and a job parked at its target stays out of
  the speculation work set until it moves or its stamp expires.

The run loop, the job index and blacklisting (§2.2) and elastic
resizes are the ones both planes share (:class:`~repro.runtime.plane.Plane`):
an optional :class:`~repro.cluster.policy.BlacklistPolicy` observes every
copy completion; an eviction or a shrink flags machines in the cluster
(an O(log machines) delta on the totals and the free-slot index),
refreshes the speculation budget, then kills the machines' running
copies through the ledger and requeues tasks whose last copy died.
With no policy (the default) the blacklist path is a single
``is not None`` check per completion.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.policies import CentralizedPolicy
from repro.cluster.cluster import Cluster
from repro.cluster.elastic import AutoscalerPolicy
from repro.cluster.policy import BlacklistPolicy
from repro.core.allocation import JobAllocationState
from repro.core.incremental import IncrementalAllocator
from repro.core.locality import pick_job_with_locality
from repro.core.virtual_size import virtual_size
from repro.metrics.collector import SimulationResult
from repro.runtime import LocalityJobRuntime
from repro.runtime.plane import Plane
from repro.simulation.rng import RandomSource
from repro.speculation.base import SpeculationPolicy
from repro.stragglers.model import StragglerModel
from repro.stragglers.progress import TaskCopy
from repro.workload.job import Job
from repro.workload.task import Task, TaskState
from repro.workload.traces import Trace

if TYPE_CHECKING:
    from repro.cluster.datastore import DataStore
    from repro.obs import Obs


class _JobRuntime(LocalityJobRuntime):
    """Centralized per-job state: the shared runtime core with locality
    buckets, running-copy counters the dispatcher's deficit math reads,
    and the allocation-state inputs. Its overrides of the change feed
    are the simulator's one subscription to it (see the module
    docstring)."""

    __slots__ = (
        "running_copies",
        "running_speculative",
        "alloc_dirty",
        "alloc_remaining",
        "alloc_alpha",
        "alloc_downstream",
        "_pending_jobs",
        "_spec_work",
        "_moved",
    )

    def __init__(
        self,
        job: Job,
        spec_policy: SpeculationPolicy,
        sim: "CentralizedSimulator",
    ) -> None:
        super().__init__(job, spec_policy)
        self.running_copies = 0
        self.running_speculative = 0
        # Allocation-state inputs for the incremental allocator: the
        # remaining task count, predicted alpha and downstream virtual
        # tasks change only when a task of this job finishes (or, for
        # alpha, when the estimator's history moves), so between those
        # events virtual sizes are recomputed from these numbers without
        # touching the job's phase structures. alloc_dirty marks a
        # pending full recompute.
        self.alloc_dirty = True
        self.alloc_remaining = 0
        self.alloc_alpha = 1.0
        self.alloc_downstream = 0.0
        self._pending_jobs = sim._pending_job_ids
        self._spec_work = sim._spec_work
        self._moved = sim._moved

    def _note_queued(self, task: Task) -> None:
        super()._note_queued(task)
        if len(self.pending) == 1:
            self._pending_jobs.add(self.job.job_id)

    def _note_dequeued(self, task: Task) -> None:
        super()._note_dequeued(task)
        if not self.pending:
            self._pending_jobs.discard(self.job.job_id)

    def mark_changed(self, copies: bool = True) -> None:
        # JobRuntime.mark_changed inlined: every launch, kill, finish
        # and cap move runs this.
        if copies:
            self.spec_dirty = True
        self.changes += 1
        job_id = self.job.job_id
        self._spec_work.add(job_id)
        self._moved.add(job_id)


class CentralizedSimulator(Plane):
    """Simulates a trace under one centralized policy.

    Parameters
    ----------
    cluster:
        Machines and slots.
    policy:
        Allocation policy (Fair / SRPT / Hopper).
    speculation:
        Factory returning a (possibly shared) speculation policy; called
        once per job so stateful policies stay per-job.
    trace:
        Jobs to replay (runtime state must be fresh).
    straggler_model:
        Slowdown generator.
    config:
        Knobs; see :class:`CentralizedConfig`.
    datastore:
        Optional block placement for locality modelling.
    random_source:
        Seed hierarchy.
    """

    __slots__ = (
        "cluster",
        "policy",
        "datastore",
        "_rng",
        "_alloc",
        "_alloc_beta",
        "_alloc_history",
        "_alloc_dirty_jobs",
        "_alpha_job_ids",
        "_spec_job_ids",
        "_pending_job_ids",
        "_spec_work",
        "_spec_parked",
        "_spec_expiry",
        "_moved",
        "_sweep_capped",
        "_jobs_completed",
        "_spec_budget",
        "_running_spec_copies",
        "_running_original_copies",
        "_spec_eval_min_interval",
    )

    def __init__(
        self,
        cluster: Cluster,
        policy: CentralizedPolicy,
        speculation: Callable[[], SpeculationPolicy],
        trace: Trace,
        straggler_model: StragglerModel,
        config: Optional[CentralizedConfig] = None,
        datastore: Optional[DataStore] = None,
        random_source: Optional[RandomSource] = None,
        blacklist_policy: Optional[BlacklistPolicy] = None,
        autoscaler: Optional[AutoscalerPolicy] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        super().__init__(
            cluster,
            trace,
            speculation,
            straggler_model,
            config or CentralizedConfig(),
            policy.name,
            random_source,
            blacklist_policy,
            autoscaler,
            obs,
        )
        self.cluster = cluster
        self.policy = policy
        self.datastore = datastore
        self._rng = self.random_source.child("centralized").rng
        # Incremental allocation engine: cached per-job states and the
        # delta-maintained dispatch order.
        self._alloc = IncrementalAllocator(policy)
        self._alloc_beta: Optional[float] = None  # beta states were built at
        self._alloc_history = -1  # alpha history version ditto
        self._alloc_dirty_jobs: set = set()  # job ids needing recompute
        # Jobs whose predicted alpha can move with the alpha history.
        self._alpha_job_ids: set = set()
        self._spec_job_ids: set = set()  # jobs with live speculative copies
        # Work sets fed by the runtimes' change feed (see the module
        # docstring): jobs with a non-empty pending deque, jobs whose
        # speculation visit may act, and jobs that moved since the last
        # preemption sweep. A min-heap of (throttle stamp, job id)
        # returns a job to the speculation work set once its stamp
        # expires.
        self._pending_job_ids: set = set()
        self._spec_work: set = set()
        self._moved: set = set()
        self._spec_expiry: List[tuple] = []
        # Jobs a capped speculation pass took out of the work set at
        # their target (may also hold ids that have since returned).
        self._spec_parked: set = set()
        # Whether the last preemption sweep ran on capped targets.
        self._sweep_capped = False
        self._jobs_completed = 0
        self._spec_budget = 0
        self._refresh_membership()
        self._running_spec_copies = 0
        self._running_original_copies = 0
        self._spec_eval_min_interval = self.config.spec_eval_min_interval

    # ------------------------------------------------------------------ run --

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Replay the whole trace from a freed cluster; returns the
        metrics."""
        self.cluster.reset()
        return super().run(until)

    # -------------------------------------------------------------- helpers --

    def _beta(self) -> float:
        if self.config.learn_beta:
            return self.beta_estimator.beta
        return self.config.default_beta

    def _job_alpha(self, job: Job) -> float:
        if not self.config.use_alpha or job.num_phases == 1:
            return 1.0
        return self.alpha_estimator.predict_alpha(job)

    def _refresh_job_state(
        self, jr: _JobRuntime, beta: float, realpha: bool
    ) -> None:
        """Bring one job's cached allocation state up to date.

        A dirty job re-reads its inputs (remaining tasks, alpha,
        downstream virtual tasks) from the job structures; a clean job
        reuses the cached inputs and only re-derives the beta-dependent
        floats (``realpha`` additionally re-predicts alpha when the
        estimator's history moved — another job's completion can change
        a recurring job's prediction). Every float is computed by the
        exact expression a from-scratch rebuild uses, on the exact
        same inputs, so the resulting states are identical objects
        field-for-field."""
        job = jr.job
        if jr.alloc_dirty:
            jr.alloc_dirty = False
            remaining = job.remaining_tasks()
            jr.alloc_remaining = remaining
            if remaining <= 0:
                self._alloc.remove(job.job_id)
                return
            jr.alloc_alpha = self._job_alpha(job)
            jr.alloc_downstream = 0.0
            if self.policy.uses_virtual_sizes and job.num_phases > 1:
                jr.alloc_downstream = job.downstream_virtual_tasks(
                    self.config.network_rate
                )
        else:
            remaining = jr.alloc_remaining
            if remaining <= 0:
                return
            if realpha:
                jr.alloc_alpha = self._job_alpha(job)
        vsize = virtual_size(remaining, beta, jr.alloc_alpha)
        priority = vsize
        if jr.alloc_downstream > 0:
            priority = max(vsize, virtual_size(jr.alloc_downstream, beta))
        max_useful = max(
            int(math.ceil(vsize)),
            self.config.max_copies_cap * remaining,
        )
        if self._alloc.upsert(
            JobAllocationState(
                job_id=job.job_id,
                virtual_size=vsize,
                remaining_tasks=remaining,
                weight=job.weight,
                priority_size=priority,
                max_useful_slots=max_useful,
            )
        ):
            jr.mark_changed(copies=False)

    def _refresh_allocation(self) -> int:
        """Bring the allocator's states up to date; returns how many
        jobs are active.

        Recomputes only jobs dirtied since the last solve, unless the
        beta value or the alpha history moved (an *epoch* bump). A beta
        move makes every cached state's derived floats suspect, and the
        sweep re-derives them lazily from the cached inputs, which is
        still far cheaper than re-reading the job structures. An
        alpha-only move can change only the jobs whose alpha is
        predicted (``_alpha_job_ids``; every other job's alpha is the
        constant 1.0) and whose name's history moved since the last
        epoch: re-deriving any other job would rebuild an equal state."""
        beta = self._beta()
        history = self.alpha_estimator.history_version
        jobs = self._jobs
        dirty = self._alloc_dirty_jobs
        if beta != self._alloc_beta:
            realpha = history != self._alloc_history
            for jr in jobs.values():
                self._refresh_job_state(jr, beta, realpha)
            self._alloc_beta = beta
            self._alloc_history = history
        else:
            for job_id in dirty:
                jr = jobs.get(job_id)
                if jr is not None:
                    self._refresh_job_state(jr, beta, realpha=False)
            if history != self._alloc_history:
                since = self._alloc_history
                name_version = self.alpha_estimator.name_version
                for job_id in self._alpha_job_ids:
                    jr = jobs[job_id]
                    if name_version(jr.job.name) > since:
                        self._refresh_job_state(jr, beta, realpha=True)
                self._alloc_history = history
        dirty.clear()
        return len(self._alloc)

    def _pick_machine(self, task: Task) -> Optional[int]:
        """Free machine for a copy: local replica holder if possible."""
        index = self.cluster.index
        free = index.bits  # mirrors Cluster.free_bits()
        for machine_id in task.preferred_machines:
            if free[machine_id]:
                return machine_id
        free_count = index.free_machine_count
        if not free_count:
            return None
        # Same entropy draw and same ascending-id selection order as
        # rng.choice(machines_with_free_slots()) on the scan-based path.
        return index.nth_free_machine(self._rng.randrange(free_count))

    # ------------------------------------------------------------- events ----

    def _admit_job(self, job: Job) -> _JobRuntime:
        """Shared arrival bookkeeping for every centralized-family plane:
        trace span, datastore placement, runtime creation, and reserving
        the job's slot in the incremental allocator (its position in the
        insertion order is fixed at arrival, however many events pass
        before the next solve)."""
        self._begin_job_span(job)
        if self.datastore is not None:
            self.datastore.place_job_inputs(job)
        jr = _JobRuntime(job, self.speculation_factory(), self)
        jr.activate_runnable_phases()
        jr.mark_changed()  # a new job is a change
        self._jobs[job.job_id] = jr
        if self.config.use_alpha and job.num_phases > 1:
            self._alpha_job_ids.add(job.job_id)
        self._alloc.reserve(job.job_id)
        self._alloc_dirty_jobs.add(job.job_id)
        if self._elastic is not None:
            # Demand-armed like the speculation check: the utilization
            # sampler re-arms only while jobs are active.
            self._elastic.ensure_sampling(self)
        return jr

    def _on_job_arrival(self, job: Job) -> None:
        self._admit_job(job)
        self._reschedule()
        self._ensure_spec_check()

    def _on_spec_check(self) -> None:
        self._spec_check_scheduled = False
        if not self._jobs:
            return
        self._reschedule()
        self._ensure_spec_check()

    def _launch_copy(self, jr: _JobRuntime, task: Task, speculative: bool) -> bool:
        machine_id = self._pick_machine(task)
        if machine_id is None:
            return False
        attempt = jr.view.attempts(task)
        slowdown = self.straggler_model.slowdown(
            self._rng, task, machine_id, attempt
        )
        local = True
        penalty = 1.0
        if self.datastore is not None:
            local = self.datastore.is_local(task, machine_id)
            penalty = self.datastore.duration_multiplier(task, machine_id)
        duration = task.size * slowdown * penalty
        self.ledger.launch(
            jr,
            task,
            machine_id,
            duration,
            speculative,
            local,
            self._on_copy_finish,
            jr,
        )
        jr.running_copies += 1
        if speculative:
            jr.running_speculative += 1
            self._running_spec_copies += 1
            self._spec_job_ids.add(jr.job.job_id)
        else:
            self._running_original_copies += 1
        task.state = TaskState.RUNNING
        self.cluster.acquire_slot(machine_id)
        return True

    def _release_copy(self, copy: TaskCopy, jr: _JobRuntime) -> None:
        """A killed or finished copy gives back its slot and its counts."""
        self.cluster.release_slot(copy.machine_id)
        jr.running_copies -= 1
        if copy.speculative:
            jr.running_speculative -= 1
            self._running_spec_copies -= 1
            if jr.running_speculative <= 0:
                self._spec_job_ids.discard(jr.job.job_id)
        else:
            self._running_original_copies -= 1

    def _kill_copy(self, copy: TaskCopy, jr: _JobRuntime) -> None:
        self.ledger.kill(copy, jr)
        self._release_copy(copy, jr)

    def _on_copy_finish(self, copy: TaskCopy, jr: _JobRuntime) -> None:
        won = self.ledger.finish(copy, jr)
        self._release_copy(copy, jr)
        if won:
            # Kill the losers of the race.
            for other in self.ledger.finish_task(jr.view, copy):
                self._kill_copy(other, jr)
            jr.discard_pending_id(copy.task.task_id)
            jr.activate_runnable_phases()
            # A won race is the one event that moves this job's
            # allocation inputs (remaining tasks, phase front, alpha).
            jr.alloc_dirty = True
            self._alloc_dirty_jobs.add(jr.job.job_id)
            if jr.job.is_complete:
                self._complete_job(jr)
        if self.blacklist_policy is not None:
            self._observe_blacklist(copy, jr)
        self._request_dispatch()

    def _request_dispatch(self) -> None:
        """Dispatch point after a completion event. Per-arrival planes
        reschedule immediately; the batch plane overrides this to defer
        work to its next periodic round."""
        self._reschedule()

    def _complete_job(self, jr: _JobRuntime) -> None:
        """Retire a completed job. Its copies are gone, so it has already
        left ``_spec_job_ids``; ``_alloc_dirty_jobs`` and ``_moved`` are
        read through ``_jobs`` and cleared by the next reschedule. The
        other id sets would keep it forever."""
        self.ledger.record_job_completion(jr.job, self.alpha_estimator)
        job_id = jr.job.job_id
        del self._jobs[job_id]
        self._alloc.remove(job_id)
        self._alpha_job_ids.discard(job_id)
        self._pending_job_ids.discard(job_id)
        self._spec_work.discard(job_id)
        self._spec_parked.discard(job_id)
        self._jobs_completed += 1

    # ------------------------------------------------ membership hooks ----

    @property
    def busy_slots(self) -> int:
        """Busy slots, as the elastic controller and the serving sampler
        read them."""
        return self.cluster.busy_slots

    def _requeue(self, task: Task, jr: _JobRuntime) -> None:
        if jr.requeue(task):
            task.state = TaskState.PENDING

    def _refresh_membership(self) -> None:
        """Membership changed the usable slot count; refresh the
        budgeted-speculation reservation, which is a fraction of it (a
        stale budget could otherwise exceed the shrunken cluster and
        starve original dispatch)."""
        if self.config.speculation_mode is SpeculationMode.BUDGETED:
            self._spec_budget = int(
                self.config.budget_fraction * self.cluster.total_slots
            )

    # ------------------------------------------------------------- elastic ----

    def _autoscale_add(self, count: int) -> int:
        """ADD_MACHINE: append ``count`` machines (O(log machines) each
        via the Fenwick append, no index rebuild) and dispatch onto the
        new capacity at this plane's dispatch point."""
        self.cluster.add_machine(count)
        self._refresh_membership()
        self._request_dispatch()
        return count

    def _autoscale_remove(self, count: int) -> int:
        """REMOVE_MACHINE: retire up to ``count`` machines (highest live
        ids first) through the eviction teardown."""
        removed = self._retire(count)
        if removed:
            self._request_dispatch()
        return removed

    # ----------------------------------------------------------- dispatch ----

    def _reschedule(self) -> None:
        """Recompute targets and dispatch.

        Every reschedule — arrival, copy completion, or the periodic
        straggler scan — dispatches originals and runs the speculation
        pass, ordered by the plane's speculation mode. The periodic scan
        exists so that speculation is re-evaluated while no other event
        fires, the way LATE/Mantri run as a monitor thread in real
        frameworks.
        """
        if not self._jobs:
            return
        obs = self.obs
        if obs is None:
            active = self._refresh_allocation()
        else:
            with obs.timers.phase("alloc.refresh"):
                active = self._refresh_allocation()
        if not active:
            return

        mode = self.config.speculation_mode
        total = self.cluster.total_slots
        if mode is SpeculationMode.BUDGETED:
            original_slots = total - self._spec_budget
        else:
            original_slots = total

        if obs is None:
            targets = self._alloc.allocate(original_slots)
        else:
            with obs.timers.phase("policy.allocate"):
                targets = self._alloc.allocate(original_slots)
        # Same insertion-order float sum the solve's regime test uses,
        # memoized per state version inside the allocator. Every cap is
        # at least its virtual size (max_useful >= ceil(vsize) in
        # _refresh_job_state) and rounding is monotone, so the float
        # sum never exceeds the exact integer cap sum: when the caps
        # fit, the run is capacity-rich without summing.
        alloc = self._alloc
        self.metrics.record_guideline_decision(
            constrained=alloc.cap_sum > total
            and alloc.virtual_size_sum() > total
        )

        # Coordinated mode may reclaim slots from over-target speculative
        # copies (killing a redundant copy loses no unique work) — this is
        # the "dynamically reallocate the slots" step of Fig. 2.
        if mode is SpeculationMode.INTEGRATED and self.config.preempt_speculative:
            self._preempt_excess_speculation(targets)
        self._moved.clear()

        if mode is SpeculationMode.INTEGRATED:
            # Originals within targets, then speculation within targets
            # (small jobs' speculation outranks big jobs' extra
            # originals — the coordination the paper argues for), then
            # work-conserving overflow.
            self._dispatch_originals(targets)
            self._dispatch_speculation(targets, pool_limit=None)
            self._dispatch_originals(targets=None)
        elif mode is SpeculationMode.BEST_EFFORT:
            # All originals first; speculation gets only leftover slots.
            self._dispatch_originals(targets)
            self._dispatch_originals(targets=None)
            self._dispatch_speculation(targets=None, pool_limit=None)
        else:  # BUDGETED
            # Originals may never enter the reserved pool, even when the
            # pool idles — the §3 strawman's defining waste.
            self._dispatch_originals(
                targets=None,
                original_limit=total - self._spec_budget,
            )
            self._dispatch_speculation(
                targets=None, pool_limit=self._spec_budget
            )

    def _preempt_excess_speculation(self, targets: Dict[int, int]) -> None:
        """Kill speculative copies of jobs running above their target.

        Victims are the youngest speculative copies (least work lost)
        that are not their task's only live copy: after an eviction or
        a shrink killed a task's original, its speculative copy carries
        the task alone, and killing it would lose the task. Original
        copies are never preempted. Only jobs in the incrementally
        tracked live-speculation set are visited — most reschedules
        have zero live speculative copies, and the old full-job sweep
        paid O(active jobs) to discover that. Iteration is in ascending
        job id, which is exactly the arrival-order walk
        ``list(self._jobs.items())`` did (job ids are assigned in
        arrival order), so kill order — and therefore every downstream
        RNG draw — is unchanged.

        When these targets and the last sweep's are both the caps the
        allocator returned unsolved, only the jobs in ``_moved`` (their
        running count or cap moved since that sweep) are visited: any
        other job still has the count and the target the last sweep
        left it with, so a visit would kill nothing."""
        alloc = self._alloc
        capped = targets is alloc.last_capped
        delta = capped and self._sweep_capped
        self._sweep_capped = capped
        spec_ids = self._spec_job_ids
        if not spec_ids:
            return
        if delta:
            spec_ids = self._moved & spec_ids
        # Collect the over-target jobs first and sort only those: most
        # reschedules find none. A kill touches only its own job's
        # counters, so filtering up front selects the same jobs and
        # excesses the sorted walk would.
        jobs = self._jobs
        over = []
        for job_id in spec_ids:
            jr = jobs.get(job_id)
            if jr is None or jr.running_speculative <= 0:
                continue
            excess = jr.running_copies - targets.get(job_id, 0)
            if excess > 0:
                over.append((job_id, excess))
        if not over:
            return
        now = self.sim.now
        for job_id, excess in sorted(over):
            jr = jobs[job_id]
            view = jr.view
            victims = view.live_speculative_copies()
            victims.sort(key=lambda c: c.elapsed(now))
            for victim in victims:
                if not excess:
                    break
                if view.num_live_copies(victim.task) > 1:
                    self._kill_copy(victim, jr)
                    excess -= 1

    def _dispatch_originals(
        self,
        targets: Optional[Dict[int, int]],
        original_limit: Optional[int] = None,
    ) -> None:
        """Launch first copies of pending tasks.

        With ``targets`` set, each job is bounded by its allocation; with
        ``targets=None`` the pass is work-conserving (any pending task may
        take a free slot). ``original_limit`` caps the total number of
        running original copies (budgeted-speculation pool fencing).

        Only jobs with a non-empty pending deque can be deficient, so the
        pass walks that set in dispatch order — the subsequence of the
        full order a filter over every active job would keep. Launches
        only shrink the set, so one ordering serves the whole pass.
        """
        pending_ids = self._pending_job_ids
        if not pending_ids:
            return
        k = self.config.locality_k_percent if self.policy.uses_virtual_sizes else 0.0
        jobs = self._jobs
        cluster = self.cluster
        index = cluster.index
        order = self._alloc.in_order(pending_ids)
        progress = True
        while progress and cluster.free_slots > 0:
            if (
                original_limit is not None
                and self._running_original_copies >= original_limit
            ):
                return
            progress = False
            deficient = [
                s
                for s in order
                if jobs[s.job_id].pending
                and (
                    targets is None
                    or jobs[s.job_id].running_copies < targets.get(s.job_id, 0)
                )
            ]
            if not deficient:
                break
            machine_id = index.first_free_machine()
            if machine_id is None:
                break

            def has_local(state: JobAllocationState) -> bool:
                return jobs[state.job_id].has_pending_local_to(machine_id)

            chosen = pick_job_with_locality(deficient, k, has_local)
            if chosen is None:
                break
            jr = jobs[chosen.job_id]
            task = jr.pop_pending(prefer_machine=machine_id)
            if task is None:
                continue
            if self._launch_copy(jr, task, speculative=False):
                progress = True

    def _dispatch_speculation(
        self,
        targets: Optional[Dict[int, int]],
        pool_limit: Optional[int],
    ) -> None:
        """Launch speculative copies, smallest jobs first.

        The pass visits only the work set ``_spec_work``: a job outside
        it is clean, unexpired and holds an evaluated empty candidate
        list, so its visit would neither restamp its throttle cache nor
        launch anything. A launch, kill or finish adds a job back
        (through the change feed), and so does the expiry of its stamp
        (popped from ``_spec_expiry``, whose entries are pushed whenever
        a visit restamps). A visited job leaves the set once it is in
        that no-op state; a job the early returns never reach stays.

        When ``targets`` are the caps the allocator returned unsolved, a
        job visited at its target whose cache is clean and unexpired
        afterwards also leaves, into ``_spec_parked``, whatever its
        list: until its count or its cap moves (the change feed returns
        it) or its stamp expires, a visit would only find it at target
        again. Any other targets return every parked job first. A cap
        move also returns a job that is not parked; its visit is then a
        no-op, as for any job outside the set.
        """
        cluster = self.cluster
        jobs = self._jobs
        work = self._spec_work
        park = targets is not None and targets is self._alloc.last_capped
        parked = self._spec_parked
        if parked and not park:
            work.update(parked)
            parked.clear()
        now = self.sim.now
        min_interval = self._spec_eval_min_interval
        # Float subtraction is monotone in the stamp, so the heap pops
        # exactly the stamps the per-job expiry test would accept.
        expiry = self._spec_expiry
        while expiry and now - expiry[0][0] >= min_interval:
            stamp, job_id = heappop(expiry)
            jr = jobs.get(job_id)
            if jr is not None and jr.spec_cache_time == stamp:
                work.add(job_id)
        if not work:
            return
        for state in self._alloc.in_order(work):
            job_id = state.job_id
            jr = jobs[job_id]
            if cluster.free_slots <= 0:
                return
            if pool_limit is not None and self._running_spec_copies >= pool_limit:
                return
            stamp = jr.spec_cache_time
            at_target = targets is not None and jr.running_copies >= targets.get(
                job_id, 0
            )
            if at_target:
                # At target: the candidate loop would launch nothing, so
                # only restamp the throttle cache and leave its list
                # owed — a later read evaluates it at the stamped time,
                # exactly as an eager scan here would have.
                jr.refresh_speculation_cache(now, min_interval)
                candidates = ()
            else:
                # Inlined cache fast path of
                # JobRuntime.speculation_candidates.
                candidates = jr.spec_candidates
                if (
                    candidates is None
                    or jr.spec_dirty
                    or now - stamp >= min_interval
                ):
                    candidates = jr.speculation_candidates(now, min_interval)
            if jr.spec_cache_time != stamp:
                heappush(expiry, (jr.spec_cache_time, job_id))
            for request in candidates:
                if cluster.free_slots <= 0:
                    return
                if (
                    pool_limit is not None
                    and self._running_spec_copies >= pool_limit
                ):
                    return
                if targets is not None and jr.running_copies >= targets.get(
                    job_id, 0
                ):
                    break
                if request.task.is_finished:
                    continue
                max_copies = jr.spec_policy.max_copies_per_task()
                if jr.view.num_live_copies(request.task) >= max_copies:
                    continue  # stale cached candidate
                self._launch_copy(jr, request.task, speculative=True)
            if not jr.spec_dirty and now - jr.spec_cache_time < min_interval:
                if jr.spec_candidates == []:
                    work.discard(job_id)
                elif at_target and park:
                    work.discard(job_id)
                    parked.add(job_id)
