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
  targets are memoized while nothing changed — see
  :class:`repro.core.incremental.IncrementalAllocator`. The property
  tests hold the cache equal to a from-scratch rebuild after every
  event;
* trace arrivals are bulk-inserted with
  :meth:`~repro.simulation.engine.Simulator.schedule_many`;
* the speculation-preemption sweep enumerates victims from the view's
  live-speculative index instead of walking every live copy, and only
  visits jobs in the incrementally tracked live-speculation set.

Blacklisting (§2.2): an optional
:class:`~repro.cluster.policy.BlacklistPolicy` observes every copy
completion; when it evicts a machine the simulator kills the machine's
running copies through the ledger, requeues originals whose last copy
died, and applies the blacklist to the cluster (which rebuilds the
free-slot index). With no policy (the default) the whole path is a
single ``is not None`` check per completion — replays are bit-identical
to the policy-free simulator.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.policies import CentralizedPolicy
from repro.cluster.cluster import Cluster
from repro.cluster.datastore import DataStore
from repro.cluster.elastic import AutoscalerPolicy, ElasticController
from repro.cluster.policy import BlacklistPolicy, evaluate_completion
from repro.core.allocation import JobAllocationState
from repro.core.incremental import IncrementalAllocator
from repro.core.locality import pick_job_with_locality
from repro.core.virtual_size import virtual_size
from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator
from repro.metrics.collector import MetricsCollector, SimulationResult
from repro.obs import Obs
from repro.runtime import CopyLedger, LocalityJobRuntime
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomSource
from repro.speculation.base import SpeculationPolicy
from repro.stragglers.model import StragglerModel
from repro.stragglers.progress import TaskCopy
from repro.workload.job import Job
from repro.workload.task import Task, TaskState
from repro.workload.traces import Trace


class _JobRuntime(LocalityJobRuntime):
    """Centralized per-job state: the shared runtime core with locality
    buckets, plus running-copy counters the dispatcher's deficit math
    reads."""

    __slots__ = ("running_copies", "running_speculative")

    def __init__(self, job: Job, spec_policy: SpeculationPolicy) -> None:
        super().__init__(job, spec_policy)
        self.running_copies = 0
        self.running_speculative = 0


class CentralizedSimulator:
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
        "speculation_factory",
        "trace",
        "straggler_model",
        "config",
        "datastore",
        "random_source",
        "sim",
        "metrics",
        "beta_estimator",
        "alpha_estimator",
        "ledger",
        "_rng",
        "_jobs",
        "_alloc",
        "_alloc_beta",
        "_alloc_history",
        "_alloc_dirty_jobs",
        "_spec_job_ids",
        "_spec_check_scheduled",
        "_jobs_completed",
        "_total_slots",
        "_spec_budget",
        "_running_spec_copies",
        "_running_original_copies",
        "_spec_eval_min_interval",
        "_blacklist_policy",
        "_autoscaler",
        "_elastic",
        "obs",
        "_tracer",
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
        self.cluster = cluster
        self.policy = policy
        self.speculation_factory = speculation
        self.trace = trace
        self.straggler_model = straggler_model
        self.config = config or CentralizedConfig()
        self.datastore = datastore
        self.random_source = random_source or RandomSource(seed=0)
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None

        self.sim = Simulator(obs=obs)
        self.metrics = MetricsCollector(scheduler_name=policy.name)
        self.beta_estimator = OnlineBetaEstimator(
            default_beta=self.config.default_beta
        )
        self.alpha_estimator = AlphaEstimator(
            network_rate=self.config.network_rate
        )
        self.ledger = CopyLedger(
            self.sim, self.metrics, self.beta_estimator, tracer=self._tracer
        )

        self._rng = self.random_source.child("centralized").rng
        self._jobs: Dict[int, _JobRuntime] = {}
        # Incremental allocation engine: cached per-job states, the
        # delta-maintained dispatch order, and the targets memo.
        self._alloc = IncrementalAllocator(policy)
        self._alloc_beta: Optional[float] = None  # beta states were built at
        self._alloc_history = -1  # alpha history version ditto
        self._alloc_dirty_jobs: set = set()  # job ids needing recompute
        self._spec_job_ids: set = set()  # jobs with live speculative copies
        self._spec_check_scheduled = False
        self._jobs_completed = 0

        self._total_slots = cluster.total_slots
        self._spec_budget = 0
        if self.config.speculation_mode is SpeculationMode.BUDGETED:
            self._spec_budget = int(
                self.config.budget_fraction * self._total_slots
            )
        self._running_spec_copies = 0
        self._running_original_copies = 0
        self._spec_eval_min_interval = self.config.spec_eval_min_interval
        self._blacklist_policy = blacklist_policy
        self._autoscaler = autoscaler
        self._elastic: Optional[ElasticController] = None
        if autoscaler is not None:
            self._elastic = ElasticController(
                engine=self.sim,
                policy=autoscaler,
                add_machines=self._autoscale_add,
                remove_machines=self._autoscale_remove,
                busy_slots=lambda: self.cluster.busy_slots,
                total_slots=lambda: self.cluster.total_slots,
                keep_sampling=lambda: bool(self._jobs),
                obs=obs,
            )

    # ------------------------------------------------------------------ run --

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Replay the whole trace; returns the metrics."""
        self.cluster.reset()
        self.sim.schedule_many(
            (
                (job.arrival_time, self._on_job_arrival, (job,))
                for job in self.trace
            ),
            absolute=True,
        )
        if self._elastic is not None:
            self._elastic.prime()
        self.sim.run(until=until)
        self._finalize_diagnostics()
        return self.metrics.result

    def _finalize_diagnostics(self) -> None:
        result = self.metrics.result
        if self._blacklist_policy is not None:
            result.machine_strikes = self._blacklist_policy.strike_totals()
        if self.obs is not None:
            result.obs = self.obs.report()

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
        self._alloc.upsert(
            JobAllocationState(
                job_id=job.job_id,
                virtual_size=vsize,
                remaining_tasks=remaining,
                weight=job.weight,
                priority_size=priority,
                max_useful_slots=max_useful,
            )
        )

    def _refresh_allocation_states(self) -> List[JobAllocationState]:
        """The active jobs' allocation states, in arrival order.

        Recomputes only jobs dirtied since the last solve, unless the
        beta value or the alpha history moved (an *epoch* bump) — then
        every cached state's derived floats are suspect and the sweep
        re-derives them lazily from the cached inputs, which is still
        far cheaper than re-reading the job structures."""
        beta = self._beta()
        history = self.alpha_estimator.history_version
        if beta != self._alloc_beta or history != self._alloc_history:
            realpha = history != self._alloc_history
            for jr in self._jobs.values():
                self._refresh_job_state(jr, beta, realpha)
            self._alloc_beta = beta
            self._alloc_history = history
            self._alloc_dirty_jobs.clear()
        elif self._alloc_dirty_jobs:
            jobs = self._jobs
            for job_id in self._alloc_dirty_jobs:
                jr = jobs.get(job_id)
                if jr is not None:
                    self._refresh_job_state(jr, beta, realpha=False)
            self._alloc_dirty_jobs.clear()
        return self._alloc.states()

    def _pick_machine(self, task: Task) -> Optional[int]:
        """Free machine for a copy: local replica holder if possible."""
        machines = self.cluster.machines
        for machine_id in task.preferred_machines:
            if machines[machine_id].has_free_slot:
                return machine_id
        index = self.cluster.index
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
        if self._tracer is not None:
            self._tracer.begin(
                "job",
                "job",
                ("job", job.job_id),
                self.sim.now,
                job=job.job_id,
                tasks=job.num_tasks,
            )
        if self.datastore is not None:
            self.datastore.place_job_inputs(job)
        jr = _JobRuntime(job, self.speculation_factory())
        jr.activate_runnable_phases()
        self._jobs[job.job_id] = jr
        self._alloc.reserve(job.job_id)
        self._alloc_dirty_jobs.add(job.job_id)
        if self._elastic is not None:
            # Demand-armed like the speculation check: the utilization
            # sampler re-arms only while jobs are active.
            self._elastic.ensure_sampling()
        return jr

    def _on_job_arrival(self, job: Job) -> None:
        self._admit_job(job)
        self._reschedule()
        self._ensure_spec_check()

    def _ensure_spec_check(self) -> None:
        if self._spec_check_scheduled or not self._jobs:
            return
        self._spec_check_scheduled = True
        self.sim.schedule(
            self.config.speculation_check_interval, self._on_spec_check
        )

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
            jr.view,
            task,
            machine_id,
            duration,
            speculative,
            local,
            self._on_copy_finish,
            jr,
        )
        jr.spec_dirty = True
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

    def _kill_copy(self, copy: TaskCopy, jr: _JobRuntime) -> None:
        self.ledger.kill(copy, jr.view)
        self.cluster.release_slot(copy.machine_id)
        jr.spec_dirty = True
        jr.running_copies -= 1
        if copy.speculative:
            jr.running_speculative -= 1
            self._running_spec_copies -= 1
            if jr.running_speculative <= 0:
                self._spec_job_ids.discard(jr.job.job_id)
        else:
            self._running_original_copies -= 1

    def _on_copy_finish(self, copy: TaskCopy, jr: _JobRuntime) -> None:
        self.cluster.release_slot(copy.machine_id)
        won = self.ledger.finish(copy, jr.view)
        jr.spec_dirty = True
        jr.running_copies -= 1
        if copy.speculative:
            jr.running_speculative -= 1
            self._running_spec_copies -= 1
            if jr.running_speculative <= 0:
                self._spec_job_ids.discard(jr.job.job_id)
        else:
            self._running_original_copies -= 1

        if won:
            # Kill the losers of the race.
            for other in self.ledger.finish_task(jr.view, copy):
                self._kill_copy(other, jr)
            jr.discard_pending_id(copy.task.task_id)
            jr.activate_runnable_phases()
            # A won race is the one event that moves this job's
            # allocation inputs (remaining tasks, phase front, alpha).
            jr.alloc_dirty = True
            if jr.job.is_complete:
                self._complete_job(jr)
            else:
                self._alloc_dirty_jobs.add(jr.job.job_id)
        if self._blacklist_policy is not None:
            self._observe_blacklist(copy, jr)
        self._request_dispatch()

    def _request_dispatch(self) -> None:
        """Dispatch point after a completion event. Per-arrival planes
        reschedule immediately; the batch plane overrides this to defer
        work to its next periodic round."""
        self._reschedule()

    def _complete_job(self, jr: _JobRuntime) -> None:
        self.ledger.record_job_completion(jr.job, self.alpha_estimator)
        job_id = jr.job.job_id
        del self._jobs[job_id]
        self._alloc.remove(job_id)
        self._alloc_dirty_jobs.discard(job_id)
        self._spec_job_ids.discard(job_id)
        self._jobs_completed += 1

    # ---------------------------------------------------------- blacklist ----

    def _observe_blacklist(self, copy: TaskCopy, jr: _JobRuntime) -> None:
        """Feed one completion to the eviction policy and act on it."""
        obs = self.obs
        if obs is None:
            reinstated, evict = evaluate_completion(
                self._blacklist_policy, self.sim.now, copy, jr.view
            )
        else:
            with obs.timers.phase("policy.evaluate_completion"):
                reinstated, evict = evaluate_completion(
                    self._blacklist_policy, self.sim.now, copy, jr.view
                )
        for machine_id in reinstated:
            self._reinstate_machine(machine_id)
        if evict is not None:
            self._evict_machine(evict)

    def _machine_victims(self, machine_ids) -> Dict[int, List[tuple]]:
        """``(copy, runtime)`` pairs running on each of ``machine_ids``,
        bucketed by machine in one walk over every live copy. Each
        bucket keeps the walk's order — the order a scan for that one
        machine would produce (kills never reorder surviving copies)."""
        buckets: Dict[int, List[tuple]] = {m: [] for m in machine_ids}
        get = buckets.get
        for jr in self._jobs.values():
            for copies in jr.view.copies_by_task.values():
                for c in copies:
                    bucket = get(c.machine_id)
                    if bucket is not None:
                        bucket.append((c, jr))
        return buckets

    def _kill_victims(self, victims: List[tuple]) -> None:
        """Kill ``victims`` and requeue tasks whose last copy died."""
        orphaned: List[tuple] = []
        for c, jr in victims:
            self._kill_copy(c, jr)
            if not c.task.is_finished:
                orphaned.append((c.task, jr))
        for task, jr in orphaned:
            # Only requeue when no sibling copy survived the kill —
            # a live copy elsewhere still carries the task.
            if jr.view.num_live_copies(task) == 0 and jr.requeue(task):
                task.state = TaskState.PENDING

    def _kill_machine_copies(self, machine_id: int) -> int:
        """Kill every copy running on ``machine_id`` and requeue tasks
        whose last copy died (blacklist eviction); returns the victim
        count."""
        victims = self._machine_victims((machine_id,))[machine_id]
        self._kill_victims(victims)
        return len(victims)

    def _evict_machine(self, machine_id: int) -> None:
        """Blacklist ``machine_id`` mid-run: kill its running copies,
        requeue originals whose last copy died, and rebuild the index."""
        cluster = self.cluster
        cluster.blacklist.add(machine_id)
        num_victims = self._kill_machine_copies(machine_id)
        self._apply_blacklist()  # machine flags + totals + index rebuild
        self._resize_slot_pool()
        self.metrics.record_eviction()
        obs = self.obs
        if obs is not None:
            obs.counters.inc("blacklist.evictions")
            if obs.tracer is not None:
                obs.tracer.instant(
                    "blacklist", "evict", self.sim.now, machine=machine_id,
                    victims=num_victims,
                )

    def _reinstate_machine(self, machine_id: int) -> None:
        """Probation served: return the machine's slots to the pool."""
        cluster = self.cluster
        cluster.blacklist.remove(machine_id)
        self._apply_blacklist()
        self._resize_slot_pool()
        self.metrics.record_reinstatement()
        obs = self.obs
        if obs is not None:
            obs.counters.inc("blacklist.reinstatements")
            if obs.tracer is not None:
                obs.tracer.instant(
                    "blacklist", "reinstate", self.sim.now, machine=machine_id
                )

    def _apply_blacklist(self) -> None:
        """Apply blacklist changes to the cluster (index rebuild), timed
        as ``index.rebuild`` when observability is on."""
        obs = self.obs
        if obs is None:
            self.cluster.apply_blacklist()
        else:
            with obs.timers.phase("index.rebuild"):
                self.cluster.apply_blacklist()

    # ------------------------------------------------------------- elastic ----

    def _autoscale_add(self, count: int) -> int:
        """ADD_MACHINE: append ``count`` machines (O(log machines) each
        via the Fenwick append — no index rebuild) and dispatch onto the
        new capacity at this plane's dispatch point."""
        cluster = self.cluster
        num_slots = cluster.machines[0].num_slots
        for _ in range(count):
            cluster.add_machine(num_slots=num_slots)
        self._resize_slot_pool()
        self._request_dispatch()
        return count

    def _autoscale_remove(self, count: int) -> int:
        """REMOVE_MACHINE: retire up to ``count`` machines (highest live
        ids first), reusing the eviction kill→requeue path for their
        running copies. Clamped so at least ``min_machines`` stay live.
        One walk over the live copies finds every retiring machine's
        victims."""
        cluster = self.cluster
        machine_ids = cluster.machines_to_retire(
            count, self._autoscaler.min_machines
        )
        if not machine_ids:
            return 0
        victims = self._machine_victims(machine_ids)
        for machine_id in machine_ids:
            # Retire first (the machine leaves the index and the totals
            # in O(log machines)), then kill its copies: each kill's
            # release_slot refreshes a bit that stays 0 for a retired
            # machine, so no new work lands on it mid-teardown. Requeue
            # stays per machine, as in eviction.
            cluster.remove_machine(machine_id)
            self._kill_victims(victims[machine_id])
        self._resize_slot_pool()
        self._request_dispatch()
        return len(machine_ids)

    def _resize_slot_pool(self) -> None:
        """Eviction/reinstatement changed the usable slot count; refresh
        the cached total AND the budgeted-speculation reservation, which
        is a fraction of it (a stale budget could otherwise exceed the
        shrunken cluster and starve original dispatch)."""
        self._total_slots = self.cluster.total_slots
        if self.config.speculation_mode is SpeculationMode.BUDGETED:
            self._spec_budget = int(
                self.config.budget_fraction * self._total_slots
            )

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
            states = self._refresh_allocation_states()
        else:
            with obs.timers.phase("alloc.refresh"):
                states = self._refresh_allocation_states()
        if not states:
            return

        mode = self.config.speculation_mode
        if mode is SpeculationMode.BUDGETED:
            original_slots = self._total_slots - self._spec_budget
        else:
            original_slots = self._total_slots

        if obs is None:
            targets = self._alloc.allocate(original_slots)
        else:
            with obs.timers.phase("policy.allocate"):
                targets = self._alloc.allocate(original_slots)
        # Same insertion-order float sum the solve's regime test uses,
        # memoized per state version inside the allocator.
        self.metrics.record_guideline_decision(
            constrained=self._alloc.virtual_size_sum() > self._total_slots
        )
        order = self._alloc.ordered()

        # Coordinated mode may reclaim slots from over-target speculative
        # copies (killing a redundant copy loses no unique work) — this is
        # the "dynamically reallocate the slots" step of Fig. 2.
        if mode is SpeculationMode.INTEGRATED and self.config.preempt_speculative:
            self._preempt_excess_speculation(targets)

        if mode is SpeculationMode.INTEGRATED:
            # Originals within targets, then speculation within targets
            # (small jobs' speculation outranks big jobs' extra
            # originals — the coordination the paper argues for), then
            # work-conserving overflow.
            self._dispatch_originals(order, targets)
            self._dispatch_speculation(order, targets, pool_limit=None)
            self._dispatch_originals(order, targets=None)
        elif mode is SpeculationMode.BEST_EFFORT:
            # All originals first; speculation gets only leftover slots.
            self._dispatch_originals(order, targets)
            self._dispatch_originals(order, targets=None)
            self._dispatch_speculation(order, targets=None, pool_limit=None)
        else:  # BUDGETED
            # Originals may never enter the reserved pool, even when the
            # pool idles — the §3 strawman's defining waste.
            self._dispatch_originals(
                order,
                targets=None,
                original_limit=self._total_slots - self._spec_budget,
            )
            self._dispatch_speculation(
                order, targets=None, pool_limit=self._spec_budget
            )

    def _preempt_excess_speculation(self, targets: Dict[int, int]) -> None:
        """Kill speculative copies of jobs running above their target.

        Victims are the youngest speculative copies (least work lost).
        Original copies are never preempted. Only jobs in the
        incrementally tracked live-speculation set are visited — most
        reschedules have zero live speculative copies, and the old
        full-job sweep paid O(active jobs) to discover that. Iteration
        is in ascending job id, which is exactly the arrival-order walk
        ``list(self._jobs.items())`` did (job ids are assigned in
        arrival order), so kill order — and therefore every downstream
        RNG draw — is unchanged."""
        spec_ids = self._spec_job_ids
        if not spec_ids:
            return
        now = self.sim.now
        jobs = self._jobs
        for job_id in sorted(spec_ids):
            jr = jobs.get(job_id)
            if jr is None or jr.running_speculative <= 0:
                continue
            excess = jr.running_copies - targets.get(job_id, 0)
            if excess <= 0:
                continue
            victims = jr.view.live_speculative_copies()
            victims.sort(key=lambda c: c.elapsed(now))
            for victim in victims[: min(excess, len(victims))]:
                self._kill_copy(victim, jr)

    def _dispatch_originals(
        self,
        order: List[JobAllocationState],
        targets: Optional[Dict[int, int]],
        original_limit: Optional[int] = None,
    ) -> None:
        """Launch first copies of pending tasks.

        With ``targets`` set, each job is bounded by its allocation; with
        ``targets=None`` the pass is work-conserving (any pending task may
        take a free slot). ``original_limit`` caps the total number of
        running original copies (budgeted-speculation pool fencing).
        """
        k = self.config.locality_k_percent if self.policy.uses_virtual_sizes else 0.0
        jobs = self._jobs
        cluster = self.cluster
        index = cluster.index
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
                if s.job_id in jobs
                and jobs[s.job_id].pending
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

    def _job_speculation_candidates(self, jr: _JobRuntime) -> list:
        return jr.speculation_candidates(
            self.sim.now, self._spec_eval_min_interval
        )

    def _dispatch_speculation(
        self,
        order: List[JobAllocationState],
        targets: Optional[Dict[int, int]],
        pool_limit: Optional[int],
    ) -> None:
        cluster = self.cluster
        jobs = self._jobs
        now = self.sim.now
        min_interval = self._spec_eval_min_interval
        for state in order:
            jr = jobs.get(state.job_id)
            if jr is None:
                continue
            if cluster.free_slots <= 0:
                return
            if pool_limit is not None and self._running_spec_copies >= pool_limit:
                return
            # Inlined cache fast path of JobRuntime.speculation_candidates
            # — this sweep visits every active job per reschedule and the
            # throttle hits far more often than it misses.
            if jr.spec_dirty or now - jr.spec_cache_time >= min_interval:
                candidates = jr.speculation_candidates(now, min_interval)
            else:
                candidates = jr.spec_candidates
            for request in candidates:
                if cluster.free_slots <= 0:
                    return
                if (
                    pool_limit is not None
                    and self._running_spec_copies >= pool_limit
                ):
                    return
                if targets is not None and jr.running_copies >= targets.get(
                    state.job_id, 0
                ):
                    break
                if request.task.is_finished:
                    continue
                max_copies = jr.spec_policy.max_copies_per_task()
                if jr.view.num_live_copies(request.task) >= max_copies:
                    continue  # stale cached candidate
                self._launch_copy(jr, request.task, speculative=True)
