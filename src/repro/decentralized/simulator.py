"""The decentralized cluster simulator.

Wires schedulers and workers together over a message layer with uniform
one-way delay, replays a trace, executes task copies against the straggler
model, and collects metrics. Control messages (probes, offers, replies)
pay the network delay; execution-state bookkeeping (copy start/finish,
kills) is applied synchronously to keep the event count tractable — the
protocol dynamics the paper studies (probe ratios, refusals, late binding)
all live on the delayed control path.

Scale-out notes (10k+-slot clusters):

* control messages destined for the same simulation tick are *batched*
  into one engine event, so a probe burst of ``k`` probes costs one heap
  push instead of ``k``. The batch is only extended while the engine's
  :meth:`~repro.simulation.engine.Simulator.sequence_marker` is
  unchanged — i.e. while provably nothing else has been scheduled — so
  delivery order is bit-identical to one-event-per-message;
* queued reservation requests are indexed per job
  (``job -> {worker: count}``), so job completion purges exactly the
  workers that hold requests instead of leaving tombstones for every
  worker to lazily scan past.

Blacklisting (§2.2): an optional
:class:`~repro.cluster.policy.BlacklistPolicy` observes copy
completions; eviction removes the worker from the probe sample pool,
drops its queued requests, kills its running copies through the ledger
(requeueing originals whose last copy died, with a fresh probe each),
and records the decision in a mirror :class:`~repro.cluster.cluster.
Cluster` whose ``apply_blacklist`` call rebuilds the shared
:class:`~repro.cluster.index.ClusterIndex` — the same substrate the
centralized plane uses. With no policy (the default) the probe/launch
path is untouched and replays are bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.elastic import AutoscalerPolicy, ElasticController
from repro.cluster.policy import BlacklistPolicy, evaluate_completion
from repro.decentralized.config import DecentralizedConfig
from repro.decentralized.scheduler import SchedulerAgent, SchedulerJob
from repro.decentralized.worker import Worker
from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator
from repro.metrics.collector import MetricsCollector, SimulationResult
from repro.obs import Obs
from repro.runtime import CopyLedger
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomSource
from repro.speculation.base import SpeculationPolicy
from repro.stragglers.model import StragglerModel
from repro.stragglers.progress import TaskCopy
from repro.workload.job import Job
from repro.workload.task import Task
from repro.workload.traces import Trace


class DecentralizedSimulator:
    """Simulates a trace under a decentralized scheduling policy.

    Parameters
    ----------
    num_workers:
        Worker machines (each with ``slots_per_worker`` slots).
    speculation:
        Factory for per-job speculation policies (LATE/Mantri/GRASS).
    trace:
        Jobs to replay.
    straggler_model:
        Per-copy slowdown generator.
    config:
        Protocol knobs; see :class:`DecentralizedConfig`.
    """

    def __init__(
        self,
        num_workers: int,
        speculation: Callable[[], SpeculationPolicy],
        trace: Trace,
        straggler_model: StragglerModel,
        config: Optional[DecentralizedConfig] = None,
        slots_per_worker: int = 1,
        random_source: Optional[RandomSource] = None,
        name: Optional[str] = None,
        blacklist_policy: Optional[BlacklistPolicy] = None,
        autoscaler: Optional[AutoscalerPolicy] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if slots_per_worker <= 0:
            raise ValueError("slots_per_worker must be positive")
        self.config = config or DecentralizedConfig()
        self.speculation_factory = speculation
        self.trace = trace
        self.straggler_model = straggler_model
        self.random_source = random_source or RandomSource(seed=0)
        self.rng = self.random_source.child("decentralized").rng
        # Observability handles must exist before workers/schedulers are
        # constructed below — they snapshot these attributes.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        self._counters = obs.counters if obs is not None else None

        self.sim = Simulator(obs=obs)
        self.metrics = MetricsCollector(
            scheduler_name=name or f"decentralized-{self.config.worker_policy.value}"
        )
        self.beta_estimator = OnlineBetaEstimator(
            default_beta=self.config.default_beta
        )
        self.alpha_estimator = AlphaEstimator(
            network_rate=self.config.network_rate
        )

        self.workers: List[Worker] = [
            Worker(worker_id=i, num_slots=slots_per_worker, sim=self)
            for i in range(num_workers)
        ]
        self.total_slots = num_workers * slots_per_worker
        self.schedulers: List[SchedulerAgent] = [
            SchedulerAgent(scheduler_id=i, sim=self)
            for i in range(self.config.num_schedulers)
        ]
        self._owner: Dict[int, SchedulerAgent] = {}
        self.ledger = CopyLedger(
            self.sim, self.metrics, self.beta_estimator, tracer=self._tracer
        )
        self._next_scheduler = 0
        self._active_jobs = 0
        self._spec_check_scheduled = False
        # job_id -> {worker_id: queued request count} (see module docs).
        self._request_holders: Dict[int, Dict[int, int]] = {}
        # One open control-message batch (destination tick + seq guard).
        self._message_delay = self.config.message_delay
        self._open_batch: Optional[List[Tuple[Callable[..., None], tuple]]] = None
        self._open_batch_time = 0.0
        self._open_batch_seq = -1
        self._metrics_result = self.metrics.result
        # Blacklisting: until the first eviction or shrink the sample
        # pool IS the worker list (same object — identical entropy
        # consumption); with no policy and no autoscaler no mirror
        # cluster exists and the hot paths pay one None check.
        self.blacklist_policy = blacklist_policy
        self._slots_per_worker = slots_per_worker
        self._sample_pool: List[Worker] = self.workers
        self._power_of_d = self.config.power_of_d
        self.cluster: Optional[Cluster] = None
        if blacklist_policy is not None or autoscaler is not None:
            # Mirror cluster: membership bookkeeping on the shared
            # substrate (blacklist flags, retirement, free-machine
            # index); its slots are never acquired.
            self.cluster = Cluster(
                num_machines=num_workers,
                slots_per_machine=slots_per_worker,
            )
        self._autoscaler = autoscaler
        self._elastic: Optional[ElasticController] = None
        if autoscaler is not None:
            self._elastic = ElasticController(
                engine=self.sim,
                policy=autoscaler,
                add_machines=self._autoscale_add,
                remove_machines=self._autoscale_remove,
                # O(live workers) per reactive sample — paid only on the
                # sampling cadence, never on the message hot path.
                busy_slots=lambda: sum(
                    w.busy_slots for w in self._sample_pool
                ),
                total_slots=lambda: self.total_slots,
                keep_sampling=lambda: self._active_jobs > 0,
                obs=obs,
            )

    # -- plumbing ----------------------------------------------------------

    def send(self, fn: Callable[..., None], *args) -> None:
        """Deliver a control message after the configured one-way delay.

        Consecutive sends targeting the same delivery tick coalesce into
        one engine event. The coalescing is order-preserving: the batch
        is extended only while the engine's sequence marker equals the
        value recorded right after the batch event was scheduled, which
        proves no other event was scheduled in between — so the messages
        would have occupied exactly those consecutive sequence slots
        anyway.
        """
        self._metrics_result.messages_sent += 1  # record_message(), inlined
        sim = self.sim
        # Engine internals (_now/_seq mirror .now/.sequence_marker()) are
        # read directly: this runs once per control message.
        time = sim._now + self._message_delay
        batch = self._open_batch
        counters = self._counters
        if (
            batch is not None
            and self._open_batch_time == time
            and sim._seq == self._open_batch_seq
        ):
            batch.append((fn, args))
            if counters is not None:
                counters.inc("msg.sent")
                counters.inc("msg.coalesced")
            return
        batch = [(fn, args)]
        self._open_batch = batch
        self._open_batch_time = time
        sim.schedule_at(time, self._deliver_batch, batch)
        self._open_batch_seq = sim._seq
        if counters is not None:
            counters.inc("msg.sent")
            counters.inc("msg.batches")

    def _deliver_batch(
        self, batch: List[Tuple[Callable[..., None], tuple]]
    ) -> None:
        if self._open_batch is batch:
            self._open_batch = None
        if len(batch) > 1:
            # Keep events_processed comparable with unbatched delivery.
            self.sim.credit_events(len(batch) - 1)
        for fn, args in batch:
            fn(*args)

    def sample_workers(self, count: int) -> List[Worker]:
        """Sample ``count`` distinct non-evicted workers (all, if fewer).

        With ``power_of_d == 1`` (the default) this is plain uniform
        sampling over the pool — without a blacklist policy the pool is
        the full worker list, the same object, so entropy use is
        unchanged. With ``power_of_d > 1`` the sampler draws ``d x
        count`` candidates uniformly and keeps the ``count``
        least-loaded (queue depth plus busy slots; ties keep the draw
        order, so the choice is deterministic given the draw).
        """
        pool = self._sample_pool
        if count >= len(pool):
            return list(pool)
        d = self._power_of_d
        if d == 1:
            return self.rng.sample(pool, count)
        candidates = self.rng.sample(pool, min(count * d, len(pool)))
        if len(candidates) <= count:
            return candidates
        order = sorted(
            range(len(candidates)),
            key=lambda i: (
                len(candidates[i].queue) + candidates[i].busy_slots,
                i,
            ),
        )
        return [candidates[i] for i in order[:count]]

    def gossip_for(self, job_id: int):
        """Latest gossip for a job, or None if it completed."""
        scheduler = self._owner.get(job_id)
        if scheduler is None:
            return None
        sj = scheduler.jobs.get(job_id)
        return sj.gossip if sj is not None else None

    def beta(self) -> float:
        if self.config.learn_beta:
            return self.beta_estimator.beta
        return self.config.default_beta

    # -- queued-request index ----------------------------------------------

    def note_request_queued(self, job_id: int, worker_id: int) -> None:
        holders = self._request_holders.setdefault(job_id, {})
        holders[worker_id] = holders.get(worker_id, 0) + 1

    def note_requests_removed(
        self, job_id: int, worker_id: int, count: int = 1
    ) -> None:
        holders = self._request_holders.get(job_id)
        if holders is None:
            return
        left = holders.get(worker_id, 0) - count
        if left > 0:
            holders[worker_id] = left
        else:
            holders.pop(worker_id, None)
            if not holders:
                del self._request_holders[job_id]

    def worker_holds_job(self, job_id: int, worker_id: int) -> bool:
        holders = self._request_holders.get(job_id)
        return holders is not None and worker_id in holders

    def _purge_job_requests(self, job_id: int) -> None:
        """Drop a completed job's queued requests from exactly the
        workers that hold them (O(holders), not O(workers))."""
        holders = self._request_holders.pop(job_id, None)
        if not holders:
            return
        workers = self.workers
        for worker_id in holders:
            workers[worker_id].drop_completed_job(job_id)

    # -- run ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationResult:
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
        if self.blacklist_policy is not None:
            result.machine_strikes = self.blacklist_policy.strike_totals()
        if self.obs is not None:
            result.obs = self.obs.report()

    def _on_job_arrival(self, job: Job) -> None:
        if self._tracer is not None:
            self._tracer.begin(
                "job",
                "job",
                ("job", job.job_id),
                self.sim.now,
                job=job.job_id,
                tasks=job.num_tasks,
            )
        scheduler = self.schedulers[self._next_scheduler]
        self._next_scheduler = (self._next_scheduler + 1) % len(self.schedulers)
        self._owner[job.job_id] = scheduler
        self._active_jobs += 1
        scheduler.submit_job(job)
        self._ensure_spec_check()
        if self._elastic is not None:
            self._elastic.ensure_sampling()

    def _ensure_spec_check(self) -> None:
        if self._spec_check_scheduled or self._active_jobs == 0:
            return
        self._spec_check_scheduled = True
        self.sim.schedule(
            self.config.speculation_check_interval, self._on_spec_check
        )

    def _on_spec_check(self) -> None:
        self._spec_check_scheduled = False
        if self._active_jobs == 0:
            return
        for scheduler in self.schedulers:
            scheduler.on_spec_check()
        self._ensure_spec_check()

    # -- execution (data plane) ----------------------------------------------

    def start_copy(self, worker: Worker, task: Task, speculative: bool) -> None:
        """Bind an accepted task to the worker's slot and run it."""
        scheduler = self._owner.get(task.job_id)
        sj = scheduler.jobs.get(task.job_id) if scheduler else None
        if worker.evicted:
            # The accept raced the eviction: decline the bind, release
            # the eager occupancy reservation, and requeue a task that
            # has no live copy left to carry it.
            if sj is not None:
                scheduler.on_copy_gone(sj)
                if (
                    not task.is_finished
                    and sj.view.num_live_copies(task) == 0
                ):
                    scheduler.requeue_task(sj, task)
            return
        if sj is None or task.is_finished:
            # Raced with completion between accept and arrival; release the
            # eager occupancy reservation made at accept time.
            if sj is not None:
                scheduler.on_copy_gone(sj)
            worker.maybe_start_episode()
            return
        attempt = sj.view.attempts(task)
        slowdown = self.straggler_model.slowdown(
            self.rng, task, worker.worker_id, attempt
        )
        duration = task.size * slowdown
        copy = self.ledger.launch(
            sj.view,
            task,
            worker.worker_id,
            duration,
            speculative,
            True,
            self._on_copy_finish,
        )
        worker.bind_copy(copy)
        scheduler.on_copy_bound(sj)

    def _on_copy_finish(self, copy: TaskCopy) -> None:
        self.ledger.settle_finished(copy)
        task = copy.task
        scheduler = self._owner.get(task.job_id)
        sj = scheduler.jobs.get(task.job_id) if scheduler else None
        # Freeing the worker's slot may start a new selection episode;
        # that must observe the pre-finish view/gossip, exactly as the
        # pre-ledger simulator did, so the view update comes after.
        self.workers[copy.machine_id].release_copy(copy)
        won = self.ledger.record_finish(copy)
        if sj is None:
            return
        sj.view.remove_copy(copy)
        scheduler.on_copy_gone(sj)

        if won:
            siblings = self.ledger.finish_task(sj.view, copy)
            scheduler.on_task_finished(sj, task)
            for sibling in siblings:
                self._kill_copy(sibling, scheduler, sj)
            if sj.job.is_complete:
                self._complete_job(scheduler, sj)
        if self.blacklist_policy is not None:
            self._observe_blacklist(copy, sj)

    def _kill_copy(
        self,
        copy: TaskCopy,
        scheduler: SchedulerAgent,
        sj: SchedulerJob,
    ) -> None:
        self.ledger.kill(copy, sj.view)
        scheduler.on_copy_gone(sj)
        # The kill travels to the worker as a control message.
        self.metrics.record_message()
        self.workers[copy.machine_id].release_copy(copy)

    def _complete_job(self, scheduler: SchedulerAgent, sj: SchedulerJob) -> None:
        job = sj.job
        self.ledger.record_job_completion(job, self.alpha_estimator)
        scheduler.complete_job(sj)
        self._purge_job_requests(job.job_id)
        self._owner.pop(job.job_id, None)
        self._active_jobs -= 1

    # -- blacklisting (probe/launch path) ------------------------------------

    def _observe_blacklist(self, copy: TaskCopy, sj: SchedulerJob) -> None:
        """Feed one completion to the eviction policy and act on it."""
        obs = self.obs
        if obs is None:
            reinstated, evict = evaluate_completion(
                self.blacklist_policy, self.sim.now, copy, sj.view
            )
        else:
            with obs.timers.phase("policy.evaluate_completion"):
                reinstated, evict = evaluate_completion(
                    self.blacklist_policy, self.sim.now, copy, sj.view
                )
        for worker_id in reinstated:
            self._reinstate_worker(worker_id)
        if evict is not None:
            self._evict_worker(evict)

    def _evict_worker(self, worker_id: int) -> None:
        """Blacklist a worker mid-run: drop it from the probe pool, kill
        its running copies, and requeue tasks whose last copy died."""
        worker = self.workers[worker_id]
        victims = worker.evict()
        # Blacklist + pool refresh BEFORE requeueing, so the replacement
        # probes sent below can never target the worker being evicted.
        self.cluster.blacklist.add(worker_id)
        self._apply_blacklist()
        orphaned: List[Tuple[SchedulerAgent, SchedulerJob, Task]] = []
        for copy in victims:
            scheduler = self._owner.get(copy.task.job_id)
            sj = scheduler.jobs.get(copy.task.job_id) if scheduler else None
            if sj is None:
                continue
            self._kill_copy(copy, scheduler, sj)
            if not copy.task.is_finished:
                orphaned.append((scheduler, sj, copy.task))
        for scheduler, sj, task in orphaned:
            # A task whose ONLY live copy died here is requeued even if
            # that copy was speculative — e.g. its original fell to an
            # earlier eviction while the speculative sibling carried it.
            if sj.view.num_live_copies(task) == 0:
                scheduler.requeue_task(sj, task)
        self.metrics.record_eviction()
        obs = self.obs
        if obs is not None:
            obs.counters.inc("blacklist.evictions")
            if obs.tracer is not None:
                obs.tracer.instant(
                    "blacklist", "evict", self.sim.now, machine=worker_id,
                    victims=len(victims),
                )

    def _reinstate_worker(self, worker_id: int) -> None:
        """Probation served: the worker rejoins the probe pool."""
        self.workers[worker_id].reinstate()
        self.cluster.blacklist.remove(worker_id)
        self._apply_blacklist()
        self.metrics.record_reinstatement()
        obs = self.obs
        if obs is not None:
            obs.counters.inc("blacklist.reinstatements")
            if obs.tracer is not None:
                obs.tracer.instant(
                    "blacklist", "reinstate", self.sim.now, machine=worker_id
                )

    def _apply_blacklist(self) -> None:
        """Propagate the blacklist through the shared cluster substrate
        (machine flags + index rebuild), refresh the probe sample pool,
        and resize the schedulers' ε-fair floors."""
        obs = self.obs
        if obs is None:
            self._rebuild_cluster_state()
        else:
            with obs.timers.phase("index.rebuild"):
                self._rebuild_cluster_state()

    def _rebuild_cluster_state(self) -> None:
        cluster = self.cluster
        cluster.apply_blacklist()
        workers = self.workers
        self._sample_pool = [
            workers[machine_id]
            for machine_id in cluster.index.free_machine_ids()
        ]
        total = len(self._sample_pool) * self._slots_per_worker
        # Live capacity, kept current so external probes (the serving
        # driver's utilization sampler) never count evicted workers.
        self.total_slots = total
        for scheduler in self.schedulers:
            scheduler.on_cluster_resize(total)

    # -- elastic membership (autoscaler resizes) ------------------------------

    def _refresh_membership(self, delta: int) -> None:
        """Incremental counterpart of :meth:`_rebuild_cluster_state` for
        an autoscaler resize of ``delta`` workers, in O(|delta|).

        The probe pool is always the ascending list of live,
        non-blacklisted worker ids. Growth appends ids above all of
        them; a shrink retires the highest live, non-blacklisted ids —
        exactly the pool's tail. So the pool is extended or truncated,
        never rebuilt, and the derived state (live capacity, ε-fair
        floors) follows its length."""
        pool = self._sample_pool
        workers = self.workers
        if pool is workers:
            # Until the first shrink or blacklist pass the pool IS the
            # worker list, which already holds any appended workers. A
            # shrink copies it first so truncation never drops workers;
            # rng.sample sees the same order and length either way.
            if delta < 0:
                pool = self._sample_pool = workers[:delta]
        elif delta > 0:
            pool.extend(workers[-delta:])
        else:
            del pool[delta:]
        total = len(pool) * self._slots_per_worker
        self.total_slots = total
        for scheduler in self.schedulers:
            scheduler.on_cluster_resize(total)

    def _autoscale_add(self, count: int) -> int:
        """ADD_MACHINE: grow the worker set. New workers take fresh ids
        (append-only, so per-id state everywhere stays valid) and join
        the probe sample pool immediately."""
        for _ in range(count):
            worker_id = len(self.workers)
            self.workers.append(
                Worker(
                    worker_id=worker_id,
                    num_slots=self._slots_per_worker,
                    sim=self,
                )
            )
            self.cluster.add_machine(num_slots=self._slots_per_worker)
        self._refresh_membership(count)
        return count

    def _autoscale_remove(self, count: int) -> int:
        """REMOVE_MACHINE: retire up to ``count`` workers (highest live
        ids first) through the eviction teardown — kill running copies,
        requeue originals whose last copy died with a fresh probe each —
        but via machine *retirement*, which no later blacklist pass can
        undo. Clamped so at least ``min_machines`` workers stay live."""
        cluster = self.cluster
        machine_ids = cluster.machines_to_retire(
            count, self._autoscaler.min_machines
        )
        if not machine_ids:
            return 0
        orphaned: List[Tuple[SchedulerAgent, SchedulerJob, Task]] = []
        for machine_id in machine_ids:
            victims = self.workers[machine_id].evict()
            cluster.remove_machine(machine_id)
            for copy in victims:
                scheduler = self._owner.get(copy.task.job_id)
                sj = scheduler.jobs.get(copy.task.job_id) if scheduler else None
                if sj is None:
                    continue
                self._kill_copy(copy, scheduler, sj)
                if not copy.task.is_finished:
                    orphaned.append((scheduler, sj, copy.task))
        # Pool refresh BEFORE requeueing (same ordering as eviction), so
        # the replacement probes can never target a retired worker.
        self._refresh_membership(-len(machine_ids))
        for scheduler, sj, task in orphaned:
            if sj.view.num_live_copies(task) == 0:
                scheduler.requeue_task(sj, task)
        return len(machine_ids)
