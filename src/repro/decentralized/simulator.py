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
  into one engine event, so a probe burst of ``k`` probes costs one lane
  entry instead of ``k``. The batch is only extended while the engine's
  :meth:`~repro.simulation.engine.Simulator.sequence_marker` is
  unchanged — i.e. while provably nothing else has been scheduled — so
  delivery order is bit-identical to one-event-per-message. Batches go
  to the engine's FIFO lane (:meth:`~repro.simulation.engine.Simulator.post`),
  not its heap: every message pays the same constant delay, so delivery
  times arrive in send order, and a batch is never cancelled;
* queued reservation requests are indexed per job: ``job -> [worker
  id, ...]``, appended to each time a request of the job is queued and
  never trimmed, so it holds at most as many ids as the job queued
  requests. Job completion purges each listed worker once and frees
  the list, instead of leaving tombstones for every worker to lazily
  scan past. A worker that consumed or dropped the job's requests
  meanwhile just finds nothing to purge.

Membership is kept as worker ids, none of it a cluster model (the
plane never acquires a slot on one, so it keeps none). An idle worker
costs its state byte and its pool id, about 5 bytes:

* the worker store ``workers`` maps the id of each worker something
  has contacted to its :class:`~repro.decentralized.worker.Worker`;
  :meth:`DecentralizedSimulator.worker` creates one on first contact.
  A contacted worker is six slots and a queue; it holds no copies, so a
  running copy costs it only a count;
* ``members`` is the shared :class:`~repro.cluster.membership.Membership`
  (one state byte per id, blacklisted and retired bits, and the live
  totals), whether or not the worker exists. A worker whose byte is set
  queues no requests and declines binds;
* the probe sample pool, ``members.ids``, is an ``array('I')`` of the
  ascending live ids, 4 bytes each. Growth appends to it; a shrink
  retires its top ids; an eviction deletes one id and a reinstatement
  inserts it back, each found by bisection.

Blacklisting (§2.2) and elastic resizes run the membership sequence
both planes share (:class:`~repro.cluster.membership.MembershipPlane`):
an optional :class:`~repro.cluster.policy.BlacklistPolicy` observes copy
completions and keeps the only strike record. An eviction or a shrink
flags the workers and drops them from the pool, resizes the schedulers'
ε-fair floors, then drops the workers' queued requests and kills their
running copies (found in one walk over the live copies of every job)
through the ledger, requeueing each task whose last copy died with a
fresh probe. With no policy (the default) the probe/launch
path is untouched.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, DefaultDict, Dict, List, Optional, Tuple

from repro.cluster.elastic import AutoscalerPolicy, ElasticController
from repro.cluster.membership import Membership, MembershipPlane
from repro.cluster.policy import BlacklistPolicy
from repro.decentralized.config import DecentralizedConfig
from repro.decentralized.scheduler import SchedulerAgent, SchedulerJob
from repro.decentralized.worker import Worker
from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator
from repro.metrics.collector import MetricsCollector, SimulationResult
from repro.runtime import CopyLedger
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomSource
from repro.speculation.base import SpeculationPolicy
from repro.stragglers.model import StragglerModel
from repro.stragglers.progress import TaskCopy
from repro.workload.job import Job
from repro.workload.task import Task
from repro.workload.traces import Trace

if TYPE_CHECKING:
    from repro.obs import Obs


class _ProbePool(Membership):
    """Worker membership plus ``ids``, the ascending live worker ids the
    probe sampler draws from (``rng.sample`` reads only the length and
    items, so an array of ids draws the same ids as a list of the same
    workers)."""

    __slots__ = ("ids",)

    def __init__(self, num_workers: int, slots_per_worker: int) -> None:
        super().__init__(num_workers, slots_per_worker)
        self.ids = array("I", range(num_workers))

    def add_machine(self, count: int = 1) -> int:
        worker_id = super().add_machine(count)
        self.ids.extend(range(worker_id, worker_id + count))
        return worker_id

    def remove_machine(self, *worker_ids: int) -> List[int]:
        left = super().remove_machine(*worker_ids)
        ids = self.ids
        cut = len(ids) - len(left)
        if ids[cut:].tolist() == left[::-1]:
            # A shrink retires the highest live ids, highest first: the
            # pool's tail, cut in one slice.
            del ids[cut:]
        else:
            for worker_id in left:
                del ids[bisect_left(ids, worker_id)]
        return left

    def apply_blacklist(self, worker_id: int, blacklisted: bool) -> bool:
        flipped = super().apply_blacklist(worker_id, blacklisted)
        if flipped and blacklisted:
            del self.ids[bisect_left(self.ids, worker_id)]
        elif flipped:
            insort(self.ids, worker_id)
        return flipped


class DecentralizedSimulator(MembershipPlane):
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
        self.config = config or DecentralizedConfig()
        # Read by every worker's episode step (see Worker).
        self._worker_policy = self.config.worker_policy
        self._refusal_threshold = self.config.refusal_threshold
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

        # Worker store and membership (see module docs). Workers read
        # their state byte through _member_state.
        self.members = _ProbePool(num_workers, slots_per_worker)
        self._member_state = self.members.state
        self.workers: Dict[int, Worker] = {}
        # Copies running fleet-wide, kept by Worker.bind_copy/release_copy.
        self.busy_slots = 0
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
        # job_id -> ids of the workers its requests were queued on (see
        # module docs).
        self._request_holders: DefaultDict[int, List[int]] = defaultdict(list)
        # One open control-message batch (destination tick + seq guard).
        self._message_delay = self.config.message_delay
        self._open_batch: Optional[List[Tuple[Callable[..., None], tuple]]] = None
        self._open_batch_time = 0.0
        self._open_batch_seq = -1
        self._metrics_result = self.metrics.result
        # Without a blacklist policy the hot paths pay one None check.
        self.blacklist_policy = blacklist_policy
        self._power_of_d = self.config.power_of_d
        self._elastic: Optional[ElasticController] = None
        if autoscaler is not None:
            self._elastic = ElasticController(self.sim, autoscaler, obs)

    @property
    def total_slots(self) -> int:
        """Live capacity: retired and blacklisted workers do not count
        (the serving driver's utilization sampler reads it)."""
        return self.members.total_slots

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
        # The delay is constant, so times come in send order: the lane's
        # precondition holds.
        sim.post(time, self._deliver_batch, batch)
        self._open_batch_seq = sim._seq
        if counters is not None:
            counters.inc("msg.sent")
            counters.inc("msg.batches")

    def _deliver_batch(
        self, batch: List[Tuple[Callable[..., None], tuple]]
    ) -> None:
        if self._open_batch is batch:
            self._open_batch = None
        extra = len(batch) - 1
        if extra:
            # Keep events_processed comparable with unbatched delivery.
            self.sim.credit_events(extra)
        for fn, args in batch:
            fn(*args)

    def worker(self, worker_id: int) -> Worker:
        """The worker with ``worker_id``, created on first contact."""
        worker = self.workers.get(worker_id)
        if worker is None:
            worker = Worker(worker_id, self.members.slots_per_machine, self)
            self.workers[worker_id] = worker
        return worker

    def sample_workers(self, count: int) -> List[Worker]:
        """Sample ``count`` distinct live workers (all, if fewer).

        With ``power_of_d == 1`` (the default) this is plain uniform
        sampling over the pool of ids. With ``power_of_d > 1`` the
        sampler draws ``d x count`` candidate ids uniformly and keeps
        the ``count`` least-loaded (queue depth plus busy slots, 0 for
        a worker not yet created; ties keep the draw order, so the
        choice is deterministic given the draw).
        """
        pool = self.members.ids
        workers = self.workers
        if count >= len(pool):
            ids = pool
        elif self._power_of_d == 1:
            ids = self.rng.sample(pool, count)
        else:
            drawn = self.rng.sample(
                pool, min(count * self._power_of_d, len(pool))
            )

            def load(i: int) -> Tuple[int, int]:
                worker = workers.get(drawn[i])
                if worker is None:
                    return 0, i
                return len(worker.queue) + worker.busy_slots, i

            order = sorted(range(len(drawn)), key=load)
            ids = [drawn[i] for i in order[:count]]
        get = workers.get
        return [get(i) or self.worker(i) for i in ids]

    def gossip_for(self, job_id: int):
        """Latest gossip for a job, or None if it completed."""
        scheduler = self._owner.get(job_id)
        if scheduler is None:
            return None
        sj = scheduler.jobs.get(job_id)
        return sj.gossip if sj is not None else None

    # -- queued-request index ----------------------------------------------

    def note_request_queued(self, job_id: int, worker_id: int) -> None:
        self._request_holders[job_id].append(worker_id)

    def _purge_job_requests(self, job_id: int) -> None:
        """Drop a completed job's queued requests from each worker its
        requests reached, once (O(requests), not O(workers))."""
        workers = self.workers
        for worker_id in dict.fromkeys(self._request_holders.pop(job_id, ())):
            workers[worker_id].purge_job(job_id)

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
            self._elastic.prime(self)
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
            self._elastic.ensure_sampling(self)

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
        if self._member_state[worker.worker_id]:
            # The accept raced an eviction or a retirement: decline the
            # bind, release the eager occupancy reservation, and requeue
            # a task that has no live copy left to carry it.
            if sj is not None:
                sj.mark_changed()
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
                sj.mark_changed()
                scheduler.on_copy_gone(sj)
            worker.maybe_start_episode()
            return
        attempt = sj.view.attempts(task)
        slowdown = self.straggler_model.slowdown(
            self.rng, task, worker.worker_id, attempt
        )
        duration = task.size * slowdown
        copy = self.ledger.launch(
            sj,
            task,
            worker.worker_id,
            duration,
            speculative,
            True,
            self._on_copy_finish,
        )
        worker.bind_copy()
        scheduler.on_copy_bound(sj)

    def _on_copy_finish(self, copy: TaskCopy) -> None:
        self.ledger.settle_finished(copy)
        task = copy.task
        scheduler = self._owner.get(task.job_id)
        sj = scheduler.jobs.get(task.job_id) if scheduler else None
        # Freeing the worker's slot may start a new selection episode;
        # that must observe the pre-finish view/gossip, exactly as the
        # pre-ledger simulator did, so the view update comes after.
        self.workers[copy.machine_id].release_copy()
        won = self.ledger.record_finish(copy)
        if sj is None:
            return
        self.ledger.detach(copy, sj)
        scheduler.on_copy_gone(sj)

        if won:
            siblings = self.ledger.finish_task(sj.view, copy)
            scheduler.on_task_finished(sj, task)
            for sibling in siblings:
                self._kill_copy(sibling, sj)
            if sj.job.is_complete:
                self._complete_job(scheduler, sj)
        if self.blacklist_policy is not None:
            self._observe_blacklist(copy, sj)

    def _kill_copy(self, copy: TaskCopy, sj: SchedulerJob) -> None:
        self.ledger.kill(copy, sj)
        self.schedulers[sj.gossip.scheduler_id].on_copy_gone(sj)
        # The kill travels to the worker as a control message.
        self.metrics.record_message()
        self.workers[copy.machine_id].release_copy()

    def _complete_job(self, scheduler: SchedulerAgent, sj: SchedulerJob) -> None:
        job = sj.job
        self.ledger.record_job_completion(job, self.alpha_estimator)
        scheduler.complete_job(sj)
        self._purge_job_requests(job.job_id)
        self._owner.pop(job.job_id, None)
        self._active_jobs -= 1

    # -- membership hooks (see MembershipPlane) -------------------------------

    def _running_copies(self, worker_ids) -> List[List[tuple]]:
        """The ``(copy, job)`` pairs running on each of ``worker_ids``
        that has a worker, in bind (copy id) order, found in one walk
        over every job's live copies; first each such worker drops its
        queued requests, in the order given."""
        buckets: Dict[int, List[tuple]] = {}
        workers = self.workers
        for worker_id in worker_ids:
            worker = workers.get(worker_id)
            if worker is not None:
                worker.vacate()
                buckets[worker_id] = []
        get = buckets.get
        for scheduler in self.schedulers:
            for sj in scheduler.jobs.values():
                for copies in sj.view.copies_by_task.values():
                    for copy in copies:
                        bucket = get(copy.machine_id)
                        if bucket is not None:
                            bucket.append((copy, sj))
        for victims in buckets.values():
            victims.sort(key=lambda victim: victim[0].copy_id)
        return list(buckets.values())

    def _requeue(self, task: Task, sj: SchedulerJob) -> None:
        self.schedulers[sj.gossip.scheduler_id].requeue_task(sj, task)

    def _refresh_membership(self) -> None:
        """Resize the schedulers' ε-fair floors to live capacity."""
        total = self.members.total_slots
        for scheduler in self.schedulers:
            scheduler.on_cluster_resize(total)

    # -- elastic membership (autoscaler resizes) ------------------------------

    def _autoscale_add(self, count: int) -> int:
        """ADD_MACHINE: grow the worker set. New workers take fresh ids
        (append-only, so per-id state everywhere stays valid) and join
        the probe sample pool immediately; none is created until first
        contact."""
        self.members.add_machine(count)
        self._refresh_membership()
        return count

    def _autoscale_remove(self, count: int) -> int:
        """REMOVE_MACHINE: retire up to ``count`` workers (highest live
        ids first, the pool's tail) through the eviction teardown."""
        return self._retire(count)
