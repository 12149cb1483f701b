"""Workers: late-binding slot holders implementing Pseudocode 3.

When a slot frees, a worker runs a *selection episode*: it offers the slot
to the scheduler of the most promising queued request. Under the HOPPER
policy the offer is *refusable* and ordered by ascending virtual size;
each refusal teaches the worker about unsatisfied jobs elsewhere; after a
threshold of refusals the worker either serves the smallest unsatisfied
job (non-refusably) or concludes the system is not capacity constrained
and samples a job proportionally to virtual size (Guideline 3).

Sparrow (FIFO) and Sparrow-SRPT workers send only non-refusable offers and
treat original and speculative reservation requests as distinct queue
entries (speculative copies wait their turn — the §5.1 friction Hopper
removes).

Queue invariant: ``self.queue`` only ever contains requests of *active*
jobs. Requests arriving for an already-completed job are dropped on
arrival, and the simulator eagerly purges a job's queued requests from
the workers its requests reached (via the per-job request index) the
moment it completes — so candidate scans never pay for tombstones of
finished jobs.

A worker keeps counts, not copies: ``busy_slots`` is how many copies it
runs, and the copies themselves live only in their jobs' views (the
simulator finds a leaving worker's copies there).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, TYPE_CHECKING

from repro.decentralized.config import WorkerPolicy
from repro.decentralized.messages import Request, ResponseType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.decentralized.simulator import DecentralizedSimulator


class Episode:
    """One slot-selection episode (possibly spanning several refusals)."""

    __slots__ = ("worker", "refusals", "tried", "unsatisfied")

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker
        self.refusals = 0
        # (job_id, spec_ok) pairs already offered during this episode,
        # as Request.key values (cheaper to hash than tuples)
        self.tried: Set[int] = set()
        # (virtual_size, job_id, scheduler_id) tuples learned from refusals
        self.unsatisfied: List[Tuple[float, int, int]] = []


class Worker:
    """A machine with task slots and a queue of reservation requests.

    The simulator creates a worker on first contact (see
    :meth:`~repro.decentralized.simulator.DecentralizedSimulator.worker`),
    so an idle worker in a large fleet is only an id, never an object;
    a contacted one costs its six slots and its queue.
    """

    __slots__ = (
        "worker_id",
        "num_slots",
        "sim",
        "queue",
        "busy_slots",
        "pending_episodes",
    )

    def __init__(
        self,
        worker_id: int,
        num_slots: int,
        sim: "DecentralizedSimulator",
    ) -> None:
        self.worker_id = worker_id
        self.num_slots = num_slots
        self.sim = sim
        self.queue: List[Request] = []
        self.busy_slots = 0
        self.pending_episodes = 0  # episodes awaiting a scheduler reply
        # Simulator-wide config and the drop accounting (requests that
        # can never be honoured are counted instead of vanishing) are
        # read from ``sim``, not copied onto every worker.

    # -- bookkeeping -------------------------------------------------------

    @property
    def available_slots(self) -> int:
        """Slots neither running a copy nor promised to an episode."""
        return self.num_slots - self.busy_slots - self.pending_episodes

    def purge_job(self, job_id: int) -> None:
        """Drop and count all queued requests of ``job_id`` (the
        scheduler said no-task, or the job completed)."""
        before = len(self.queue)
        self.queue = [r for r in self.queue if r.gossip.job_id != job_id]
        removed = before - len(self.queue)
        if removed:
            sim = self.sim
            sim._metrics_result.requests_dropped += removed
            if sim._counters is not None:
                sim._counters.inc("probe.purged", removed)

    def consume_request(self, request: Request) -> None:
        """Remove this exact queued request (on task assignment)."""
        try:
            self.queue.remove(request)
        except ValueError:
            return
        counters = self.sim._counters
        if counters is not None:
            counters.inc("probe.consumed")

    def vacate(self) -> None:
        """The worker just left membership (evicted or retired): drop
        and count every queued reservation request. The simulator kills
        and reschedules its running copies. Its state byte now refuses
        new requests, so its queue stays empty and it starts no
        episode. An in-flight slot offer may still come back as an
        accept; the simulator declines it at bind time (see
        ``start_copy``).
        """
        dropped = len(self.queue)
        if dropped:
            sim = self.sim
            sim._metrics_result.requests_dropped += dropped
            if sim._counters is not None:
                sim._counters.inc("probe.purged", dropped)
            self.queue.clear()

    # -- protocol ----------------------------------------------------------

    def on_request(self, request: Request) -> None:
        """A reservation request arrives (after network delay)."""
        sim = self.sim
        counters = sim._counters
        if sim._member_state[self.worker_id]:
            # Raced the eviction or retirement: the probe is lost — but counted.
            sim._metrics_result.requests_dropped += 1
            if counters is not None:
                counters.inc("probe.dropped")
            return
        if request.gossip.active:
            self.queue.append(request)
            sim.note_request_queued(request.gossip.job_id, self.worker_id)
            if counters is not None:
                counters.inc("probe.queued")
        else:
            # Raced job completion: dropped on arrival, counted.
            sim._metrics_result.requests_dropped += 1
            if counters is not None:
                counters.inc("probe.dropped")
        # A request that raced job completion is dropped, but may still
        # wake the slot: with lazy purging its arrival would have
        # triggered the same episode scan.
        self.maybe_start_episode()

    def maybe_start_episode(self) -> None:
        # A worker that is not live has an empty queue (see vacate).
        if self.num_slots - self.busy_slots - self.pending_episodes <= 0:
            return
        if not self.queue:
            return
        episode = Episode(self)
        self.pending_episodes += 1
        self._episode_step(episode)

    def _candidates(self, episode: Episode) -> List[Request]:
        """One representative request per untried (job, spec_ok) pair."""
        # Seed the dedup set with the already-tried keys: one membership
        # test per queued request instead of two (tried is tiny).
        seen: Set[int] = set(episode.tried)
        add = seen.add
        unique: List[Request] = []
        append = unique.append
        for request in self.queue:
            key = request.key
            if key in seen:
                continue
            add(key)
            append(request)
        return unique

    def _episode_step(self, episode: Episode) -> None:
        """Pick the next request to offer the slot to (Pseudocode 3)."""
        policy = self.sim._worker_policy
        if policy is not WorkerPolicy.HOPPER:
            candidates = self._candidates(episode)
            if not candidates:
                self._finish_episode_idle(episode)
                return
            if policy is WorkerPolicy.FIFO:
                request = min(candidates, key=lambda r: r.enqueue_time)
            else:  # SRPT
                request = min(
                    candidates,
                    key=lambda r: (r.gossip.remaining_tasks, r.enqueue_time),
                )
            self._offer(episode, request, ResponseType.NON_REFUSABLE)
            return

        # HOPPER policy -------------------------------------------------
        # One pass over the untried requests finds both the smallest
        # starved one (served before everything else, ε-fairness) and
        # the (virtual size, enqueue time)-smallest one; first-minimal
        # wins on ties. Queued requests with equal keys share one gossip
        # and sit in enqueue order, so a repeat never beats the first of
        # its key and the pass needs no dedup (only the threshold branch
        # below reads the deduplicated candidates).
        tried = episode.tried
        best: Optional[Request] = None
        best_vs = best_time = 0.0
        best_starved: Optional[Request] = None
        best_starved_vs = 0.0
        for request in self.queue:
            if request.key in tried:
                continue
            gossip = request.gossip
            vs = gossip.virtual_size
            if (
                best is None
                or vs < best_vs
                or (vs == best_vs and request.enqueue_time < best_time)
            ):
                best = request
                best_vs = vs
                best_time = request.enqueue_time
            if gossip.starved and (best_starved is None or vs < best_starved_vs):
                best_starved = request
                best_starved_vs = vs
        if best is None:
            self._finish_episode_idle(episode)
            return
        if best_starved is not None:
            self._offer(episode, best_starved, ResponseType.REFUSABLE)
            return

        if episode.refusals >= self.sim._refusal_threshold:
            self.sim.metrics.record_guideline_decision(
                constrained=bool(episode.unsatisfied)
            )
            candidates = self._candidates(episode)
            if episode.unsatisfied:
                # Capacity constrained: serve the smallest unsatisfied job.
                entry = min(episode.unsatisfied)
                episode.unsatisfied.remove(entry)
                _, job_id, scheduler_id = entry
                request = self._request_for(candidates, job_id)
                if request is None:
                    # No queued request for it: answer it directly.
                    self._offer_direct(
                        episode, job_id, scheduler_id,
                        ResponseType.NON_REFUSABLE,
                    )
                    return
                self._offer(episode, request, ResponseType.NON_REFUSABLE)
                return
            # Not capacity constrained: Guideline 3 — sample a job
            # proportionally to its virtual size.
            request = self._weighted_pick(candidates)
            self._offer(episode, request, ResponseType.NON_REFUSABLE)
            return

        self._offer(episode, best, ResponseType.REFUSABLE)

    @staticmethod
    def _request_for(
        candidates: List[Request], job_id: int
    ) -> Optional[Request]:
        for request in candidates:
            if request.gossip.job_id == job_id:
                return request
        return None

    def _weighted_pick(self, candidates: List[Request]) -> Request:
        weights = [max(r.gossip.virtual_size, 1e-9) for r in candidates]
        total = sum(weights)
        u = self.sim.rng.random() * total
        acc = 0.0
        for request, weight in zip(candidates, weights):
            acc += weight
            if u <= acc:
                return request
        return candidates[-1]

    def _offer(
        self,
        episode: Episode,
        request: Request,
        rtype: ResponseType,
    ) -> None:
        episode.tried.add(request.key)
        sim = self.sim
        scheduler = sim.schedulers[request.gossip.scheduler_id]
        sim.send(scheduler.on_slot_offer, self, episode, request, rtype)

    def _offer_direct(
        self,
        episode: Episode,
        job_id: int,
        scheduler_id: int,
        rtype: ResponseType,
    ) -> None:
        """Offer a slot to a job learned about via refusal gossip (no
        queued request of ours). A synthetic speculation-eligible request
        is created for the offer."""
        gossip = self.sim.gossip_for(job_id)
        if gossip is None or not gossip.active:
            self._episode_step(episode)
            return
        scheduler = self.sim.schedulers[scheduler_id]
        synthetic = Request(
            gossip=gossip, enqueue_time=self.sim.sim.now, spec_ok=True
        )
        episode.tried.add(synthetic.key)
        self.sim.send(scheduler.on_slot_offer, self, episode, synthetic, rtype)

    def _finish_episode_idle(self, episode: Episode) -> None:
        """No acceptable request: the slot stays free."""
        self.pending_episodes -= 1

    # -- replies from schedulers -------------------------------------------

    def on_accept(
        self, episode: Episode, request: Request, task, speculative: bool
    ) -> None:
        """Scheduler sent a task: bind it to the promised slot."""
        self.pending_episodes -= 1
        self.consume_request(request)
        self.sim.start_copy(self, task, speculative)
        # More slots may still be free (multi-slot workers).
        self.maybe_start_episode()

    def on_reserve(self, episode: Episode, request: Request) -> None:
        """Late binding: the scheduler granted a reservation without a
        task. The slot is ready right now, so pull the concrete task —
        the extra round-trip is the price of binding at execution time.
        The episode's slot promise stays held until the pull resolves
        (:meth:`on_accept` or :meth:`on_no_task`)."""
        scheduler = self.sim.schedulers[request.gossip.scheduler_id]
        self.sim.send(scheduler.on_pull, self, episode, request)

    def on_refuse(
        self,
        episode: Episode,
        request: Request,
        unsatisfied: Optional[Tuple[float, int, int]],
    ) -> None:
        """Refusable offer declined (job at its desired speculation level)."""
        episode.refusals += 1
        if unsatisfied is not None:
            episode.unsatisfied.append(unsatisfied)
        self._episode_step(episode)

    def on_no_task(self, episode: Episode, request: Request) -> None:
        """Job has nothing left at all — purge and keep looking."""
        self.purge_job(request.job_id)
        self._episode_step(episode)

    # -- execution ----------------------------------------------------------

    def bind_copy(self) -> None:
        """A copy started on one of this worker's slots."""
        self.busy_slots += 1
        self.sim.busy_slots += 1

    def release_copy(self) -> None:
        """A copy on this worker finished or was killed: free its slot,
        which may start a selection episode."""
        self.busy_slots -= 1
        self.sim.busy_slots -= 1
        self.maybe_start_episode()
