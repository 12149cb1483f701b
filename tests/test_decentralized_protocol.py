"""Protocol-level unit tests for the decentralized worker (Pseudocode 3)
and scheduler (Pseudocode 2) logic, driven through a tiny simulator."""

import random

import pytest

from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
from repro.decentralized.messages import JobGossip, Request, ResponseType
from repro.decentralized.simulator import DecentralizedSimulator
from repro.simulation.rng import RandomSource
from repro.speculation import LATE
from repro.stragglers.model import NoStragglerModel
from repro.workload.job import make_single_phase_job
from repro.workload.traces import Trace


def _sim(num_workers=4, **config_kwargs):
    defaults = dict(
        num_schedulers=2,
        worker_policy=WorkerPolicy.HOPPER,
        probe_ratio=2.0,
        epsilon=1.0,
        message_delay=0.001,
    )
    defaults.update(config_kwargs)
    job = make_single_phase_job(0, 0.0, [1.0])
    return DecentralizedSimulator(
        num_workers=num_workers,
        speculation=lambda: LATE(),
        trace=Trace(jobs=[job]),
        straggler_model=NoStragglerModel(),
        config=DecentralizedConfig(**defaults),
        random_source=RandomSource(seed=0),
    )


def _gossip(job_id, vsize, remaining, scheduler_id=0, **kwargs):
    return JobGossip(
        job_id=job_id,
        scheduler_id=scheduler_id,
        virtual_size=vsize,
        remaining_tasks=remaining,
        **kwargs,
    )


def _capture_offers(monkeypatch, offered):
    """Record (request, rtype) for every offer instead of sending it.

    Worker uses __slots__, so the hook is installed on the class (and
    undone by monkeypatch) rather than on the instance."""
    from repro.decentralized.worker import Worker

    monkeypatch.setattr(
        Worker,
        "_offer",
        lambda self, ep, req, rtype: offered.append((req, rtype)),
    )


def test_worker_candidates_dedupe_by_job_and_spec_flag():
    sim = _sim()
    worker = sim.worker(0)
    g = _gossip(1, 5.0, 4)
    worker.queue = [
        Request(g, 0.0, spec_ok=False),
        Request(g, 1.0, spec_ok=False),  # duplicate (job, flag)
        Request(g, 2.0, spec_ok=True),
    ]
    from repro.decentralized.worker import Episode

    episode = Episode(worker)
    candidates = worker._candidates(episode)
    assert len(candidates) == 2
    flags = {c.spec_ok for c in candidates}
    assert flags == {False, True}


def test_worker_drops_requests_of_inactive_jobs_on_arrival():
    """Queue invariant: requests of completed jobs never enter the queue
    (eager purging replaced the old lazy _purge_inactive scan)."""
    sim = _sim()
    worker = sim.worker(0)
    dead = _gossip(1, 5.0, 4, active=False)
    live = _gossip(2, 5.0, 4)
    worker.on_request(Request(dead, 0.0))
    worker.on_request(Request(live, 0.0))
    from repro.decentralized.worker import Episode

    candidates = worker._candidates(Episode(worker))
    assert [c.job_id for c in candidates] == [2]
    assert all(r.job_id == 2 for r in worker.queue)
    # Only the queued request entered the per-job request index.
    assert sim._request_holders == {2: [worker.worker_id]}


def test_completed_job_requests_are_purged_from_holders():
    """On job completion the per-job request index purges every worker
    a request of that job was queued on, once, and counts each purged
    request as dropped."""
    sim = _sim()
    first, second = sim.worker(0), sim.worker(1)
    target = _gossip(7, 5.0, 4)
    other = _gossip(8, 5.0, 4)
    first.on_request(Request(target, 0.0))
    first.on_request(Request(other, 0.0))
    second.on_request(Request(target, 0.0))
    second.on_request(Request(target, 1.0))
    assert sim._request_holders[7] == [0, 1, 1]

    target.active = False  # what scheduler.complete_job does
    sim._purge_job_requests(7)
    assert [r.job_id for r in first.queue] == [8]
    assert second.queue == []
    assert sim.metrics.result.requests_dropped == 3
    assert sim._request_holders == {8: [first.worker_id]}


def test_hopper_worker_prefers_smallest_virtual_size(monkeypatch):
    sim = _sim()
    worker = sim.worker(0)
    big = Request(_gossip(1, 50.0, 40), 0.0)
    small = Request(_gossip(2, 5.0, 4), 1.0)
    worker.queue = [big, small]
    offered = []
    _capture_offers(monkeypatch, offered)

    from repro.decentralized.worker import Episode

    worker._episode_step(Episode(worker))
    request, rtype = offered[0]
    assert request.job_id == 2
    assert rtype is ResponseType.REFUSABLE


def test_hopper_worker_serves_starved_jobs_first(monkeypatch):
    sim = _sim(epsilon=0.1)
    worker = sim.worker(0)
    normal = Request(_gossip(1, 2.0, 2), 0.0)
    starved = Request(_gossip(2, 90.0, 70, starved=True), 1.0)
    worker.queue = [normal, starved]
    offered = []
    _capture_offers(monkeypatch, offered)

    from repro.decentralized.worker import Episode

    worker._episode_step(Episode(worker))
    assert offered[0][0].job_id == 2


def test_hopper_worker_non_refusable_after_threshold(monkeypatch):
    sim = _sim(refusal_threshold=1)
    worker = sim.worker(0)
    worker.queue = [Request(_gossip(1, 5.0, 4), 0.0)]
    offered = []
    _capture_offers(monkeypatch, offered)

    from repro.decentralized.worker import Episode

    episode = Episode(worker)
    episode.refusals = 1  # threshold reached, no unsatisfied info
    worker._episode_step(episode)
    # Guideline 3: sampled proportionally, non-refusable.
    assert offered[0][1] is ResponseType.NON_REFUSABLE


def test_hopper_worker_serves_smallest_unsatisfied_from_refusal_info(monkeypatch):
    sim = _sim(refusal_threshold=1)
    worker = sim.worker(0)
    worker.queue = [
        Request(_gossip(1, 30.0, 20), 0.0),
        Request(_gossip(2, 9.0, 6), 0.0),
    ]
    offered = []
    _capture_offers(monkeypatch, offered)

    from repro.decentralized.worker import Episode

    episode = Episode(worker)
    episode.refusals = 1
    episode.unsatisfied = [(9.0, 2, 0), (30.0, 1, 0)]
    worker._episode_step(episode)
    request, rtype = offered[0]
    assert request.job_id == 2  # smallest unsatisfied
    assert rtype is ResponseType.NON_REFUSABLE


def test_fifo_worker_takes_oldest_request(monkeypatch):
    sim = _sim(worker_policy=WorkerPolicy.FIFO)
    worker = sim.worker(0)
    newer = Request(_gossip(1, 1.0, 1), 5.0)
    older = Request(_gossip(2, 99.0, 80), 1.0)
    worker.queue = [newer, older]
    offered = []
    _capture_offers(monkeypatch, offered)

    from repro.decentralized.worker import Episode

    worker._episode_step(Episode(worker))
    assert offered[0][0].job_id == 2
    assert offered[0][1] is ResponseType.NON_REFUSABLE


def test_srpt_worker_takes_fewest_remaining(monkeypatch):
    sim = _sim(worker_policy=WorkerPolicy.SRPT)
    worker = sim.worker(0)
    big = Request(_gossip(1, 99.0, 80), 0.0)
    small = Request(_gossip(2, 10.0, 3), 5.0)
    worker.queue = [big, small]
    offered = []
    _capture_offers(monkeypatch, offered)

    from repro.decentralized.worker import Episode

    worker._episode_step(Episode(worker))
    assert offered[0][0].job_id == 2


def test_consume_request_removes_the_offered_object_not_an_equal_one():
    sim = _sim()
    worker = sim.worker(0)
    g = _gossip(1, 5.0, 4)
    earlier, offered = Request(g, 0.0), Request(g, 0.0)  # equal fields
    for request in (earlier, offered):
        worker.queue.append(request)
        sim.note_request_queued(1, worker.worker_id)
    worker.consume_request(offered)
    assert len(worker.queue) == 1
    assert worker.queue[0] is earlier
    # The index still reaches the worker: completion purges the rest.
    sim._purge_job_requests(1)
    assert worker.queue == []
    assert sim.metrics.result.requests_dropped == 1


def _reference_hopper_step(worker, episode):
    """What the HOPPER step offers, derived from ``_candidates`` and
    plain min() scans: ``(request, rtype)``, ``(("direct", job_id),
    rtype)``, ``(("weighted", candidates), rtype)`` or None (idle)."""
    candidates = worker._candidates(episode)
    if not candidates:
        return None
    starved = [r for r in candidates if r.gossip.starved]
    if starved:
        pick = min(starved, key=lambda r: r.gossip.virtual_size)
        return pick, ResponseType.REFUSABLE
    if episode.refusals >= worker.sim._refusal_threshold:
        if episode.unsatisfied:
            _, job_id, _ = min(episode.unsatisfied)
            for request in candidates:
                if request.job_id == job_id:
                    return request, ResponseType.NON_REFUSABLE
            return ("direct", job_id), ResponseType.NON_REFUSABLE
        return ("weighted", candidates), ResponseType.NON_REFUSABLE
    pick = min(candidates, key=lambda r: (r.gossip.virtual_size, r.enqueue_time))
    return pick, ResponseType.REFUSABLE


@pytest.mark.parametrize("seed", range(100))
def test_hopper_step_offers_what_the_candidate_scan_picks(monkeypatch, seed):
    """Random queues with duplicate keys, virtual-size and enqueue-time
    ties, starved flags, tried keys and refusal info. A queue holds its
    requests in enqueue-time order, as every queue in a run does (see
    the test below)."""
    from repro.decentralized.worker import Episode, Worker

    rng = random.Random(seed)
    sim = _sim(epsilon=0.1)
    worker = sim.worker(0)
    gossips = [
        _gossip(j, rng.choice((1.0, 2.0, 2.0)), 3, starved=rng.random() < 0.1)
        for j in range(1, 6)
    ]
    worker.queue = sorted(
        (
            Request(rng.choice(gossips), float(rng.randrange(2)), rng.random() < 0.7)
            for _ in range(rng.randint(0, 10))
        ),
        key=lambda r: r.enqueue_time,
    )
    episode = Episode(worker)
    episode.tried = {r.key for r in worker.queue if rng.random() < 0.3}
    episode.refusals = rng.randrange(4)
    episode.unsatisfied = [
        (g.virtual_size, g.job_id, 0) for g in gossips if rng.random() < 0.3
    ]
    expected = _reference_hopper_step(worker, episode)

    offered = []
    _capture_offers(monkeypatch, offered)
    def direct(self, ep, job_id, scheduler_id, rtype):
        offered.append((("direct", job_id), rtype))

    def weighted(self, candidates):
        offered.append((("weighted", candidates), ResponseType.NON_REFUSABLE))
        return candidates[0]

    monkeypatch.setattr(Worker, "_offer_direct", direct)
    monkeypatch.setattr(Worker, "_weighted_pick", weighted)
    worker._episode_step(episode)
    if expected is None:
        assert offered == []
        return
    pick, rtype = offered[0]
    assert rtype is expected[1]
    if isinstance(expected[0], Request):
        assert pick is expected[0]
    else:
        assert pick[0] == expected[0][0]
        if pick[0] == "weighted":
            assert [id(r) for r in pick[1]] == [id(r) for r in expected[0][1]]
        else:
            assert pick[1] == expected[0][1]


@pytest.mark.parametrize("system", ["hopper", "sparrow-lb"])
def test_every_worker_step_sees_its_queue_in_enqueue_order(monkeypatch, system):
    """The HOPPER step never deduplicates its scan: a repeat of a key
    shares the first's gossip and cannot beat it, because a queue holds
    requests in enqueue-time order (one constant message delay, FIFO
    delivery, purges that keep the order). Checked at every step of
    replays with evictions, probation and resizes, whose queues do hold
    repeated keys."""
    from repro.decentralized.worker import Worker
    from repro.experiments.harness import WorkloadSpec, build_trace, run_simulator

    original = Worker._episode_step
    seen = {"steps": 0, "repeats": 0}

    def checked(self, episode):
        times = [request.enqueue_time for request in self.queue]
        assert times == sorted(times)
        keys = [request.key for request in self.queue]
        seen["steps"] += 1
        seen["repeats"] += len(keys) != len(set(keys))
        original(self, episode)

    monkeypatch.setattr(Worker, "_episode_step", checked)
    spec = WorkloadSpec(num_jobs=20, utilization=0.7, total_slots=80, seed=2)
    run_simulator(
        f"decentralized/{system}",
        build_trace(spec),
        spec,
        straggler_model="machine-correlated",
        blacklist_policy="strikes-probation",
        strike_threshold=2,
        strike_window=8.0,
        autoscaler="schedule",
        resize_schedule="2:-10,4:+6,6:-6,8:+10",
        obs=None,
    )
    assert seen["steps"] > 100 and seen["repeats"] > 0, seen


def test_worker_slot_accounting_with_pending_episode():
    sim = _sim()
    worker = sim.worker(0)
    assert worker.available_slots == 1
    worker.pending_episodes = 1
    assert worker.available_slots == 0
    worker.pending_episodes = 0
    worker.busy_slots = 1
    assert worker.available_slots == 0


def test_scheduler_refuses_refusable_offer_at_virtual_size():
    # End-to-end micro-run: one job, one task, two workers probed; after
    # the single task is running, refusable offers for the job must be
    # refused (occupied >= virtual size and no candidates yet).
    sim = _sim(num_workers=2)
    result = sim.run(until=10.0)
    assert result.num_jobs == 1
    # all slots free at the end, queue drained of active work
    assert all(sim.worker(i).busy_slots == 0 for i in range(2))


def test_request_defaults_are_spec_eligible():
    g = _gossip(1, 5.0, 4)
    assert Request(g, 0.0).spec_ok is True
    assert Request(g, 0.0).scheduler_id == 0


def test_request_conservation_over_a_full_run():
    """Every reservation request is accounted for: sent probes are
    queued or dropped-on-arrival; queued probes are consumed (task
    assigned) or purged (job done / worker evicted); the unconditional
    ``requests_dropped`` result field covers exactly the losses. Holds
    with observability on (counters) and off (requests_dropped only)."""
    from repro.experiments.harness import (
        WorkloadSpec,
        build_trace,
        run_simulator,
    )
    from repro.obs import Obs

    spec = WorkloadSpec(
        num_jobs=12, utilization=0.6, total_slots=60, seed=5
    )
    trace = build_trace(spec)
    obs = Obs()
    result = run_simulator(
        "decentralized/hopper",
        trace,
        spec,
        straggler_model="machine-correlated",
        blacklist_policy="strikes",
        strike_threshold=3,
        strike_window=1e9,
        obs=obs,
    )
    counts = obs.counters.as_dict()
    sent = counts["probe.sent"]
    queued = counts.get("probe.queued", 0)
    dropped = counts.get("probe.dropped", 0)
    consumed = counts.get("probe.consumed", 0)
    purged = counts.get("probe.purged", 0)
    assert sent == queued + dropped
    assert queued == consumed + purged
    assert result.requests_dropped == dropped + purged
    # Control-message batching conserves sends too.
    assert counts["msg.sent"] == (
        counts.get("msg.batches", 0) + counts.get("msg.coalesced", 0)
    )
    # The unconditional field matches an uninstrumented replay exactly.
    bare = run_simulator(
        "decentralized/hopper",
        trace,
        spec,
        straggler_model="machine-correlated",
        blacklist_policy="strikes",
        strike_threshold=3,
        strike_window=1e9,
        obs=None,
    )
    assert bare.requests_dropped == result.requests_dropped
