"""Differential and property tests for the incremental allocation engine.

The engine (:mod:`repro.core.incremental`) replaces the per-event
from-scratch state rebuild / re-sort / re-solve with delta-maintained
caches, under the hard constraint that replay output stays
byte-identical (every golden study digest pins it). These tests attack
that constraint from three sides:

* **differential** — the ordered/closed-form solves against an
  independent straight-line reimplementation of Pseudocode 1 (with the
  literal round-robin remainder loop) over randomized state sets;
* **property** — a full simulation stepped one event at a time, with
  arrivals, completions, speculation races, machine eviction, and
  probation reinstatement, asserting after *every* event that the
  incremental caches match the from-scratch builders, and after every
  reschedule that the dispatch passes' work sets match scans;
* **behavioral identity** — the tracked-set speculation preemption sweep
  against the old all-jobs sweep on a straggler-heavy replay.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.policies import FairPolicy, HopperPolicy, SRPTPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.cluster.policy import StrikeBlacklistPolicy
from repro.core.allocation import (
    JobAllocationState,
    _distribute_remainder,
    hopper_allocation,
    hopper_allocation_ordered,
    srpt_allocation,
    srpt_allocation_ordered,
)
from repro.core.fairness import fairness_floors
from repro.core.incremental import IncrementalAllocator
from repro.core.virtual_size import virtual_size
from repro.experiments.harness import WorkloadSpec, build_trace
from repro.simulation.rng import RandomSource
from repro.speculation import LATE
from repro.stragglers.model import (
    MachineCorrelatedStragglerModel,
    ParetoRedrawStragglerModel,
)
from repro.workload.generator import FACEBOOK_PROFILE, SPARK_FACEBOOK_PROFILE


# -- reference implementation (independent port of Pseudocode 1) -------------


def _ref_distribute(alloc, leftover, order):
    """The literal round-robin remainder loop the closed form replaced."""
    progress = True
    while leftover > 0 and progress:
        progress = False
        for job in order:
            if leftover <= 0:
                break
            if alloc[job.job_id] < job.cap:
                alloc[job.job_id] += 1
                leftover -= 1
                progress = True
    return leftover


def _ref_hopper(jobs, total_slots, epsilon=1.0, force_regime=None):
    """Straight-line Pseudocode 1: no shortcut, loop-based remainder."""
    active = [j for j in jobs if j.remaining_tasks > 0]
    if not active or total_slots == 0:
        return {j.job_id: 0 for j in active}
    floors = fairness_floors(active, total_slots, epsilon)
    alloc = {j.job_id: min(floors[j.job_id], j.cap) for j in active}
    leftover = total_slots - sum(alloc.values())
    total_virtual = sum(j.virtual_size for j in active)
    ascending = sorted(active, key=lambda j: (j.order_key, j.job_id))
    if force_regime == "constrained":
        constrained = True
    elif force_regime == "rich":
        constrained = False
    else:
        constrained = total_slots < total_virtual
    if constrained:
        for job in ascending:
            if leftover <= 0:
                break
            target = min(int(job.virtual_size), job.cap)
            give = min(leftover, max(0, target - alloc[job.job_id]))
            alloc[job.job_id] += give
            leftover -= give
        _ref_distribute(alloc, leftover, ascending)
    else:
        if total_virtual <= 0:
            _ref_distribute(alloc, leftover, ascending)
            return alloc
        shares = {
            j.job_id: total_slots * j.virtual_size / total_virtual
            for j in active
        }
        for job in ascending:
            if leftover <= 0:
                break
            target = min(int(shares[job.job_id]), job.cap)
            give = min(leftover, max(0, target - alloc[job.job_id]))
            alloc[job.job_id] += give
            leftover -= give
        frac_order = sorted(
            active,
            key=lambda j: (shares[j.job_id] - int(shares[j.job_id])),
            reverse=True,
        )
        _ref_distribute(alloc, leftover, frac_order)
    return alloc


def _ref_srpt(jobs, total_slots, best_effort_speculation=True):
    active = [j for j in jobs if j.remaining_tasks > 0]
    ascending = sorted(active, key=lambda j: (j.remaining_tasks, j.job_id))
    alloc = {j.job_id: 0 for j in active}
    leftover = total_slots
    for job in ascending:
        give = min(leftover, job.remaining_tasks)
        alloc[job.job_id] = give
        leftover -= give
        if leftover <= 0:
            break
    if best_effort_speculation and leftover > 0:
        _ref_distribute(alloc, leftover, ascending)
    return alloc


def _random_states(rng, n, with_dags=True):
    states = []
    for job_id in range(n):
        remaining = rng.randint(0, 40)
        vsize = remaining * rng.uniform(0.5, 3.0)
        priority = None
        if with_dags and rng.random() < 0.3:
            priority = vsize * rng.uniform(1.0, 2.0)
        max_useful = None
        if rng.random() < 0.3:
            max_useful = rng.randint(0, 3 * remaining + 1)
        states.append(
            JobAllocationState(
                job_id=job_id,
                virtual_size=vsize,
                remaining_tasks=remaining,
                weight=rng.choice([1.0, 1.0, 2.0, 0.5]),
                priority_size=priority,
                max_useful_slots=max_useful,
            )
        )
    return states


# -- differential: solves vs the reference ----------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_hopper_matches_reference_on_random_states(seed):
    rng = random.Random(seed)
    for trial in range(25):
        states = _random_states(rng, rng.randint(0, 12))
        total = sum(s.remaining_tasks for s in states)
        # Slot counts spanning starved -> everyone-capped (shortcut).
        for slots in (0, 1, total // 2, total, 4 * total + 7):
            for eps in (1.0, 0.1, 0.0):
                for regime in (None, "constrained", "rich"):
                    got = hopper_allocation(
                        states, slots, epsilon=eps, force_regime=regime
                    )
                    want = _ref_hopper(
                        states, slots, epsilon=eps, force_regime=regime
                    )
                    assert got == want, (seed, trial, slots, eps, regime)


@pytest.mark.parametrize("seed", range(4))
def test_srpt_matches_reference_on_random_states(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        states = _random_states(rng, rng.randint(0, 12), with_dags=False)
        total = sum(s.remaining_tasks for s in states)
        for slots in (0, 1, total // 2, total, 3 * total + 5):
            for best_effort in (True, False):
                got = srpt_allocation(
                    states, slots, best_effort_speculation=best_effort
                )
                want = _ref_srpt(
                    states, slots, best_effort_speculation=best_effort
                )
                assert got == want


def test_ordered_solves_accept_precomputed_sums_and_floors():
    rng = random.Random(7)
    states = _random_states(rng, 9)
    active = [s for s in states if s.remaining_tasks > 0]
    ascending = sorted(active, key=lambda j: (j.order_key, j.job_id))
    slots = max(1, sum(s.remaining_tasks for s in active) // 2)
    base = hopper_allocation_ordered(active, ascending, slots, epsilon=0.1)
    precomp = hopper_allocation_ordered(
        active,
        ascending,
        slots,
        epsilon=0.1,
        total_virtual=sum(s.virtual_size for s in active),
        floors=fairness_floors(active, slots, 0.1),
    )
    assert base == precomp
    for pool in (slots, sum(s.cap for s in active)):
        caps = {s.job_id: s.cap for s in active}
        assert hopper_allocation_ordered(
            active, ascending, pool, epsilon=0.1,
            cap_sum=sum(caps.values()), caps=caps,
        ) == hopper_allocation_ordered(active, ascending, pool, epsilon=0.1)
    srpt_asc = sorted(active, key=lambda j: (j.remaining_tasks, j.job_id))
    assert srpt_allocation_ordered(active, srpt_asc, slots) == srpt_allocation(
        active, slots
    )


def test_everyone_capped_shortcut_returns_caps():
    states = [
        JobAllocationState(job_id=i, virtual_size=4.0, remaining_tasks=2)
        for i in range(5)
    ]
    slots = sum(s.cap for s in states) + 3
    alloc = hopper_allocation(states, slots, epsilon=0.1)
    assert alloc == {s.job_id: s.cap for s in states}
    assert alloc == _ref_hopper(states, slots, epsilon=0.1)


# -- remainder distribution and derived caps --------------------------------


def _capped(caps):
    return [
        JobAllocationState(
            job_id=i, virtual_size=1.0, remaining_tasks=1, max_useful_slots=c
        )
        for i, c in enumerate(caps)
    ]


@st.composite
def _remainder_cases(draw):
    """Jobs (cap, current allocation) in a dispatch order, plus a
    leftover drawn from the edges (1, total deficit - 1) or anywhere."""
    n = draw(st.integers(min_value=1, max_value=8))
    caps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    given_alloc = [draw(st.integers(0, c + 2)) for c in caps]
    order = draw(st.permutations(range(n)))
    deficit = sum(max(0, c - a) for c, a in zip(caps, given_alloc))
    leftover = draw(
        st.one_of(
            st.just(1),
            st.just(max(1, deficit - 1)),
            st.integers(min_value=1, max_value=deficit + 5),
        )
    )
    return caps, given_alloc, list(order), leftover


def _check_remainder(caps, given_alloc, order, leftover):
    jobs = _capped(caps)
    ordered = [jobs[i] for i in order]
    got = dict(enumerate(given_alloc))
    want = dict(got)
    got_left = _distribute_remainder(got, jobs, leftover, ordered)
    want_left = _ref_distribute(want, leftover, ordered)
    assert got == want
    assert got_left == want_left


@given(_remainder_cases())
@settings(max_examples=300, deadline=None)
@example(([5, 5, 5, 5], [0, 0, 0, 0], [2, 0, 3, 1], 11))  # tied deficits
@example(([0, 3, 0, 7], [0, 3, 0, 1], [0, 1, 2, 3], 4))  # zero deficits
@example(([9], [2], [0], 3))  # a single job
@example(([4, 1, 6], [0, 0, 0], [2, 1, 0], 1))  # leftover = 1
@example(([4, 1, 6], [1, 0, 2], [1, 2, 0], 7))  # total deficit - 1
def test_distribute_remainder_matches_round_robin_loop(case):
    _check_remainder(*case)


def test_cap_is_derived_once_and_ignored_by_equality():
    s = JobAllocationState(job_id=3, virtual_size=4.5, remaining_tasks=2)
    assert s.cap == 5  # max(ceil(4.5), 2 * 2)
    twin = JobAllocationState(job_id=3, virtual_size=4.5, remaining_tasks=2)
    object.__setattr__(twin, "cap", 99)
    assert s == twin
    assert hash(s) == hash(twin)
    assert "cap" not in repr(s)
    # replace() rebuilds through __init__, so the cap follows the inputs.
    assert dataclasses.replace(s, remaining_tasks=10).cap == 20
    assert dataclasses.replace(s, max_useful_slots=3).cap == 3
    with pytest.raises(ValueError):
        dataclasses.replace(s, cap=7)


def test_default_cap_matches_the_formula():
    rng = random.Random(23)
    for _ in range(300):
        remaining = rng.randint(0, 60)
        vsize = remaining * rng.uniform(0.0, 3.0) + rng.choice([0.0, 0.5])
        s = JobAllocationState(job_id=0, virtual_size=vsize, remaining_tasks=remaining)
        assert s.cap == max(int(math.ceil(vsize)), 2 * remaining)
        capped = dataclasses.replace(s, max_useful_slots=remaining)
        assert capped.cap == remaining


# -- allocator unit tests ----------------------------------------------------


def _state(job_id, vsize, remaining, weight=1.0):
    return JobAllocationState(
        job_id=job_id,
        virtual_size=vsize,
        remaining_tasks=remaining,
        weight=weight,
    )


def test_allocator_tracks_insertion_and_sorted_orders():
    rng = random.Random(3)
    for policy in (HopperPolicy(epsilon=0.1), SRPTPolicy(), FairPolicy()):
        alloc = IncrementalAllocator(policy)
        live = {}  # job_id -> state, insertion ordered (the reference)
        next_id = 0
        for _ in range(400):
            op = rng.random()
            if op < 0.35 or not live:
                alloc.reserve(next_id)
                state = _state(
                    next_id, rng.uniform(0.0, 50.0), rng.randint(1, 30)
                )
                alloc.upsert(state)
                live[next_id] = state
                next_id += 1
            elif op < 0.75:
                job_id = rng.choice(list(live))
                state = _state(
                    job_id, rng.uniform(0.0, 50.0), rng.randint(1, 30)
                )
                alloc.upsert(state)
                live[job_id] = state
            else:
                job_id = rng.choice(list(live))
                alloc.remove(job_id)
                del live[job_id]
            expected = list(live.values())
            assert alloc.states() == expected
            assert alloc.ordered() == sorted(expected, key=policy.sort_key)
            assert alloc._caps == {s.job_id: s.cap for s in expected}
            assert alloc._cap_sum == sum(s.cap for s in expected)
            subset = set(rng.sample(range(next_id + 2), min(5, next_id + 2)))
            assert alloc.in_order(subset) == [
                s for s in alloc.ordered() if s.job_id in subset
            ]
            slots = rng.choice([0, 5, 50, 500])
            assert alloc.allocate(slots) == policy.allocate(expected, slots)


def test_allocator_reserve_fixes_insertion_position():
    alloc = IncrementalAllocator(HopperPolicy(epsilon=0.1))
    alloc.reserve(0)
    alloc.reserve(1)  # reserved before 0's state ever materializes
    alloc.upsert(_state(1, 5.0, 5))
    alloc.upsert(_state(0, 9.0, 9))
    # Insertion order is reservation order, not upsert order.
    assert [s.job_id for s in alloc.states()] == [0, 1]


def test_allocator_upsert_noop_keeps_version():
    alloc = IncrementalAllocator(HopperPolicy(epsilon=0.1))
    alloc.reserve(0)
    alloc.upsert(_state(0, 5.0, 5))
    before = alloc.version
    alloc.allocate(10)
    assert alloc.upsert(_state(0, 5.0, 5)) is False
    assert alloc.version == before


def test_allocator_regime_flip_matches_full_solve():
    policy = HopperPolicy(epsilon=0.1)
    alloc = IncrementalAllocator(policy)
    states = [_state(i, 10.0, 10) for i in range(4)]
    for s in states:
        alloc.reserve(s.job_id)
        alloc.upsert(s)
    # Rich (slots >> sum of virtual sizes), then constrained, then back.
    for slots in (500, 12, 500, 12):
        assert alloc.allocate(slots) == policy.allocate(states, slots)


# -- property: event-stepped simulation vs from-scratch builders -------------


_SPEC = WorkloadSpec(
    profile=FACEBOOK_PROFILE,
    num_jobs=24,
    utilization=0.7,
    total_slots=96,
    seed=11,
)


def _make_sim(policy, blacklist=None, seed=11):
    num_machines = _SPEC.total_slots // 4
    return CentralizedSimulator(
        cluster=Cluster(num_machines=num_machines, slots_per_machine=4),
        policy=policy,
        speculation=lambda: LATE(),
        trace=build_trace(_SPEC).fresh_copy(),
        straggler_model=MachineCorrelatedStragglerModel(
            num_machines=num_machines
        ),
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=_SPEC.profile.beta,
        ),
        random_source=RandomSource(seed=seed),
        blacklist_policy=blacklist,
    )


def _from_scratch_states(sim):
    """From-scratch allocation-state builder: the oracle the
    simulator's incremental cache must equal. It re-reads every active
    job's inputs from the job structures on every call."""
    beta = sim._beta()
    states = []
    for jr in sim._jobs.values():
        remaining = jr.job.remaining_tasks()
        if remaining <= 0:
            continue
        alpha = sim._job_alpha(jr.job)
        vsize = virtual_size(remaining, beta, alpha)
        priority = vsize
        if sim.policy.uses_virtual_sizes and jr.job.num_phases > 1:
            downstream_tasks = jr.job.downstream_virtual_tasks(sim.config.network_rate)
            if downstream_tasks > 0:
                priority = max(vsize, virtual_size(downstream_tasks, beta))
        max_useful = max(
            int(math.ceil(vsize)),
            sim.config.max_copies_cap * remaining,
        )
        states.append(
            JobAllocationState(
                job_id=jr.job.job_id,
                virtual_size=vsize,
                remaining_tasks=remaining,
                weight=jr.job.weight,
                priority_size=priority,
                max_useful_slots=max_useful,
            )
        )
    return states


def _step_and_check(sim):
    """Run one replay one event at a time, checking every cache against
    its from-scratch reference after every single event. Returns the
    result and how many events changed the allocation regime
    (capacity-constrained <-> rich)."""
    sim.cluster.reset()
    sim.sim.schedule_many(
        (
            (job.arrival_time, sim._on_job_arrival, (job,))
            for job in sim.trace
        ),
        absolute=True,
    )
    events = 0
    flips = 0
    regime = None
    while sim.sim.pending_events:
        sim.sim.run(max_events=1)
        events += 1
        expected = _from_scratch_states(sim)
        sim._refresh_allocation()
        assert sim._alloc.states() == expected
        assert sim._alloc.ordered() == sim.policy.dispatch_order(expected)
        spec_jobs = {
            job_id
            for job_id, jr in sim._jobs.items()
            if jr.running_speculative > 0
        }
        assert sim._spec_job_ids == spec_jobs
        if expected:
            assert sim._alloc.allocate(sim.total_slots) == sim.policy.allocate(
                expected, sim.total_slots
            )
            constrained = sim._alloc.virtual_size_sum() > sim.total_slots
            if regime is not None and constrained != regime:
                flips += 1
            regime = constrained
    assert events > 200  # the interleaving actually exercised something
    sim._finalize_diagnostics()
    return sim.metrics.result, flips


@pytest.mark.parametrize(
    "policy_factory",
    [
        lambda: HopperPolicy(epsilon=0.1),
        lambda: SRPTPolicy(),
        lambda: FairPolicy(),
    ],
    ids=["hopper", "srpt", "fair"],
)
def test_incremental_caches_match_from_scratch_every_event(policy_factory):
    # Eviction (strikes) + probation reinstatement interleave with
    # arrivals, completions, and speculation races — every event class
    # that can invalidate the caches.
    blacklist = StrikeBlacklistPolicy(
        num_machines=_SPEC.total_slots // 4,
        strike_threshold=2,
        strike_multiplier=2.0,
        probation=30.0,
        eviction_cap=0.3,
    )
    policy = policy_factory()
    probed, flips = _step_and_check(_make_sim(policy, blacklist))
    # Guard against vacuous coverage: the run must actually evict (and,
    # with finite probation, reinstate) machines.
    assert len(blacklist.evictions) > 0
    if isinstance(policy, HopperPolicy):
        # The incremental solve is checked against the full solve across
        # real regime flips, not only within one regime.
        assert flips > 0

    # The probing itself must not perturb the replay: a plain run of the
    # identical configuration lands on the same trajectory.
    blacklist2 = StrikeBlacklistPolicy(
        num_machines=_SPEC.total_slots // 4,
        strike_threshold=2,
        strike_multiplier=2.0,
        probation=30.0,
        eviction_cap=0.3,
    )
    plain = _make_sim(policy_factory(), blacklist2).run()
    assert plain.num_jobs == probed.num_jobs
    assert plain.mean_job_duration == probed.mean_job_duration
    assert plain.killed_copies == probed.killed_copies
    assert plain.wasted_slot_time == probed.wasted_slot_time


# -- property: dispatch work sets after every reschedule ---------------------


def _assert_dispatch_work_sets(sim):
    """The dispatch passes' work sets and the allocator's integer cap
    bookkeeping against scans of the simulator state; returns how many
    active jobs the speculation pass may skip."""
    jobs = sim._jobs
    assert sim._pending_job_ids == {j for j, jr in jobs.items() if jr.pending}
    # Outside the speculation work set a visit is a no-op: clean cache,
    # unexpired stamp, and either an evaluated empty candidate list or a
    # job parked at its target while the targets are the caps.
    now = sim.sim.now
    min_interval = sim._spec_eval_min_interval
    caps = sim._alloc._caps
    for job_id, jr in jobs.items():
        if job_id not in sim._spec_work:
            assert not jr.spec_dirty, job_id
            assert now - jr.spec_cache_time < min_interval, job_id
            if jr.spec_candidates != []:
                assert job_id in sim._spec_parked, job_id
                assert sim._alloc.last_capped is not None, job_id
                assert jr.running_copies >= caps.get(job_id, 0), job_id
    expected = _from_scratch_states(sim)
    assert sim._alloc._caps == {s.job_id: s.cap for s in expected}
    assert sim._alloc._cap_sum == sum(s.cap for s in expected)
    return len(jobs.keys() - sim._spec_work)


def _assert_preemption_delta(sim, targets, last_sweep):
    """Before a preemption sweep: every job whose running count or cap
    differs from what the last sweep left (``last_sweep``: job id ->
    (running copies, cap)) is in the delta sets, and when the sweep
    walks only the delta, a visit to any job outside it would kill
    nothing. Returns whether the sweep walks only the delta."""
    alloc = sim._alloc
    moved = sim._moved
    for job_id, jr in sim._jobs.items():
        counts = (jr.running_copies, alloc._caps.get(job_id))
        if last_sweep.get(job_id) != counts:
            assert job_id in moved, job_id
    delta = targets is alloc.last_capped and sim._sweep_capped
    if delta:
        for job_id in sim._spec_job_ids - moved:
            jr = sim._jobs[job_id]
            if jr.running_copies > targets.get(job_id, 0):
                view = jr.view
                assert all(
                    view.num_live_copies(c.task) == 1
                    for c in view.live_speculative_copies()
                ), job_id
    return delta


def _checked(plane):
    """``plane`` with the work-set invariants asserted after every
    reschedule and the preemption-delta invariants before every sweep,
    counting reschedules, skippable job visits, delta sweeps, parked
    jobs and speculation passes that ran the cluster out of free
    slots."""

    class Checked(plane):
        __slots__ = ()
        reschedules = 0
        skipped = 0
        delta_sweeps = 0
        parked = 0
        spec_ran_out = 0
        flips = 0
        last_sweep = {}
        last_capped = None

        def _reschedule(self):
            super()._reschedule()
            type(self).reschedules += 1
            type(self).skipped += _assert_dispatch_work_sets(self)
            type(self).parked += len(self._spec_parked - self._spec_work)

        def _preempt_excess_speculation(self, targets):
            cls = type(self)
            capped = targets is self._alloc.last_capped
            cls.flips += cls.last_capped not in (None, capped)
            cls.last_capped = capped
            cls.delta_sweeps += _assert_preemption_delta(
                self, targets, cls.last_sweep
            )
            super()._preempt_excess_speculation(targets)
            caps = self._alloc._caps
            cls.last_sweep = {
                job_id: (jr.running_copies, caps.get(job_id))
                for job_id, jr in self._jobs.items()
            }

        def _dispatch_speculation(self, targets, pool_limit):
            free = self.cluster.free_slots
            super()._dispatch_speculation(targets, pool_limit)
            if free > 0 and self.cluster.free_slots <= 0:
                type(self).spec_ran_out += 1

    return Checked


_SHRINKS = {
    "autoscaler": "schedule",
    "resize_schedule": "2:-8,4:+8,6:-8,8:+8,10:-8,12:+8",
}

#: plane, speculation mode, speculation policy, extra knobs.
_WORK_SET_GRID = [
    ("centralized", "integrated", "late", {"blacklist_policy": "strikes"}),
    # Shrinks kill originals, leaving speculative copies as their tasks'
    # only live copies, which the preemption sweep must spare.
    ("centralized", "integrated", "grass", _SHRINKS),
    ("centralized", "best_effort", "mantri", {}),
    ("centralized", "budgeted", "late", _SHRINKS),
    ("centralized", "integrated", "grass", {}),
    # No throttle: every stamp is expired at once, so no job ever leaves.
    (
        "centralized",
        "integrated",
        "late",
        {
            "config": CentralizedConfig(
                spec_eval_min_interval=0.0,
                default_beta=SPARK_FACEBOOK_PROFILE.beta,
            )
        },
    ),
    ("batch", "integrated", "mantri", {}),
    ("batch", "budgeted", "grass", {"blacklist_policy": "strikes", **_SHRINKS}),
]


@pytest.mark.parametrize(
    "plane,mode,speculation,knobs",
    _WORK_SET_GRID,
    ids=["-".join(case[:3]) + ("-" + "-".join(case[3]) if case[3] else "")
         for case in _WORK_SET_GRID],
)
def test_dispatch_work_sets_match_scans_after_every_reschedule(
    plane, mode, speculation, knobs
):
    from repro.batch.simulator import BatchSimulator
    from repro.experiments.harness import _centralized_family_kwargs

    spec = WorkloadSpec(
        profile=SPARK_FACEBOOK_PROFILE,
        num_jobs=60,
        utilization=0.9,
        total_slots=60,
        seed=2,
    )
    cls = _checked(BatchSimulator if plane == "batch" else CentralizedSimulator)
    sim = cls(
        **_centralized_family_kwargs(
            build_trace(spec),
            "hopper",
            spec,
            plane,
            speculation=speculation,
            speculation_mode=mode,
            straggler_model="machine-correlated",
            obs=None,
            **knobs,
        )
    )
    result = sim.run()
    assert result.num_jobs == spec.num_jobs
    assert cls.reschedules > 100
    if "config" in knobs:
        assert cls.skipped == 0  # unthrottled: every visit restamps
        assert cls.parked == 0  # ditto: no stamp is ever unexpired
    else:
        assert cls.skipped > 0  # the work set does leave jobs out
        if mode == "integrated":
            assert cls.parked > 0  # and parks jobs at their target
    if mode == "integrated":
        assert cls.delta_sweeps > 0  # sweeps walked only the delta
    assert result.speculative_copies > 0
    if "blacklist_policy" in knobs:
        assert result.evictions > 0
    if plane == "centralized" and mode == "budgeted":
        # The shrinks leave originals above the new fence, so a
        # speculation pass runs the cluster out of slots midway.
        assert cls.spec_ran_out > 0


def test_work_sets_and_preemption_delta_hold_across_regime_flips():
    # A capacity-rich cluster that scheduled shrinks push into the
    # constrained regime and back: parked jobs must return on every
    # flip, and sweeps alternate between the delta and the full walk.
    from repro.experiments.harness import _centralized_family_kwargs

    spec = WorkloadSpec(
        profile=SPARK_FACEBOOK_PROFILE,
        num_jobs=120,
        utilization=0.6,
        total_slots=2000,
        seed=5,
    )
    cls = _checked(CentralizedSimulator)
    sim = cls(
        **_centralized_family_kwargs(
            build_trace(spec),
            "hopper",
            spec,
            "centralized",
            obs=None,
            autoscaler="schedule",
            resize_schedule="20:-400,60:+400,100:-450,140:+450",
        )
    )
    result = sim.run()
    assert result.num_jobs == spec.num_jobs
    assert cls.flips >= 4
    assert cls.delta_sweeps > 1000 and cls.parked > 0
    assert result.killed_copies > 0


# -- behavioral identity: tracked-set speculation preemption -----------------


class _FullSweepSimulator(CentralizedSimulator):
    """The pre-optimization preemption sweep: every job, arrival order."""

    __slots__ = ()

    def _preempt_excess_speculation(self, targets):
        now = self.sim.now
        for job_id, jr in list(self._jobs.items()):
            target = targets.get(job_id, 0)
            excess = jr.running_copies - target
            if excess <= 0 or jr.running_speculative <= 0:
                continue
            victims = jr.view.live_speculative_copies()
            victims.sort(key=lambda c: c.elapsed(now))
            for victim in victims[: min(excess, len(victims))]:
                self._kill_copy(victim, jr)


def _preemption_run(cls):
    spec = WorkloadSpec(
        profile=FACEBOOK_PROFILE,
        num_jobs=30,
        utilization=0.9,  # pressure: targets shrink, preemption fires
        total_slots=64,
        seed=5,
    )
    sim = cls(
        cluster=Cluster(num_machines=16, slots_per_machine=4),
        policy=HopperPolicy(epsilon=0.1),
        speculation=lambda: LATE(),
        trace=build_trace(spec).fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(beta=1.15),
        config=CentralizedConfig(
            epsilon=0.1,
            speculation_mode=SpeculationMode.INTEGRATED,
            default_beta=spec.profile.beta,
        ),
        random_source=RandomSource(seed=5),
    )
    return sim.run()


def test_spec_preemption_tracked_set_matches_full_sweep():
    fast = _preemption_run(CentralizedSimulator)
    slow = _preemption_run(_FullSweepSimulator)
    # The run must actually preempt for the comparison to mean anything.
    assert fast.killed_copies > 0
    assert fast.killed_copies == slow.killed_copies
    assert fast.wasted_slot_time == slow.wasted_slot_time
    assert fast.num_jobs == slow.num_jobs
    assert [j.duration for j in fast.jobs] == [j.duration for j in slow.jobs]


#: sha256 of the replay below, captured once the preemption sweep spared
#: a task's only live copy. Before that fix the replay lost a task and
#: never finished, so there was no earlier output to pin.
_SOLE_COPY_DIGEST = (
    "5ccd54f3a50c087938cf946e565aae4afa4ce558f27e467ee07a82eee8e14d3a"
)


def test_preemption_never_kills_a_tasks_only_live_copy():
    # Shrinks kill originals mid-run; their speculative siblings then
    # carry the tasks alone. Killing one as "excess" speculation would
    # lose its task: the job never completes and, unbounded, the
    # periodic speculation check re-arms forever.
    import hashlib
    import json

    from repro.experiments.harness import _centralized_family_kwargs
    from repro.metrics.serialize import result_to_dict

    spec = WorkloadSpec(
        profile=SPARK_FACEBOOK_PROFILE,
        num_jobs=60,
        utilization=0.9,
        total_slots=60,
        seed=2,
    )
    sim = CentralizedSimulator(
        **_centralized_family_kwargs(
            build_trace(spec),
            "hopper",
            spec,
            "centralized",
            speculation="grass",
            speculation_mode="integrated",
            straggler_model="machine-correlated",
            obs=None,
            **_SHRINKS,
        )
    )
    result = sim.run(until=5000)
    assert result.num_jobs == spec.num_jobs
    payload = json.dumps(
        [result_to_dict(result)], sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == _SOLE_COPY_DIGEST


def test_shortcut_regime_consistent_with_virtual_sum():
    # Whenever caps cover virtual sizes, which the simulator guarantees
    # (max_useful = max(ceil(vsize), k*remaining)), the everyone-capped
    # shortcut only fires in the capacity-rich regime and returns the
    # caps. Caps below the virtual size are pinned by the reference
    # differential above.
    rng = random.Random(13)
    for _ in range(50):
        states = [
            s
            for s in _random_states(rng, rng.randint(1, 10))
            if s.remaining_tasks > 0
        ]
        states = [
            JobAllocationState(
                job_id=s.job_id,
                virtual_size=s.virtual_size,
                remaining_tasks=s.remaining_tasks,
                weight=s.weight,
                priority_size=s.priority_size,
                max_useful_slots=max(
                    math.ceil(s.virtual_size), s.max_useful_slots or 0
                ),
            )
            for s in states
        ]
        active = states
        if not active:
            continue
        cap_sum = sum(s.cap for s in active)
        slots = cap_sum + rng.randint(0, 5)
        vsum = sum(s.virtual_size for s in active)
        assert vsum <= cap_sum <= slots  # cap >= ceil(vsize) per job
        ascending = sorted(active, key=lambda j: (j.order_key, j.job_id))
        alloc = hopper_allocation_ordered(active, ascending, slots, epsilon=0.1)
        assert not (slots < vsum)
        assert alloc == {s.job_id: s.cap for s in active}


def test_caps_default_covers_virtual_size():
    # The shortcut's regime consistency rests on cap >= virtual_size.
    rng = random.Random(17)
    for _ in range(200):
        remaining = rng.randint(1, 50)
        s = JobAllocationState(
            job_id=0,
            virtual_size=remaining * rng.uniform(0.0, 3.0),
            remaining_tasks=remaining,
        )
        assert s.cap >= math.ceil(s.virtual_size) or s.cap >= s.virtual_size
