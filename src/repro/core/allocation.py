"""Slot allocation: Pseudocode 1 (Hopper) and the Fair / SRPT baselines.

These are *pure functions*: they map (job states, total slots) to integer
allocations and are shared by the centralized simulator, the decentralized
worker logic, and the test suite.

Hopper's two regimes (§4.1):

* **Guideline 2** — capacity constrained (``S < sum of virtual sizes``):
  serve jobs in ascending virtual size, giving each its full virtual size
  until slots run out (SRPT-like, but with speculation headroom).
* **Guideline 3** — capacity rich: split slots proportionally to virtual
  sizes (big jobs straggle proportionally more, so extra speculation slots
  are worth more there).

ε-fairness (§4.3) projects either allocation into the set where every job
gets at least ``(1 - eps) * S / N`` slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.fairness import fairness_floors


@dataclass(frozen=True)
class JobAllocationState:
    """What the allocator needs to know about one job.

    Attributes
    ----------
    job_id:
        Identifier used as the key of the returned allocation map.
    virtual_size:
        V_i(t) — see :func:`repro.core.virtual_size.virtual_size`.
    remaining_tasks:
        T_i(t), unfinished task count.
    weight:
        Fair-share weight.
    priority_size:
        Ordering key for Guideline 2. Defaults to ``virtual_size``; for
        DAGs the paper uses ``max(V_i, V'_i)`` where V' covers downstream
        communication (§4.2).
    max_useful_slots:
        Hard cap on usable slots (e.g. 2 copies per remaining task).
        ``None`` means uncapped.
    cap:
        Derived, not an argument: ``max_useful_slots`` when given, else
        room for the virtual size or two copies of every task, whichever
        is larger. Computed once at construction (the solve reads it
        many times per job) and ignored by ``==`` and ``hash``.
    """

    job_id: int
    virtual_size: float
    remaining_tasks: int
    weight: float = 1.0
    priority_size: Optional[float] = None
    max_useful_slots: Optional[int] = None
    cap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.virtual_size < 0:
            raise ValueError("virtual_size must be non-negative")
        if self.remaining_tasks < 0:
            raise ValueError("remaining_tasks must be non-negative")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        cap = self.max_useful_slots
        if cap is None:
            cap = max(int(math.ceil(self.virtual_size)), 2 * self.remaining_tasks)
        object.__setattr__(self, "cap", cap)

    @property
    def order_key(self) -> float:
        return (
            self.priority_size
            if self.priority_size is not None
            else self.virtual_size
        )


def is_capacity_constrained(
    jobs: Sequence[JobAllocationState], total_slots: int
) -> bool:
    """True when S < sum of virtual sizes (Guideline 2 applies)."""
    return total_slots < sum(j.virtual_size for j in jobs)


def _distribute_remainder(
    alloc: Dict[int, int],
    jobs: Sequence[JobAllocationState],
    leftover: int,
    order: Sequence[JobAllocationState],
) -> int:
    """Hand out leftover slots round-robin in the given order, up to
    each job's cap; returns slots still left.

    Semantically this is repeated passes over ``order`` granting one
    slot per under-cap job until slots or deficits run out. That loop is
    O(passes x jobs) — the dominant solve cost on big capacity-rich
    clusters, where leftover is thousands — so the final integer state
    is computed in closed form instead: after ``r`` complete passes each
    job has received ``min(deficit, r)``, and the remaining slots go one
    each, in order, to the jobs whose deficit exceeds ``r``. ``r`` comes
    from one water-fill over the ascending deficits. Pure integer
    arithmetic, bit-identical to the loop it replaces.
    """
    if leftover <= 0 or not order:
        return leftover
    deficits = []
    total = 0
    for job in order:
        d = job.cap - alloc[job.job_id]
        if d < 0:
            d = 0
        deficits.append(d)
        total += d
    if total <= leftover:
        # Every job caps out; slots may remain.
        for job, d in zip(order, deficits):
            if d > 0:
                alloc[job.job_id] += d
        return leftover - total
    # Largest complete-pass count r with sum(min(d, r)) <= leftover:
    # raise the water level through the ascending deficits. ``filled``
    # is the sum of the deficits already under water, ``above`` the
    # number of jobs still above it. total > leftover guarantees a
    # break, at the latest on the largest deficit.
    filled = 0
    above = len(deficits)
    for d in sorted(deficits):
        if filled + above * d > leftover:
            break
        filled += d
        above -= 1
    r = (leftover - filled) // above
    rem = leftover - filled - above * r
    for job, d in zip(order, deficits):
        give = d if d < r else r
        if rem > 0 and d > give:
            give += 1
            rem -= 1
        if give > 0:
            alloc[job.job_id] += give
    return 0


def hopper_allocation(
    jobs: Sequence[JobAllocationState],
    total_slots: int,
    epsilon: float = 1.0,
    force_regime: Optional[str] = None,
) -> Dict[int, int]:
    """Pseudocode 1 with ε-fairness projection.

    Parameters
    ----------
    jobs:
        Active jobs (remaining_tasks > 0 expected).
    total_slots:
        S — slots to hand out.
    epsilon:
        Fairness knob in [0, 1]; every job is guaranteed at least
        ``(1 - epsilon) * S * w_i / sum(w)`` slots. ``epsilon = 1`` means
        pure performance (no fairness floor); ``epsilon = 0`` means
        perfectly fair floors.
    force_regime:
        Ablation hook: ``"constrained"`` always applies Guideline 2,
        ``"rich"`` always applies Guideline 3, ``None`` (default) picks by
        comparing S to the sum of virtual sizes.

    Returns
    -------
    dict mapping job_id -> integer slot count, summing to at most
    ``total_slots``.
    """
    if total_slots < 0:
        raise ValueError("total_slots must be non-negative")
    if force_regime not in (None, "constrained", "rich"):
        raise ValueError(f"invalid force_regime: {force_regime!r}")
    active = [j for j in jobs if j.remaining_tasks > 0]
    if not active or total_slots == 0:
        return {j.job_id: 0 for j in active}
    ascending = sorted(active, key=lambda j: (j.order_key, j.job_id))
    return hopper_allocation_ordered(
        active, ascending, total_slots, epsilon, force_regime
    )


def hopper_allocation_ordered(
    active: Sequence[JobAllocationState],
    ascending: Sequence[JobAllocationState],
    total_slots: int,
    epsilon: float = 1.0,
    force_regime: Optional[str] = None,
    total_virtual: Optional[float] = None,
    floors: Optional[Dict[int, int]] = None,
    cap_sum: Optional[int] = None,
    caps: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """:func:`hopper_allocation` with the sort hoisted out.

    The incremental allocation engine maintains the ascending
    ``(order_key, job_id)`` order between events by delta, so the solve
    itself should not re-sort. Callers must pass ``active`` already
    filtered to ``remaining_tasks > 0`` in the same iteration order the
    from-scratch path would produce (insertion order of the active set
    — every float sum below accumulates in that order, which is what
    keeps the two paths byte-identical), and ``ascending`` sorted by
    ``(order_key, job_id)``.

    ``total_virtual`` (the insertion-order sum of active virtual sizes)
    and ``floors`` (:func:`~repro.core.fairness.fairness_floors` for the
    same set and slots) may be supplied precomputed — the incremental
    engine memoizes both between events; when omitted they are computed
    here exactly as the from-scratch path does. So may ``cap_sum`` and
    ``caps`` (the integer sum of the active caps and a ``job_id -> cap``
    dict over the same set), which the engine maintains per upsert;
    they must be passed together.
    """
    if total_slots < 0:
        raise ValueError("total_slots must be non-negative")
    if force_regime not in (None, "constrained", "rich"):
        raise ValueError(f"invalid force_regime: {force_regime!r}")
    if not active or total_slots == 0:
        return {j.job_id: 0 for j in active}

    # Everyone-capped shortcut. When the caps sum to no more than S the
    # full algorithm provably ends with every job at its cap, whatever
    # the floors, regime, or fill order: every intermediate allocation
    # keeps alloc_i <= cap_i, so leftover = S - sum(alloc) always covers
    # the outstanding deficits sum(cap) - sum(alloc), and the final
    # remainder pass tops every job up. The result is pure integers, so
    # returning it directly is bit-identical — and on big capacity-rich
    # clusters (the 10k/100k-slot regime, where caps bind long before
    # slots run out) it turns the per-event solve into one int sum, or
    # into a dict copy when the caller maintains the sum.
    if caps is None:
        caps = {j.job_id: j.cap for j in active}
        cap_sum = sum(caps.values())
    if cap_sum <= total_slots:
        return dict(caps)

    if floors is None:
        floors = fairness_floors(active, total_slots, epsilon)
    alloc: Dict[int, int] = {}
    for job in active:
        floor = floors[job.job_id]
        cap = job.cap
        alloc[job.job_id] = floor if floor < cap else cap
    leftover = total_slots - sum(alloc.values())

    if total_virtual is None:
        total_virtual = sum(j.virtual_size for j in active)
    if force_regime == "constrained":
        constrained = True
    elif force_regime == "rich":
        constrained = False
    else:
        constrained = total_slots < total_virtual

    if constrained:
        # Guideline 2: fill jobs to their virtual size, smallest first.
        for job in ascending:
            if leftover <= 0:
                break
            job_id = job.job_id
            target = int(job.virtual_size)
            if target > job.cap:
                target = job.cap
            give = target - alloc[job_id]
            if give > 0:
                if give > leftover:
                    give = leftover
                alloc[job_id] += give
                leftover -= give
        # Rounding / floor interactions can leave slack; spill it smallest
        # jobs first, up to caps.
        leftover = _distribute_remainder(alloc, active, leftover, ascending)
    else:
        # Guideline 3: proportional to virtual sizes.
        if total_virtual <= 0:
            leftover = _distribute_remainder(alloc, active, leftover, ascending)
            return alloc
        shares = {
            j.job_id: total_slots * j.virtual_size / total_virtual
            for j in active
        }
        # Raise below-share jobs toward their proportional share.
        for job in ascending:
            if leftover <= 0:
                break
            job_id = job.job_id
            target = int(shares[job_id])
            if target > job.cap:
                target = job.cap
            give = target - alloc[job_id]
            if give > 0:
                if give > leftover:
                    give = leftover
                alloc[job_id] += give
                leftover -= give
        # Remaining slots (fractional parts): largest fractional share first.
        frac_order = sorted(
            active,
            key=lambda j: (shares[j.job_id] - int(shares[j.job_id])),
            reverse=True,
        )
        leftover = _distribute_remainder(alloc, active, leftover, frac_order)

    return alloc


def srpt_allocation(
    jobs: Sequence[JobAllocationState],
    total_slots: int,
    best_effort_speculation: bool = True,
) -> Dict[int, int]:
    """Shortest Remaining Processing Time baseline.

    Jobs are served in ascending remaining-task order; each gets one slot
    per remaining task. With ``best_effort_speculation`` leftover slots
    are then handed out (smallest jobs first, up to caps) so speculative
    copies can piggyback on idle capacity — the §3 "best-effort" strawman.
    """
    if total_slots < 0:
        raise ValueError("total_slots must be non-negative")
    active = [j for j in jobs if j.remaining_tasks > 0]
    ascending = sorted(active, key=lambda j: (j.remaining_tasks, j.job_id))
    return srpt_allocation_ordered(
        active, ascending, total_slots, best_effort_speculation
    )


def srpt_allocation_ordered(
    active: Sequence[JobAllocationState],
    ascending: Sequence[JobAllocationState],
    total_slots: int,
    best_effort_speculation: bool = True,
) -> Dict[int, int]:
    """:func:`srpt_allocation` with the sort hoisted out.

    ``active`` must be pre-filtered to ``remaining_tasks > 0`` and
    ``ascending`` sorted by ``(remaining_tasks, job_id)``; see
    :func:`hopper_allocation_ordered` for why callers own the ordering.
    """
    if total_slots < 0:
        raise ValueError("total_slots must be non-negative")
    alloc: Dict[int, int] = {j.job_id: 0 for j in active}
    leftover = total_slots
    for job in ascending:
        give = min(leftover, job.remaining_tasks)
        alloc[job.job_id] = give
        leftover -= give
        if leftover <= 0:
            break
    if best_effort_speculation and leftover > 0:
        leftover = _distribute_remainder(alloc, active, leftover, ascending)
    return alloc


def fair_allocation(
    jobs: Sequence[JobAllocationState],
    total_slots: int,
) -> Dict[int, int]:
    """Weighted max-min fair shares (the deployed default, §2.1).

    Each job's share is proportional to its weight, capped at what it can
    use; capacity freed by capped jobs is redistributed (water-filling).
    """
    if total_slots < 0:
        raise ValueError("total_slots must be non-negative")
    active = [j for j in jobs if j.remaining_tasks > 0]
    alloc: Dict[int, int] = {j.job_id: 0 for j in active}
    remaining = list(active)
    leftover = total_slots
    # Water-filling over caps.
    while remaining and leftover > 0:
        total_weight = sum(j.weight for j in remaining)
        share = leftover / total_weight
        saturated = [
            j
            for j in remaining
            if j.cap - alloc[j.job_id] <= share * j.weight
        ]
        if not saturated:
            break
        for job in saturated:
            give = job.cap - alloc[job.job_id]
            alloc[job.job_id] += give
            leftover -= give
            remaining.remove(job)
    if remaining and leftover > 0:
        total_weight = sum(j.weight for j in remaining)
        provisional = {
            j.job_id: int(leftover * j.weight / total_weight) for j in remaining
        }
        for job in remaining:
            give = min(provisional[job.job_id], job.cap - alloc[job.job_id])
            alloc[job.job_id] += give
        leftover = total_slots - sum(alloc.values())
        order = sorted(remaining, key=lambda j: alloc[j.job_id])
        _distribute_remainder(alloc, active, leftover, order)
    return alloc
