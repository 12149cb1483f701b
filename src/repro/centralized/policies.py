"""Centralized allocation policies: Fair, SRPT, and Hopper.

A policy maps job states to integer slot targets and defines the order in
which slot deficits are filled. The heavy lifting lives in
:mod:`repro.core.allocation`; policies are thin, named adapters around it.

Two hooks exist for the incremental allocation engine
(:class:`repro.core.incremental.IncrementalAllocator`):

* :meth:`CentralizedPolicy.sort_key` — the dispatch-order key. It MUST
  end in the unique ``job_id`` (the engine's sorted container needs a
  total order, and maps entries back to states by that trailing id).
* :meth:`CentralizedPolicy.capped_targets` — the targets when the
  policy can prove they are exactly the caps, decided from the cap sum
  alone so the engine returns them before materializing any list. Only
  Hopper proves it; the default declines, so the Fair and SRPT solves
  always run.
* :meth:`CentralizedPolicy.allocate_ordered` — the solve given
  pre-maintained orders. The default falls back to the full
  :meth:`allocate`; policies whose solve begins with a sort override it
  so the maintained order is reused. An override must produce the same
  ordering its :meth:`sort_key` defines — a subclass changing one must
  change both.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

from repro.core.allocation import (
    JobAllocationState,
    fair_allocation,
    hopper_allocation,
    hopper_allocation_ordered,
    srpt_allocation,
    srpt_allocation_ordered,
)
from repro.core.fairness import fairness_floors as core_fairness_floors


class CentralizedPolicy(ABC):
    """Interface for centralized slot-allocation policies."""

    name: str = "base"

    #: Hopper uses learned virtual sizes; baselines ignore them.
    uses_virtual_sizes: bool = False

    @abstractmethod
    def allocate(
        self, states: Sequence[JobAllocationState], total_slots: int
    ) -> Dict[int, int]:
        """Target slots per job id, summing to at most ``total_slots``."""

    def sort_key(self, state: JobAllocationState) -> tuple:
        """Dispatch-order sort key; must end in the unique ``job_id``."""
        return (state.order_key, state.job_id)

    def dispatch_order(
        self, states: Sequence[JobAllocationState]
    ) -> List[JobAllocationState]:
        """Order in which deficits are filled when slots free up."""
        return sorted(states, key=self.sort_key)

    def fairness_floors(
        self, states: Sequence[JobAllocationState], total_slots: int
    ) -> Optional[Dict[int, int]]:
        """Per-job minimum slot guarantees, or None for floor-free
        policies. Floors depend only on membership, weights, and the
        slot pool, so the incremental engine caches them across the
        per-completion state churn."""
        return None

    def capped_targets(
        self, total_slots: int, cap_sum: int, caps: Dict[int, int]
    ) -> Optional[Dict[int, int]]:
        """The targets when they are provably ``caps`` (a ``job_id ->
        cap`` dict over the active states, summing to ``cap_sum``), or
        None when the full solve must run. The default always declines."""
        return None

    def allocate_ordered(
        self,
        active: Sequence[JobAllocationState],
        ascending: Sequence[JobAllocationState],
        total_slots: int,
        total_virtual: Optional[float] = None,
        floors: Optional[Dict[int, int]] = None,
        cap_sum: Optional[int] = None,
        caps: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """Solve with pre-maintained orders: ``active`` in insertion
        order (pre-filtered to ``remaining_tasks > 0``), ``ascending``
        sorted by :meth:`sort_key`. ``total_virtual``, ``floors``,
        ``cap_sum`` and ``caps`` are optional precomputed values (the
        insertion-order virtual size sum, this policy's
        :meth:`fairness_floors`, the integer sum of the caps and a
        ``job_id -> cap`` dict) the caller may pass to skip recomputing
        them.

        The base falls back to the from-scratch solve — correct for any
        policy, incremental for none."""
        return self.allocate(active, total_slots)


class FairPolicy(CentralizedPolicy):
    """Weighted max-min fair sharing — the deployed default (§2.1)."""

    name = "fair"

    def allocate(
        self, states: Sequence[JobAllocationState], total_slots: int
    ) -> Dict[int, int]:
        return fair_allocation(states, total_slots)

    def sort_key(self, state: JobAllocationState) -> tuple:
        # Serve jobs round-robin-ish: fewest remaining first keeps parity.
        return (state.remaining_tasks, state.job_id)

    def allocate_ordered(
        self,
        active: Sequence[JobAllocationState],
        ascending: Sequence[JobAllocationState],
        total_slots: int,
        total_virtual: Optional[float] = None,
        floors: Optional[Dict[int, int]] = None,
        cap_sum: Optional[int] = None,
        caps: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        # Water-filling iterates the insertion-ordered active list
        # directly (no internal sort to hoist); the incremental win for
        # fair is the cached states, not the solve.
        return fair_allocation(active, total_slots)


class SRPTPolicy(CentralizedPolicy):
    """Shortest Remaining Processing Time — the performance baseline the
    paper compares centralized Hopper against (§7.4)."""

    name = "srpt"

    def __init__(self, best_effort_speculation: bool = True) -> None:
        self.best_effort_speculation = best_effort_speculation

    def allocate(
        self, states: Sequence[JobAllocationState], total_slots: int
    ) -> Dict[int, int]:
        return srpt_allocation(
            states,
            total_slots,
            best_effort_speculation=self.best_effort_speculation,
        )

    def sort_key(self, state: JobAllocationState) -> tuple:
        return (state.remaining_tasks, state.job_id)

    def allocate_ordered(
        self,
        active: Sequence[JobAllocationState],
        ascending: Sequence[JobAllocationState],
        total_slots: int,
        total_virtual: Optional[float] = None,
        floors: Optional[Dict[int, int]] = None,
        cap_sum: Optional[int] = None,
        caps: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        # sort_key == (remaining_tasks, job_id) == the solve's own
        # ascending order, so the maintained dispatch order doubles as
        # the solve order.
        return srpt_allocation_ordered(
            active,
            ascending,
            total_slots,
            best_effort_speculation=self.best_effort_speculation,
        )


class HopperPolicy(CentralizedPolicy):
    """Speculation-aware allocation (Pseudocode 1) with ε-fairness.

    ``force_regime`` is an ablation hook: "constrained" always applies
    Guideline 2, "rich" always Guideline 3 (``tests/test_paper_shapes.py``
    compares both with the adaptive policy).
    """

    name = "hopper"
    uses_virtual_sizes = True

    def __init__(
        self, epsilon: float = 0.1, force_regime: str = None
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.force_regime = force_regime
        if force_regime is not None:
            self.name = f"hopper-{force_regime}"

    def allocate(
        self, states: Sequence[JobAllocationState], total_slots: int
    ) -> Dict[int, int]:
        return hopper_allocation(
            states,
            total_slots,
            epsilon=self.epsilon,
            force_regime=self.force_regime,
        )

    def fairness_floors(
        self, states: Sequence[JobAllocationState], total_slots: int
    ) -> Optional[Dict[int, int]]:
        return core_fairness_floors(states, total_slots, self.epsilon)

    def capped_targets(
        self, total_slots: int, cap_sum: int, caps: Dict[int, int]
    ) -> Optional[Dict[int, int]]:
        # The everyone-capped shortcut of hopper_allocation_ordered,
        # which proves that caps summing to at most the pool are the
        # targets whatever the floors, regime or fill order.
        if cap_sum <= total_slots:
            return dict(caps)
        return None

    def allocate_ordered(
        self,
        active: Sequence[JobAllocationState],
        ascending: Sequence[JobAllocationState],
        total_slots: int,
        total_virtual: Optional[float] = None,
        floors: Optional[Dict[int, int]] = None,
        cap_sum: Optional[int] = None,
        caps: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        # sort_key == (order_key, job_id) == the ascending virtual-size
        # order Guideline 2/3 fill in.
        return hopper_allocation_ordered(
            active,
            ascending,
            total_slots,
            epsilon=self.epsilon,
            force_regime=self.force_regime,
            total_virtual=total_virtual,
            floors=floors,
            cap_sum=cap_sum,
            caps=caps,
        )
