"""Hopper's core: virtual job sizes and speculation-aware allocation.

This package contains the paper's primary contribution as *pure
functions* over lightweight job descriptors, so the same logic drives the
centralized simulator, the decentralized workers, unit tests, and
property-based tests. :mod:`repro.core.incremental` adds the stateful
delta-maintained layer the centralized family runs those functions
through at scale.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "virtual_size": ("threshold_multiplier", "virtual_size"),
        "allocation": (
            "JobAllocationState",
            "hopper_allocation",
            "hopper_allocation_ordered",
            "srpt_allocation",
            "srpt_allocation_ordered",
            "fair_allocation",
            "is_capacity_constrained",
        ),
        "fairness": ("fairness_floors",),
        "locality": ("pick_job_with_locality",),
        "incremental": ("IncrementalAllocator",),
    },
)
