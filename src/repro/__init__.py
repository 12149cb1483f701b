"""repro — a reproduction of *Hopper: Decentralized Speculation-aware
Cluster Scheduling at Scale* (Ren et al., SIGCOMM 2015).

Public API highlights
---------------------
* :mod:`repro.core` — virtual job sizes and the Hopper allocation rules.
* :mod:`repro.centralized` — centralized simulator with Fair/SRPT/Hopper.
* :mod:`repro.decentralized` — Sparrow-style decentralized simulator with
  Sparrow, Sparrow-SRPT and decentralized Hopper.
* :mod:`repro.speculation` — LATE, Mantri and GRASS.
* :mod:`repro.workload` — synthetic Facebook/Bing-like trace generators.
* :mod:`repro.experiments` — one entry point per paper figure/table.
* :mod:`repro.sweep` — parallel sweep orchestration with a deterministic
  on-disk result cache, plus multi-seed :class:`~repro.sweep.Study`
  grids with bootstrap CIs (also: the ``python -m repro`` CLI).
* :mod:`repro.registry` — name registries (systems, policies, straggler
  models, profiles, spec kinds, studies); the extension point for
  plugging in new named things end-to-end.
"""

__version__ = "1.2.0"

from repro._lazy import lazy_exports

# Importing any ``repro`` module runs this file, so it names the core
# functions without importing :mod:`repro.core`: a decentralized run
# never loads the centralized allocator.
__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "core": (
            "JobAllocationState",
            "hopper_allocation",
            "srpt_allocation",
            "fair_allocation",
            "virtual_size",
            "threshold_multiplier",
        ),
    },
)
__all__ += ["__version__"]
