"""The ``blacklist_policy`` study: does strike-driven mid-run eviction
close the §2.2 loop?

The ``blacklist`` study (PR 4) showed *that* machine-correlated
stragglers behave differently from the paper's i.i.d. redraw model; this
study asks whether the strike-driven :class:`~repro.cluster.policy.
StrikeBlacklistPolicy` actually helps once it is allowed to evict flaky
machines while the run is in flight. The grid crosses:

* **eviction**: ``none`` (the substrate stays idle) vs ``strikes``
  (k slow completions within a sliding window evict, capped);
* **straggler model**: ``machine-correlated`` (a persistent flaky
  fraction — the regime blacklisting is *for*) vs ``pareto-redraw``
  (the paper's i.i.d. model, where eviction can only misfire);
* **plane**: the centralized dispatch/reschedule path and the
  decentralized probe/launch path, both on Hopper.

Expected shape: under ``machine-correlated``, eviction drains the flaky
fraction's busy-slot share and mean job completion time improves; under
``pareto-redraw`` there is no machine signal to find, so the policy
should stay close to neutral (strikes scatter and rarely cluster within
the window) — the cap bounds the damage when it does misfire::

    python -m repro study blacklist_policy --quick
    python -m repro study blacklist_policy --seeds 1,2,3

The study's golden digest was pinned in ``tests/test_golden_results.py``
the day it was born, and the eviction-on / eviction-off comparison under
machine-correlated stragglers is asserted behaviourally there too.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import Cell, Study, cell, register_study

#: (spec kind, system) pairs — one per simulator plane.
DEFAULT_SYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("centralized", "hopper"),
    ("decentralized", "hopper"),
)

#: Strike knobs the eviction cells run with. Spelled out explicitly in
#: the spec knobs (never defaulted) so the cells' content digests are
#: stable even if the policy's own defaults move later.
STRIKE_KNOBS: Dict[str, object] = {
    "blacklist_policy": "strikes",
    "strike_threshold": 3,
    "strike_window": 60.0,
    "eviction_cap": 0.15,
}


def _blacklist_policy_cells(
    straggler_models: Sequence[str] = ("machine-correlated", "pareto-redraw"),
    policies: Sequence[str] = ("none", "strikes"),
    systems: Sequence[Tuple[str, str]] = DEFAULT_SYSTEMS,
    num_jobs: int = 120,
    utilization: float = 0.6,
    total_slots: int = 400,
) -> List[Cell]:
    workload = WorkloadParams(
        profile="facebook",
        num_jobs=num_jobs,
        utilization=utilization,
        total_slots=total_slots,
    )
    cells: List[Cell] = []
    for model in straggler_models:
        for policy in policies:
            knobs: Dict[str, object] = {"straggler_model": model}
            if policy != "none":
                knobs.update(STRIKE_KNOBS)
                knobs["blacklist_policy"] = policy
            cells.extend(
                cell(
                    RunSpec(kind, system, workload, knobs=knobs),
                    straggler_model=model,
                    eviction=policy,
                    kind=kind,
                    system=system,
                )
                for kind, system in systems
            )
    return cells


BLACKLIST_POLICY_STUDY = register_study(
    Study(
        name="blacklist_policy",
        description=(
            "strike-driven mid-run eviction on/off x machine-correlated/"
            "pareto-redraw stragglers, on both simulator planes"
        ),
        build_cells=_blacklist_policy_cells,
        quick=dict(num_jobs=30, total_slots=200),
    )
)
