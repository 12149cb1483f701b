"""The ``elastic`` study: mid-run cluster resizes across all planes.

The paper's experiments hold cluster size fixed for a run; production
clusters do not — autoscalers add and remove machines while jobs are in
flight. This study measures what that churn costs each scheduler plane.
The grid crosses:

* **resize amplitude** — the fraction of the cluster a scheduled
  autoscaler removes mid-run and later adds back (``0`` labels the
  static baseline, spelled as an explicit ``autoscaler="none"`` knob —
  pinned byte-identical to the bare spec by a differential test in
  ``tests/test_golden_results.py``);
* **plane** — centralized per-arrival, decentralized probe-based, and
  batch rounds, same policy (Hopper), same trace, same run seed. Each
  plane absorbs the resize differently: centralized re-dispatches at
  the resize instant, batch folds it into the next round, decentralized
  shrinks the probe pool and requeues orphaned copies;
* **speculation** — LATE vs none, because losing machines mid-run also
  kills speculative copies, compounding the straggler cost.

The cell metric is mean JCT: capacity churn is an additive per-job
delay (requeue + wait for the grow-back), so the mean is the honest
headline. Quick mode trims the workload; its golden digest is pinned in
``tests/test_golden_results.py`` from day one.

Run it like any registered study::

    python -m repro study elastic --quick
    python -m repro study elastic --seeds 1,2,3
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import Cell, Study, cell, register_study

#: (kind, machines-per-slot divisor) per plane. The centralized family
#: packs 4 slots per machine (the harness default); a decentralized
#: worker is one machine.
_PLANE_SLOTS_PER_MACHINE: Dict[str, int] = {
    "centralized": 4,
    "batch": 4,
    "decentralized": 1,
}


def _resize_knobs(kind: str, amplitude: float, total_slots: int) -> dict:
    """Autoscaler knobs for one cell: shrink by ``amplitude`` of the
    cluster at t=15, grow it back at t=45 (amplitude 0 is the explicit
    static baseline)."""
    if amplitude <= 0.0:
        return {"autoscaler": "none"}
    machines = max(1, total_slots // _PLANE_SLOTS_PER_MACHINE[kind])
    delta = max(1, int(amplitude * machines))
    return {
        "autoscaler": "schedule",
        "resize_schedule": f"15:-{delta},45:+{delta}",
    }


def _elastic_cells(
    amplitudes: Sequence[float] = (0.0, 0.25),
    planes: Sequence[Tuple[str, str]] = (
        ("centralized", "hopper"),
        ("decentralized", "hopper"),
        ("batch", "hopper"),
    ),
    speculation: Sequence[str] = ("late", "none"),
    num_jobs: int = 100,
    utilization: float = 0.7,
    total_slots: int = 400,
) -> List[Cell]:
    workload = WorkloadParams(
        profile="spark-facebook",
        num_jobs=num_jobs,
        utilization=utilization,
        total_slots=total_slots,
    )
    cells: List[Cell] = []
    for amplitude in amplitudes:
        for kind, system in planes:
            knobs = _resize_knobs(kind, amplitude, total_slots)
            if kind == "batch":
                # Spelled explicitly so the batch cells stay pinned even
                # if the plane default ever moves.
                knobs["round_interval"] = 0.5
            cells.extend(
                cell(
                    RunSpec(
                        kind,
                        system,
                        workload,
                        speculation=spec_policy,
                        knobs=knobs,
                    ),
                    kind=kind,
                    amplitude=amplitude,
                    speculation=spec_policy,
                )
                for spec_policy in speculation
            )
    return cells


ELASTIC_STUDY = register_study(
    Study(
        name="elastic",
        description=(
            "mid-run cluster resizes: amplitude x plane x speculation "
            "under a scheduled autoscaler; metric is mean JCT"
        ),
        build_cells=_elastic_cells,
        metric_name="mean JCT",
        quick=dict(
            num_jobs=24,
            total_slots=120,
            speculation=("late",),
        ),
    )
)
