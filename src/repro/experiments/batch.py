"""The ``batch_rounds`` study: periodic rounds vs per-arrival scheduling.

The paper argues against batch-mode/periodic scheduling only abstractly;
this study makes the comparison concrete. The grid crosses:

* **round interval** — how long jobs wait in the pending buffer between
  scheduling rounds (``0`` labels the per-arrival centralized baseline,
  which is the interval's limit — pinned by a property test in
  ``tests/test_batch.py``);
* **plane** — the ``batch`` plane at each interval vs the ``centralized``
  per-arrival plane, same policy (Hopper), same trace, same run seed;
* **speculation** — LATE vs none, because a long round interval also
  delays speculative relaunches, compounding the straggler cost.

The cell metric is mean JCT: buffering delay is a per-job additive cost,
so the mean (not a tail) is the honest headline. Quick mode trims the
interval points and the workload; its golden digest is pinned in
``tests/test_golden_results.py`` from day one.

Run it like any registered study::

    python -m repro study batch_rounds --quick
    python -m repro study batch_rounds --seeds 1,2,3
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import Cell, Study, cell, register_study


def _batch_rounds_cells(
    round_intervals: Sequence[float] = (0.25, 1.0, 4.0),
    speculation: Sequence[str] = ("late", "none"),
    num_jobs: int = 60,
    total_slots: int = 200,
    utilization: float = 0.7,
) -> List[Cell]:
    workload = WorkloadParams(
        profile="spark-facebook",
        num_jobs=num_jobs,
        utilization=utilization,
        total_slots=total_slots,
    )
    cells: List[Cell] = []
    for spec_policy in speculation:
        cells.append(
            cell(
                RunSpec("centralized", "hopper", workload, speculation=spec_policy),
                kind="centralized",
                round_interval=0.0,
                speculation=spec_policy,
            )
        )
        cells.extend(
            cell(
                RunSpec(
                    "batch",
                    "hopper",
                    workload,
                    speculation=spec_policy,
                    knobs={"round_interval": interval},
                ),
                kind="batch",
                round_interval=interval,
                speculation=spec_policy,
            )
            for interval in round_intervals
        )
    return cells


BATCH_ROUNDS_STUDY = register_study(
    Study(
        name="batch_rounds",
        description=(
            "periodic batch rounds vs per-arrival scheduling: round "
            "interval x plane x speculation; metric is mean JCT"
        ),
        build_cells=_batch_rounds_cells,
        metric_name="mean JCT",
        quick=dict(
            round_intervals=(0.5, 2.0),
            num_jobs=25,
            total_slots=80,
        ),
    )
)
