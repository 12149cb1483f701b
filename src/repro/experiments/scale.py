"""The ``scale`` study: scheduling at 10k+-slot clusters.

The paper's results run at a few hundred slots; the interesting regime
for the *systems* comparison is the one where cluster size itself is the
stressor. This study sweeps cluster size (1k -> 100k slots) on two
axes (the 100k row is the regime the incremental allocation engine
opened — per-event work no longer rebuilds O(active jobs) state):

* **decentralized** — Hopper vs Sparrow-SRPT crossed with the probe
  ratio d, under the Spark-like Facebook workload (became tractable
  when the event loop was batched/indexed, PR 3);
* **centralized** — Hopper-C and SRPT on the same cluster sizes, which
  became tractable when the centralized simulator was rebuilt on the
  shared runtime core and the incremental
  :class:`~repro.cluster.index.ClusterIndex` (this is the regime the
  old O(machines)-per-reschedule scan could not reach).

``benchmarks/bench_scale.py`` tracks the events/sec both axes run at
and gates CI on it. The ``--quick`` grid is unchanged from the study's
birth (decentralized Hopper at 2k/10k slots) so its golden digest in
``tests/test_golden_results.py`` keeps pinning bit-identical replays;
the centralized axis lives in the full grid.

Run it like any registered study::

    python -m repro study scale --quick          # >=10k slots, seconds
    python -m repro study scale --seeds 1,2,3    # full grid, CI tables
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import Cell, Study, cell, register_study


def _scale_cells(
    cluster_sizes: Sequence[int] = (1000, 2500, 5000, 10000, 20000, 100000),
    probe_ratios: Sequence[float] = (2.0, 4.0),
    systems: Sequence[str] = ("hopper", "sparrow-srpt"),
    centralized_systems: Sequence[str] = ("hopper", "srpt"),
    num_jobs: int = 150,
    utilization: float = 0.6,
) -> List[Cell]:
    workloads = {
        total_slots: WorkloadParams(
            profile="spark-facebook",
            num_jobs=num_jobs,
            utilization=utilization,
            total_slots=total_slots,
        )
        for total_slots in cluster_sizes
    }
    cells: List[Cell] = []
    for total_slots in cluster_sizes:
        for system in systems:
            cells.extend(
                cell(
                    RunSpec(
                        "decentralized",
                        system,
                        workloads[total_slots],
                        knobs={"probe_ratio": ratio},
                    ),
                    kind="decentralized",
                    total_slots=total_slots,
                    system=system,
                    probe_ratio=ratio,
                )
                for ratio in probe_ratios
            )
    # Centralized axis: same cluster sizes and workload, one omniscient
    # scheduler (no probe-ratio dimension).
    for total_slots in cluster_sizes:
        cells.extend(
            cell(
                RunSpec("centralized", system, workloads[total_slots]),
                kind="centralized",
                total_slots=total_slots,
                system=system,
            )
            for system in centralized_systems
        )
    return cells


SCALE_STUDY = register_study(
    Study(
        name="scale",
        description=(
            "decentralized Hopper vs Sparrow-SRPT (and centralized "
            "Hopper-C vs SRPT) on 1k-100k-slot clusters"
        ),
        build_cells=_scale_cells,
        # --quick still covers the >=10k-slot regime (that is the point
        # of the study); it trims the grid, not the cluster size. It
        # predates the centralized axis and must keep producing the
        # exact result sequence its golden digest pins, so the
        # centralized cells stay out of it.
        quick=dict(
            cluster_sizes=(2000, 10000),
            probe_ratios=(4.0,),
            systems=("hopper",),
            centralized_systems=(),
            num_jobs=40,
        ),
    )
)
