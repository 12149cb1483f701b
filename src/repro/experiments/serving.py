"""The ``steady_state`` study: open-loop heavy traffic near saturation.

Every other study replays a finite job batch; this one streams jobs at
a target utilization rho and reads the *steady-state tail* after
warm-up truncation (see :mod:`repro.serving`). The grid crosses:

* **rho** — 0.7 to 0.95, the heavy-traffic band where speculation-aware
  scheduling should matter most (queueing amplifies every wasted slot);
* **plane** — decentralized Hopper vs centralized Hopper-C, both fed by
  the identical arrival stream (same workload seed => same jobs at the
  same instants);
* **speculation** — LATE vs none, to show the speculation cost/benefit
  under sustained load rather than in a draining batch.

The cell metric is the overall p99 JCT over the measurement interval —
the serving regime's headline number. Quick mode trims rho points,
slots, and the horizon so both planes finish in seconds; its golden
digest is pinned in ``tests/test_golden_results.py`` from day one.

Run it like any registered study::

    python -m repro study steady_state --quick
    python -m repro study steady_state --seeds 1,2,3
"""

from __future__ import annotations

from typing import List, Sequence

from repro.metrics.collector import SimulationResult
from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import Cell, Study, cell, register_study


def steady_state_p99(result: SimulationResult) -> float:
    """Overall p99 JCT of the measurement interval.

    Falls back to the batch-style mean job duration when no completion
    landed inside the measurement windows (degenerate tiny grids), so
    the metric never divides a study cell by an empty list.
    """
    serving = result.serving or {}
    p99 = serving.get("overall", {}).get("jct_p99")
    if p99 is None:
        return result.mean_job_duration
    return p99


def _steady_state_cells(
    rhos: Sequence[float] = (0.7, 0.8, 0.9),
    systems: Sequence[str] = ("hopper", "hopper-c"),
    speculation: Sequence[str] = ("late", "none"),
    arrival_process: str = "poisson",
    total_slots: int = 400,
    max_jobs: int = 5000,
    warmup: float = 30.0,
    horizon: float = 270.0,
    cooldown: float = 30.0,
    window: float = 40.0,
) -> List[Cell]:
    knobs = {
        "arrival_process": arrival_process,
        "warmup": warmup,
        "horizon": horizon,
        "cooldown": cooldown,
        "window": window,
    }
    cells: List[Cell] = []
    for rho in rhos:
        workload = WorkloadParams(
            profile="spark-facebook",
            num_jobs=max_jobs,
            utilization=rho,
            total_slots=total_slots,
        )
        for system in systems:
            cells.extend(
                cell(
                    RunSpec(
                        "serving",
                        system,
                        workload,
                        speculation=spec_policy,
                        knobs=knobs,
                    ),
                    kind="serving",
                    rho=rho,
                    system=system,
                    speculation=spec_policy,
                )
                for spec_policy in speculation
            )
    return cells


STEADY_STATE_STUDY = register_study(
    Study(
        name="steady_state",
        description=(
            "open-loop rho sweep (0.7-0.95 band) x both planes x "
            "speculation on/off; metric is steady-state p99 JCT"
        ),
        build_cells=_steady_state_cells,
        metric=steady_state_p99,
        metric_name="p99 JCT (steady state)",
        quick=dict(
            rhos=(0.75, 0.9),
            total_slots=160,
            max_jobs=600,
            warmup=10.0,
            horizon=60.0,
            cooldown=15.0,
            window=10.0,
        ),
    )
)
