"""The ``blacklist`` study: machine-correlated stragglers vs the paper's
i.i.d. redraw model.

Production clusters blacklist persistently flaky machines (§2.2), which
makes the *shape* of straggling matter: the paper's analysis assumes
i.i.d. Pareto slowdowns redrawn per copy (``pareto-redraw``), while the
blacklisting regime concentrates slowdowns on a fixed flaky fraction of
machines (``machine-correlated``). This study crosses the two straggler
models with the centralized and decentralized Hopper systems (plus the
Sparrow-SRPT baseline) on one workload, so the gap between the regimes
is a first-class, seed-replicated table::

    python -m repro study blacklist --quick
    python -m repro study blacklist --seeds 1,2,3

The ``machine-correlated`` model needs the per-run cluster size; the
harness wires it automatically for both spec kinds (see
``repro.registry.make_straggler_model``). The study's golden digest was
pinned in ``tests/test_golden_results.py`` the day it was born.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import Cell, Study, cell, register_study

#: (spec kind, system) pairs the straggler models are compared on.
DEFAULT_SYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("centralized", "hopper"),
    ("decentralized", "hopper"),
    ("decentralized", "sparrow-srpt"),
)


def _blacklist_cells(
    straggler_models: Sequence[str] = ("pareto-redraw", "machine-correlated"),
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
    return [
        cell(
            RunSpec(kind, system, workload, knobs={"straggler_model": model}),
            straggler_model=model,
            kind=kind,
            system=system,
        )
        for model in straggler_models
        for kind, system in systems
    ]


BLACKLIST_STUDY = register_study(
    Study(
        name="blacklist",
        description=(
            "machine-correlated vs pareto-redraw stragglers on the "
            "centralized + decentralized systems (blacklisting regime)"
        ),
        build_cells=_blacklist_cells,
        quick=dict(num_jobs=30, total_slots=200),
    )
)
