"""Configuration for the centralized simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.runtime.config import NON_NEGATIVE, PlaneConfig, setting


class SpeculationMode(enum.Enum):
    """How speculative copies compete for slots (§3).

    INTEGRATED:
        Hopper's coordination — speculation shares the job's allocation,
        which already budgets for it via virtual sizes.
    BEST_EFFORT:
        Speculative copies run only on slots left over after every job's
        original tasks are served (the common practice today).
    BUDGETED:
        A fixed pool of slots is reserved exclusively for speculative
        copies; original tasks may not use it even when it sits idle.
    """

    INTEGRATED = "integrated"
    BEST_EFFORT = "best_effort"
    BUDGETED = "budgeted"


@dataclass
class CentralizedConfig(PlaneConfig):
    """Tunables for :class:`CentralizedSimulator`; each field's metadata
    holds its description and check (see :mod:`repro.runtime.config`).

    ``speculation_mode`` defaults to best-effort, the common practice
    (§3); centralized Hopper's registration overrides it to INTEGRATED.
    """

    locality_k_percent: float = setting(
        3.0,
        "data-locality allowance k (percent of active jobs; §4.4)",
        (lambda v: 0.0 <= v <= 100.0, "in [0, 100]"),
    )
    speculation_mode: SpeculationMode = setting(
        SpeculationMode.BEST_EFFORT, "integrated | best_effort | budgeted"
    )
    budget_fraction: float = setting(
        0.15,
        "fraction of slots reserved for copies in BUDGETED mode",
        (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    )
    spec_eval_min_interval: float = setting(
        0.25, "minimum virtual time between a job's speculation scans",
        NON_NEGATIVE,
    )
    preempt_speculative: bool = setting(
        True,
        "in INTEGRATED mode, kill a job's youngest speculative copies when "
        "it runs above its target (originals are never preempted)",
    )
    max_copies_cap: int = setting(
        2,
        "copies per remaining task a job can usefully hold (2 matches "
        "production; the Fig. 3 study raises it)",
    )
