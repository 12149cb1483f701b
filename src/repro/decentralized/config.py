"""Configuration for the decentralized simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.runtime.config import (
    NON_NEGATIVE,
    POSITIVE,
    PlaneConfig,
    at_least,
    setting,
)


class WorkerPolicy(enum.Enum):
    """How a worker picks the next queued request when a slot frees.

    FIFO:
        Stock Sparrow: requests in arrival order.
    SRPT:
        Sparrow-SRPT (the paper's aggressive baseline): the request whose
        job has the fewest remaining unfinished tasks.
    HOPPER:
        Pseudocode 3: ascending virtual size with refusable responses;
        after ``refusal_threshold`` refusals the worker concludes the
        system is not capacity constrained and samples a job weighted by
        virtual size (Guideline 3), sending a non-refusable response; if
        refusals revealed unsatisfied jobs, the non-refusable response
        goes to the smallest of them (Guideline 2).
    """

    FIFO = "fifo"
    SRPT = "srpt"
    HOPPER = "hopper"


@dataclass
class DecentralizedConfig(PlaneConfig):
    """Tunables for :class:`DecentralizedSimulator`; each field's
    metadata holds its description and check (see
    :mod:`repro.runtime.config`).

    ``epsilon`` flags jobs below ``(1-eps) * total_slots / N_est`` as
    starved, and workers serve starved jobs first. N_est is the
    scheduler's own job count scaled by the number of schedulers: no
    message carries the global job count, so each scheduler assumes
    jobs spread evenly.
    """

    num_schedulers: int = setting(
        10, "independent schedulers; jobs are assigned round-robin", POSITIVE
    )
    probe_ratio: float = setting(
        4.0,
        "probes per task d (the power of many choices, ~4; §5.1)",
        at_least(1.0),
    )
    refusal_threshold: int = setting(
        2,
        "consecutive refusals before a worker switches to Guideline 3 "
        "(2-3 suffice; Fig. 5b)",
        NON_NEGATIVE,
    )
    message_delay: float = setting(
        0.0005, "one-way scheduler<->worker message latency", NON_NEGATIVE
    )
    worker_policy: WorkerPolicy = setting(
        WorkerPolicy.HOPPER, "how a worker picks its next queued request"
    )
    nudge_probes: int = setting(
        2,
        "fresh probes for a job with unmet demand whose requests went "
        "quiet (liveness valve for drained queues)",
        NON_NEGATIVE,
    )
    max_probes_per_job: int = setting(
        2000, "cap on the probes one job sends", POSITIVE
    )
    late_binding: bool = setting(
        False,
        "Sparrow late binding: a probe reserves a slot and the worker "
        "pulls the task when it is ready to run",
    )
    power_of_d: int = setting(
        1,
        "probe-target oversampling: sample d x the probes, keep the "
        "least-loaded (1 = plain uniform sampling)",
        at_least(1),
    )
