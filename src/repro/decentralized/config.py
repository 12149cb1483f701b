"""Configuration for the decentralized simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
class DecentralizedConfig:
    """Tunables for :class:`DecentralizedSimulator`.

    Attributes
    ----------
    num_schedulers:
        Independent schedulers; jobs are assigned round-robin.
    probe_ratio:
        Reservation requests per task (the paper recommends ~4 — the
        "power of many choices", §5.1).
    refusal_threshold:
        Consecutive refusals before a worker switches to Guideline 3
        (2-3 suffice per Fig. 5b).
    message_delay:
        One-way latency of any scheduler<->worker message.
    worker_policy:
        See :class:`WorkerPolicy`.
    epsilon:
        Fairness knob; 1.0 disables fairness. Schedulers flag jobs below
        ``(1-eps) * total_slots / N_est`` as starved; workers serve
        starved jobs first. N_est is the scheduler's own job count scaled
        by the number of schedulers: no message carries the global job
        count, so each scheduler assumes jobs spread evenly.
    speculation_check_interval:
        Scheduler-side straggler-scan period.
    default_beta / learn_beta:
        Virtual-size tail index (shared estimator fed by completed tasks).
    use_alpha:
        Weight virtual sizes by sqrt(alpha) for DAG jobs.
    nudge_probes:
        Fresh probes sent when a job has unmet demand but its requests
        have gone quiet (liveness valve for drained queues).
    late_binding:
        Sparrow late binding: a probe reserves a slot without carrying
        a task; the worker pulls the concrete task when the slot is
        ready to execute (one extra message round-trip per launch).
    power_of_d:
        Probe-target oversampling factor: sample ``d`` times the probe
        count uniformly and keep the least-loaded workers. ``1`` is
        plain uniform sampling (byte-identical to the stock path).
    """

    num_schedulers: int = 10
    probe_ratio: float = 4.0
    refusal_threshold: int = 2
    message_delay: float = 0.0005
    worker_policy: WorkerPolicy = WorkerPolicy.HOPPER
    epsilon: float = 0.1
    speculation_check_interval: float = 1.0
    default_beta: float = 1.5
    learn_beta: bool = True
    use_alpha: bool = True
    network_rate: float = 1.0
    nudge_probes: int = 2
    max_probes_per_job: int = 2000
    late_binding: bool = False
    power_of_d: int = 1

    def __post_init__(self) -> None:
        if self.num_schedulers <= 0:
            raise ValueError("num_schedulers must be positive")
        if self.probe_ratio < 1.0:
            raise ValueError("probe_ratio must be >= 1")
        if self.refusal_threshold < 0:
            raise ValueError("refusal_threshold must be non-negative")
        if self.message_delay < 0:
            raise ValueError("message_delay must be non-negative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.speculation_check_interval <= 0:
            raise ValueError("speculation_check_interval must be positive")
        if self.nudge_probes < 0:
            raise ValueError("nudge_probes must be non-negative")
        if self.max_probes_per_job < 1:
            raise ValueError("max_probes_per_job must be positive")
        if self.power_of_d < 1:
            raise ValueError("power_of_d must be >= 1")
