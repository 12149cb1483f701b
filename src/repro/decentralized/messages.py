"""Message and piggybacked-state types for the decentralized protocol.

The paper's schedulers piggyback virtual-size updates on messages that
flow anyway (§5.3). We model that with a :class:`JobGossip` object shared
between a job's scheduler and the workers holding its requests: the
scheduler refreshes it whenever it touches the job, and workers read it
when making queue decisions. This slightly over-approximates freshness:
a worker may see an update without a message addressed to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ResponseType(enum.Enum):
    """Worker -> scheduler slot offers (Pseudocode 3)."""

    REFUSABLE = "refusable"
    NON_REFUSABLE = "non_refusable"


@dataclass(slots=True)
class JobGossip:
    """Piggybacked per-job state, written by the scheduler.

    Attributes
    ----------
    job_id / scheduler_id:
        Identity.
    virtual_size:
        Current V_i(t) (refreshed on any message touching the job).
    remaining_tasks:
        Unfinished task count (Sparrow-SRPT's key).
    starved:
        True when the job sits below its ε-fair share.
    active:
        False once the job completes (workers purge its requests).
    """

    job_id: int
    scheduler_id: int
    virtual_size: float
    remaining_tasks: int
    starved: bool = False
    active: bool = True


@dataclass(slots=True, eq=False)
class Request:
    """A reservation request queued at one worker.

    Requests compare by identity: a worker removes the exact request it
    redeemed, and ``list.remove`` then never calls a field-by-field
    ``__eq__`` on the entries queued before it.

    ``spec_ok`` marks whether this request may be redeemed for a
    *speculative* copy. Decentralized Hopper's requests are all
    speculation-eligible — that is the coordination. The Sparrow /
    Sparrow-SRPT baselines mirror real deployments: original probes are
    original-only, and when LATE decides to speculate, the scheduler
    issues *fresh* probes that join the back of worker queues — the
    "long waiting time for speculative copies in the queues" of §5.1.
    """

    gossip: JobGossip
    enqueue_time: float
    spec_ok: bool = True
    #: The (job, spec_ok) pair as one int: a worker offers a slot at most
    #: once per episode to each pair, and keys its scans on this. It is
    #: ``job_id`` itself for a speculation-eligible request (all of
    #: Hopper's), so it shares the job id's int object, and ``~job_id``
    #: otherwise.
    key: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        job_id = self.gossip.job_id
        self.key = job_id if self.spec_ok else ~job_id

    @property
    def job_id(self) -> int:
        return self.gossip.job_id

    @property
    def scheduler_id(self) -> int:
        return self.gossip.scheduler_id
