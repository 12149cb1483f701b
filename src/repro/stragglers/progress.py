"""Task copies and the progress view observed by speculation algorithms.

Real frameworks expose per-task progress counters (fraction of input
processed); LATE/Mantri/GRASS estimate completion times from progress
*rates*. We model a copy's true duration as ``size * slowdown * locality
penalty``, and speculation reads it exactly: progress is linear in
elapsed time, :meth:`TaskCopy.progress_rate` is ``1/duration`` and
:meth:`TaskCopy.estimated_remaining` is exact once a copy has started.
No noise is applied, so a policy's remaining-time estimate is an oracle;
only the duration of a fresh copy is estimated (from the job's finished
durations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.simulation.engine import EventHandle
from repro.workload.task import Task


@dataclass(slots=True)
class TaskCopy:
    """One running (or finished/killed) copy of a task.

    Attributes
    ----------
    copy_id:
        Unique per simulation.
    task:
        The task this is a copy of.
    machine_id:
        Where it runs.
    start_time:
        Launch time.
    duration:
        True wall-clock duration (size * slowdown * locality penalty).
    speculative:
        True if this copy was launched by a speculation policy.
    event:
        The pending finish event while the copy runs, None once it
        finished or was killed (kept by
        :class:`~repro.runtime.lifecycle.CopyLedger`).
    """

    copy_id: int
    task: Task
    machine_id: int
    start_time: float
    duration: float
    speculative: bool = False

    killed: bool = field(default=False, compare=False)
    finished: bool = field(default=False, compare=False)
    end_time: Optional[float] = field(default=None, compare=False)
    event: Optional[EventHandle] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("copy duration must be positive")

    @property
    def is_running(self) -> bool:
        return not self.killed and not self.finished

    @property
    def expected_finish_time(self) -> float:
        return self.start_time + self.duration

    def elapsed(self, now: float) -> float:
        end = self.end_time if self.end_time is not None else now
        return max(0.0, min(end, now) - self.start_time)

    def progress(self, now: float) -> float:
        """Fraction complete in [0, 1]."""
        return min(1.0, self.elapsed(now) / self.duration)

    def progress_rate(self, now: float) -> float:
        """Progress per unit time; LATE's estimator.

        Progress is linear in our execution model, so once a copy has run
        at all its observed rate is exactly ``1/duration``."""
        if now <= self.start_time:
            return float("inf")
        return 1.0 / self.duration

    def estimated_remaining(self, now: float) -> float:
        """(1 - progress) / progress_rate — the trem estimator used by
        speculation policies."""
        if now <= self.start_time:
            return self.task.size  # nothing observed yet: assume nominal
        return max(0.0, self.start_time + self.duration - now)

    def resource_time(self, now: float) -> float:
        """Slot-time consumed so far (for wasted-work accounting)."""
        return self.elapsed(now)
