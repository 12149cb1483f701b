"""Tasks and their runtime state.

A :class:`Task` is the unit of scheduling. Tasks carry an intrinsic *size*
(work units); the actual wall-clock duration of a given *copy* of a task is
``size * slowdown`` where the slowdown comes from the straggler model and is
drawn independently per copy — this is what makes speculative execution a
race worth running.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class TaskState(enum.Enum):
    """Lifecycle of a task (not of an individual copy)."""

    PENDING = "pending"  # no copy launched yet
    RUNNING = "running"  # at least one copy is executing
    FINISHED = "finished"  # some copy completed; others killed


@dataclass(slots=True)
class Task:
    """One task of a job phase.

    Slotted (no instance dict): every trace copy holds one ``Task`` per
    task, so a task pays for its fields only.

    Attributes
    ----------
    task_id:
        Globally unique identifier.
    job_id:
        Owning job.
    phase_index:
        Index of the owning phase within the job's DAG.
    size:
        Intrinsic work in time units (duration on a straggler-free, local
        slot).
    preferred_machines:
        Machines holding a replica of this task's input block; running on
        one of them is "data local". Empty for tasks with no input (or
        intermediate phases reading over the network).
    """

    task_id: int
    job_id: int
    phase_index: int
    size: float
    preferred_machines: Tuple[int, ...] = ()

    # Runtime state, owned by the simulator -----------------------------------
    state: TaskState = field(default=TaskState.PENDING, compare=False)
    finish_time: Optional[float] = field(default=None, compare=False)
    completed_by_speculative: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"task size must be positive, got {self.size}")

    @property
    def is_finished(self) -> bool:
        return self.state is TaskState.FINISHED

    def reset_runtime_state(self) -> None:
        """Clear runtime fields so the same trace can be replayed."""
        self.state = TaskState.PENDING
        self.finish_time = None
        self.completed_by_speculative = False

    def prefers(self, machine_id: int) -> bool:
        """True if ``machine_id`` holds a replica of this task's input."""
        return not self.preferred_machines or machine_id in self.preferred_machines
