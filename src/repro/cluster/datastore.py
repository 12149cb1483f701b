"""Block placement and data locality (HDFS-like, 3 replicas).

Input-phase tasks read a block stored on a small set of machines; running
on one of them is "data local", otherwise the task reads over the network
and runs slower (§4.4). The :class:`DataStore` assigns replica placements
and answers locality queries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.simulation.rng import RandomSource
from repro.workload.job import Job
from repro.workload.task import Task


class DataStore:
    """Replica placement for task input blocks.

    Parameters
    ----------
    num_machines:
        Size of the cluster.
    replicas:
        Replication factor (HDFS default 3).
    remote_penalty:
        Multiplier applied to a task copy's duration when it runs without
        data locality (network read + contention).
    """

    def __init__(
        self,
        num_machines: int,
        replicas: int = 3,
        remote_penalty: float = 1.25,
        random_source: Optional[RandomSource] = None,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        if remote_penalty < 1.0:
            raise ValueError("remote_penalty must be >= 1.0")
        self.num_machines = num_machines
        self.replicas = min(replicas, num_machines)
        self.remote_penalty = remote_penalty
        self._rng = (random_source or RandomSource(seed=7)).child("datastore").rng
        self._placements: Dict[int, Tuple[int, ...]] = {}

    def place_task_input(self, task: Task) -> Tuple[int, ...]:
        """Assign (or return existing) replica machines for a task's input."""
        existing = self._placements.get(task.task_id)
        if existing is not None:
            return existing
        if task.preferred_machines:
            placement = tuple(task.preferred_machines)
        else:
            placement = tuple(
                self._rng.sample(range(self.num_machines), self.replicas)
            )
        self._placements[task.task_id] = placement
        task.preferred_machines = placement
        return placement

    def place_job_inputs(self, job: Job) -> None:
        """Place inputs for all input-phase tasks of a job."""
        for phase in job.phases:
            if phase.parents:
                continue  # only input phases read stored blocks
            for task in phase.tasks:
                self.place_task_input(task)

    def is_local(self, task: Task, machine_id: int) -> bool:
        """True if the machine holds a replica of the task's input (tasks
        with no placement are locality-free and always 'local')."""
        placement = self._placements.get(task.task_id, task.preferred_machines)
        return not placement or machine_id in placement

    def duration_multiplier(self, task: Task, machine_id: int) -> float:
        """Penalty multiplier for running ``task`` on ``machine_id``."""
        return 1.0 if self.is_local(task, machine_id) else self.remote_penalty
