"""Machines: slot-bearing workers, grouped into racks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Machine:
    """A cluster machine with a fixed number of task slots.

    The evaluation cluster in the paper has 200 machines with 16 cores
    each; we keep machines abstract (id, rack, slot count) and let the
    simulators track which slots are busy. Slotted (no instance dict):
    a 100k-machine fleet pays for its fields only.
    """

    machine_id: int
    num_slots: int = 1
    rack: int = 0

    busy_slots: int = field(default=0, compare=False)
    blacklisted: bool = field(default=False, compare=False)
    #: Removed by an autoscaler. Unlike ``blacklisted`` (owned by the
    #: Blacklist and recomputed on every apply_blacklist pass), retirement
    #: is permanent: elastic shrink never resurrects a machine id — growth
    #: appends fresh ids instead — so reinstatement passes can't revive it.
    retired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_slots <= 0:
            raise ValueError("machine must have at least one slot")

    @property
    def free_slots(self) -> int:
        return self.num_slots - self.busy_slots

    @property
    def has_free_slot(self) -> bool:
        return (
            self.busy_slots < self.num_slots
            and not self.blacklisted
            and not self.retired
        )

    def acquire_slot(self) -> None:
        """Mark one slot busy."""
        if self.busy_slots >= self.num_slots:
            raise RuntimeError(f"machine {self.machine_id}: no free slot")
        self.busy_slots += 1

    def release_slot(self) -> None:
        """Mark one slot free."""
        if self.busy_slots <= 0:
            raise RuntimeError(f"machine {self.machine_id}: no busy slot")
        self.busy_slots -= 1

    def reset(self) -> None:
        self.busy_slots = 0
