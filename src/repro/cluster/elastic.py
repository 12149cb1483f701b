"""Elastic clusters: autoscaler policies and mid-run resize events.

The paper's schedulers assume a fixed slot pool; production clusters do
not. This module makes capacity changes first-class: an
:class:`AutoscalerPolicy` decides *when* the cluster should grow or
shrink, and an :class:`ElasticController` turns those decisions into
``ADD_MACHINE`` / ``REMOVE_MACHINE`` engine events (cf. Firmament's
machine-add/remove event types). Each event carries the plane it
resizes, so the controller is plane-agnostic and keeps no reference
back to a plane.

Policies (registered in ``repro.registry`` under ``AUTOSCALER_POLICIES``):

* ``none`` — resolves to ``None``; every existing run is byte-identical.
* ``schedule`` — a fixed list of ``(time, machine_delta)`` resizes, the
  deterministic workhorse for studies and benchmarks.
* ``reactive`` — utilization-threshold scaler sampled on a window
  cadence: grow ``step`` machines above ``upper``, shrink below
  ``lower``.

The planes apply a resize of Δ machines incrementally, with no
wholesale rebuild or rescan on the resize path. Both go through the one
membership sequence of :mod:`repro.cluster.membership`:

* :meth:`~repro.cluster.membership.Membership.machines_to_retire` picks
  a shrink's victims walking down from the highest id (past any machines
  an earlier shrink retired there), clamped to ``min_machines``;
* each machine added, retired, evicted or reinstated changes one state
  byte and the live totals, plus one Fenwick update of the centralized
  :class:`~repro.cluster.index.ClusterIndex` or one id of the
  decentralized probe pool: O(Δ·log machines) in all;
* a shrink and an eviction share one kill→requeue teardown; on the
  centralized plane it finds every leaving machine's copies in one
  O(live copies) walk;
* the :class:`~repro.core.incremental.IncrementalAllocator` floors memo
  invalidates through its existing ``(membership_version, total_slots)``
  key with no new hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.obs import Obs


#: A resize instruction: (simulation time, machine count delta).
ResizeEvent = Tuple[float, int]


def parse_resize_schedule(text: str) -> Tuple[ResizeEvent, ...]:
    """Parse a ``"time:delta,time:delta"`` knob string.

    Example: ``"30:+8,90:-8"`` grows by 8 machines at t=30 and shrinks
    by 8 at t=90. Deltas must be non-zero; times non-negative.
    """
    events: List[ResizeEvent] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        time_part, sep, delta_part = chunk.partition(":")
        if not sep:
            raise ValueError(
                f"bad resize schedule entry {chunk!r} (want 'time:delta')"
            )
        time = float(time_part)
        delta = int(delta_part)
        if time < 0:
            raise ValueError(f"resize time must be >= 0, got {time}")
        if delta == 0:
            raise ValueError(f"resize delta must be non-zero in {chunk!r}")
        events.append((time, delta))
    if not events:
        raise ValueError("resize schedule is empty")
    return tuple(events)


class AutoscalerPolicy:
    """Decides when the cluster grows or shrinks.

    Two decision surfaces, either of which may be inert:

    * :meth:`initial_events` — resizes known up front, scheduled as
      absolute-time engine events when the controller primes;
    * :meth:`decide` — called every ``sample_interval`` with the live
      busy/total slot counts, returning a machine-count delta (0 for
      no change). ``sample_interval=None`` disables sampling.
    """

    name = "autoscaler"
    sample_interval: Optional[float] = None
    #: Shrinks never take the cluster below this many live machines.
    min_machines: int = 1

    def initial_events(self) -> Sequence[ResizeEvent]:
        return ()

    def decide(self, now: float, busy_slots: int, total_slots: int) -> int:
        return 0


class ScheduleAutoscaler(AutoscalerPolicy):
    """A fixed schedule of timed resizes — fully deterministic."""

    name = "schedule"

    def __init__(
        self,
        schedule: Sequence[ResizeEvent],
        min_machines: int = 1,
    ) -> None:
        events = tuple((float(t), int(d)) for t, d in schedule)
        if not events:
            raise ValueError("schedule autoscaler needs at least one resize")
        for time, delta in events:
            if time < 0:
                raise ValueError(f"resize time must be >= 0, got {time}")
            if delta == 0:
                raise ValueError("resize delta must be non-zero")
        self.schedule = events
        self.min_machines = min_machines

    def initial_events(self) -> Sequence[ResizeEvent]:
        return self.schedule


class ReactiveAutoscaler(AutoscalerPolicy):
    """Utilization-threshold scaler sampled on a window cadence."""

    name = "reactive"

    def __init__(
        self,
        interval: float = 5.0,
        upper: float = 0.85,
        lower: float = 0.30,
        step: int = 1,
        min_machines: int = 1,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        if not 0.0 <= lower < upper <= 1.0:
            raise ValueError(
                f"need 0 <= lower < upper <= 1, got [{lower}, {upper}]"
            )
        if step <= 0:
            raise ValueError("scale step must be positive")
        self.sample_interval = interval
        self.upper = upper
        self.lower = lower
        self.step = step
        self.min_machines = min_machines

    def decide(self, now: float, busy_slots: int, total_slots: int) -> int:
        if total_slots <= 0:
            return self.step
        utilization = busy_slots / total_slots
        if utilization > self.upper:
            return self.step
        if utilization < self.lower:
            return -self.step
        return 0


class ElasticController:
    """Drives one plane's cluster membership from an autoscaler policy.

    The controller keeps no reference to its plane: the plane passes
    itself to :meth:`prime` and :meth:`ensure_sampling`, and each engine
    event carries it on. A plane provides ``_autoscale_add(count)`` and
    ``_autoscale_remove(count)``, each returning how many machines
    actually changed after clamping (e.g. to ``policy.min_machines``),
    plus ``busy_slots``, ``members.total_slots`` and ``_active_jobs``
    for the reactive policy. Sampling is demand-armed exactly like the
    planes' recurring speculation checks: the periodic event re-arms
    only while the plane has active jobs, so idle runs drain the engine
    heap and terminate.
    """

    __slots__ = (
        "engine",
        "policy",
        "_sample_armed",
        "obs",
        "resizes_applied",
        "machines_added",
        "machines_removed",
    )

    def __init__(
        self, engine, policy: AutoscalerPolicy, obs: Optional[Obs] = None
    ) -> None:
        self.engine = engine
        self.policy = policy
        self._sample_armed = False
        self.obs = obs
        self.resizes_applied = 0
        self.machines_added = 0
        self.machines_removed = 0

    def prime(self, plane) -> None:
        """Schedule the policy's known-in-advance resizes (call once,
        after the plane's ``run()`` has reset its cluster state)."""
        for time, delta in self.policy.initial_events():
            self.engine.schedule_at(time, self._apply, plane, delta)
        self.ensure_sampling(plane)

    def ensure_sampling(self, plane) -> None:
        """(Re-)arm the periodic utilization sample if the policy wants
        one and demand exists. Planes call this on every job admission."""
        if self.policy.sample_interval is None or self._sample_armed:
            return
        if not plane._active_jobs:
            return
        self._sample_armed = True
        self.engine.schedule(self.policy.sample_interval, self._on_sample, plane)

    def _on_sample(self, plane) -> None:
        self._sample_armed = False
        if not plane._active_jobs:
            return
        delta = self.policy.decide(
            self.engine.now, plane.busy_slots, plane.members.total_slots
        )
        if delta:
            self._apply(plane, delta)
        self.ensure_sampling(plane)

    def _apply(self, plane, delta: int) -> None:
        if delta > 0:
            applied = plane._autoscale_add(delta)
            kind = "add_machine"
            counter = "elastic.machines_added"
            self.machines_added += applied
        else:
            applied = plane._autoscale_remove(-delta)
            kind = "remove_machine"
            counter = "elastic.machines_removed"
            self.machines_removed += applied
        if not applied:
            return
        self.resizes_applied += 1
        obs = self.obs
        if obs is not None:
            obs.counters.inc(f"elastic.{kind}_events")
            obs.counters.inc(counter, applied)
            if obs.tracer is not None:
                obs.tracer.instant(
                    "elastic",
                    kind,
                    self.engine.now,
                    machines=applied,
                    total_slots=plane.members.total_slots,
                )
