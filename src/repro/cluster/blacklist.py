"""Machine blacklisting (§2.2).

Production clusters blacklist machines with faulty disks or memory and
never schedule on them. Blacklisting alone does not remove stragglers —
that is the paper's starting observation — but the mechanism still exists
in the substrate, and the straggler model can be configured to make some
machines persistently bad so that blacklisting them is meaningful.

Only strikes recorded within a sliding window of the last
``strike_window`` time units count, so a machine is blacklisted only
when faults *cluster* in time — the evidence rule the strike-driven
eviction policy (:mod:`repro.cluster.policy`) runs mid-simulation. The
policy owns the one :class:`Blacklist` of a run; the simulators act on
its decisions one machine at a time and keep no copy of it.

Removing a machine from the blacklist (reinstatement after probation)
clears its strike history: a reinstated machine starts from a clean
record.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set


class Blacklist:
    """Tracks blacklisted machines from windowed strike counts."""

    def __init__(self, strikes_to_blacklist: int, strike_window: float) -> None:
        if strikes_to_blacklist <= 0:
            raise ValueError("strikes_to_blacklist must be positive")
        if strike_window <= 0:
            raise ValueError("strike_window must be positive")
        self.strikes_to_blacklist = strikes_to_blacklist
        self.strike_window = strike_window
        self._strike_times: Dict[int, Deque[float]] = {}
        self._blacklisted: Set[int] = set()
        #: Lifetime strike totals per machine. Unlike the active strike
        #: state, these survive reinstatement (``remove`` wipes the
        #: counting window, not the record) — they are diagnostics, not
        #: policy inputs, surfaced as ``SimulationResult.machine_strikes``.
        self.strike_totals: Dict[int, int] = {}

    @property
    def blacklisted_machines(self) -> Set[int]:
        return set(self._blacklisted)

    def is_blacklisted(self, machine_id: int) -> bool:
        return machine_id in self._blacklisted

    def remove(self, machine_id: int) -> None:
        """Reinstate a machine: un-blacklist it and wipe its strikes."""
        self._blacklisted.discard(machine_id)
        self._strike_times.pop(machine_id, None)

    def strike_count(self, machine_id: int, now: float) -> int:
        """Strikes currently counting against ``machine_id``: those
        older than ``now - strike_window`` have expired (a strike at
        time ``t`` counts while ``now - t`` is strictly less than the
        window).
        """
        times = self._strike_times.get(machine_id)
        if not times:
            return 0
        cutoff = now - self.strike_window
        return sum(1 for t in times if t > cutoff)

    def record_strike(self, machine_id: int, now: float) -> bool:
        """Record a fault observation at time ``now``; returns True if
        the machine just crossed the blacklisting threshold."""
        if machine_id in self._blacklisted:
            return False
        totals = self.strike_totals
        totals[machine_id] = totals.get(machine_id, 0) + 1
        times = self._strike_times.setdefault(machine_id, deque())
        cutoff = now - self.strike_window
        while times and times[0] <= cutoff:
            times.popleft()
        times.append(now)
        if len(times) >= self.strikes_to_blacklist:
            self._blacklisted.add(machine_id)
            return True
        return False
