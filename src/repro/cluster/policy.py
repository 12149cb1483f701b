"""Blacklist policies: online, strike-driven mid-run machine eviction.

PR 4 built the blacklisting *substrate* (:class:`~repro.cluster.
blacklist.Blacklist` and the cluster's blacklisted flags) but nothing
ever exercised it mid-run: the machine-correlated straggler model and
the blacklist never interacted. This module closes that loop with a
*policy* layer in the spirit of the paper's §2.2 observation
(production clusters blacklist persistently flaky machines) and the
self-adjusting-structures framing of ReNets: eviction is an online
decision with its own knobs, not a fixed pre-run configuration.

A :class:`BlacklistPolicy` observes per-machine evidence while a
simulation runs — each task-copy completion is reported with the time,
the machine, the copy's duration and a per-job *reference* duration (the
median of the job's completed task durations) — and answers two
questions the simulator acts on:

* :meth:`~BlacklistPolicy.observe_completion` — "should the machine this
  copy ran on be evicted now?";
* :meth:`~BlacklistPolicy.due_reinstatements` — "which previously
  evicted machines have served their probation and may rejoin?".

The policy keeps the run's only blacklist record and never touches the
cluster: the owning simulator (centralized dispatch/reschedule path or
decentralized probe/launch path) performs each eviction and
reinstatement as a one-machine delta — killing running copies through
the :class:`~repro.runtime.CopyLedger`, requeueing lost originals, and
updating its membership (centralized: ``Cluster.apply_blacklist(m,
flag)``, one flag, the totals and one
:class:`~repro.cluster.index.ClusterIndex` bit; decentralized: one id
bisected out of or into the probe sample pool). Policies register in
:data:`repro.registry.BLACKLIST_POLICIES` and are reachable from
``RunSpec`` via the ``blacklist_policy`` / ``strike_threshold`` /
``strike_window`` / ``eviction_cap`` knobs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.cluster.blacklist import Blacklist


class BlacklistPolicy(ABC):
    """Online eviction policy driven by per-machine completion evidence."""

    #: human-readable name used in reports and the registry
    name: str = "base"

    #: Fast-path hint for the simulators: when set, a completion with
    #: ``duration <= min_strike_ratio * task.size`` can never strike
    #: (the reference is floored by the task size), so the caller may
    #: skip computing the job-median reference — and the whole
    #: observation — for it. ``None`` means observe every completion.
    min_strike_ratio: Optional[float] = None

    @abstractmethod
    def observe_completion(
        self,
        now: float,
        machine_id: int,
        duration: float,
        reference: float,
    ) -> bool:
        """Report one finished task copy.

        ``duration`` is the copy's wall-clock runtime and ``reference``
        the job-level comparison point (the median completed duration,
        floored by the task's nominal size so an intrinsically large
        task is not evidence against its machine). Returns True when
        ``machine_id`` should be evicted *now*.
        """

    def due_reinstatements(self, now: float) -> List[int]:
        """Evicted machines whose probation expired by ``now``.

        The policy forgets them (strike history cleared); the caller is
        responsible for reinstating them in the cluster substrate.
        Default: evictions are permanent.
        """
        return []

    def strike_totals(self) -> Dict[int, int]:
        """Lifetime strikes per machine id (diagnostics; never reset by
        reinstatement). Default: no strike bookkeeping."""
        return {}


class StrikeBlacklistPolicy(BlacklistPolicy):
    """Evict machines that accumulate strikes within a sliding window.

    A completion counts as a *strike* against its machine when it ran
    slower than ``strike_multiplier`` times the job's reference duration.
    ``strike_threshold`` strikes within ``strike_window`` time units
    evict the machine, subject to ``eviction_cap`` (the largest fraction
    of the cluster that may be evicted at once — the §2.2 safety valve:
    blacklisting must never collapse the cluster). With ``probation > 0``
    an evicted machine is reinstated after that long with a clean strike
    record; ``probation = 0`` makes evictions permanent.

    Parameters
    ----------
    num_machines:
        Cluster size (wired per run by the harness); bounds the cap.
    strike_threshold:
        Strikes within the window that trigger eviction (k).
    strike_window:
        Sliding evidence window (virtual time units).
    eviction_cap:
        Max fraction of machines evicted simultaneously, in (0, 1].
    strike_multiplier:
        How much slower than the job reference a completion must be to
        count as a strike.
    probation:
        Time an evicted machine sits out before reinstatement (0 =
        permanent eviction).
    """

    name = "strikes"

    #: Default sliding evidence window (virtual time units).
    DEFAULT_STRIKE_WINDOW = 10.0

    def __init__(
        self,
        num_machines: int,
        strike_threshold: int = 3,
        strike_window: float = DEFAULT_STRIKE_WINDOW,
        eviction_cap: float = 0.2,
        strike_multiplier: float = 2.0,
        probation: float = 0.0,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if not 0.0 < eviction_cap <= 1.0:
            raise ValueError("eviction_cap must be in (0, 1]")
        if strike_multiplier <= 1.0:
            raise ValueError("strike_multiplier must exceed 1.0")
        if probation < 0.0:
            raise ValueError("probation must be non-negative")
        self.num_machines = num_machines
        self.strike_multiplier = strike_multiplier
        self.min_strike_ratio = strike_multiplier
        self.probation = probation
        self.blacklist = Blacklist(
            strikes_to_blacklist=strike_threshold,
            strike_window=strike_window,
        )
        self.max_evictions = max(1, int(round(eviction_cap * num_machines)))
        #: (time, machine_id) of every eviction, in order.
        self.evictions: List[Tuple[float, int]] = []
        #: (time, machine_id) of every reinstatement, in order.
        self.reinstatements: List[Tuple[float, int]] = []
        self._probation_until: Dict[int, float] = {}

    @property
    def evicted_machines(self) -> frozenset:
        return frozenset(self.blacklist.blacklisted_machines)

    def observe_completion(
        self,
        now: float,
        machine_id: int,
        duration: float,
        reference: float,
    ) -> bool:
        if reference <= 0.0 or duration <= self.strike_multiplier * reference:
            return False
        blacklist = self.blacklist
        if blacklist.is_blacklisted(machine_id):
            return False
        if len(blacklist.blacklisted_machines) >= self.max_evictions:
            # At the cap: evidence still ages out of the window naturally,
            # but no strike is recorded — the cluster keeps its floor.
            return False
        if blacklist.record_strike(machine_id, now):
            self.evictions.append((now, machine_id))
            if self.probation > 0.0:
                self._probation_until[machine_id] = now + self.probation
            return True
        return False

    def due_reinstatements(self, now: float) -> List[int]:
        if not self._probation_until:
            return []
        due = sorted(
            machine_id
            for machine_id, until in self._probation_until.items()
            if until <= now
        )
        for machine_id in due:
            del self._probation_until[machine_id]
            self.blacklist.remove(machine_id)
            self.reinstatements.append((now, machine_id))
        return due

    def strike_totals(self) -> Dict[int, int]:
        return dict(self.blacklist.strike_totals)


def evaluate_completion(
    policy: BlacklistPolicy, now: float, copy, view
) -> Tuple[List[int], Optional[int]]:
    """Shared per-completion evidence path for both simulator planes.

    Polls probation reinstatements, applies the ``min_strike_ratio``
    fast path (a copy with ``duration <= ratio * size`` can never
    strike, so the job-median reference — a sort when the completed-
    durations list grew — is skipped for it), floors the reference at
    the task's nominal size, and feeds the observation to the policy.

    Returns ``(reinstated machine ids, machine id to evict or None)``;
    the caller owns the plane-specific slot accounting for both.
    """
    due = policy.due_reinstatements(now)
    size = copy.task.size
    ratio = policy.min_strike_ratio
    if ratio is not None and copy.duration <= ratio * size:
        return due, None
    reference = view.estimate_new_copy_duration(copy.task)
    if size > reference:
        reference = size
    if policy.observe_completion(now, copy.machine_id, copy.duration, reference):
        return due, copy.machine_id
    return due, None
