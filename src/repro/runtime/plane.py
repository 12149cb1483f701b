"""What the centralized and decentralized simulators share.

Both planes replay a trace over one model of jobs, speculation and
membership; only the control plane between an arrival and a launch
differs. :class:`Plane` holds everything else once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cluster.elastic import AutoscalerPolicy, ElasticController
from repro.cluster.membership import Membership
from repro.cluster.policy import BlacklistPolicy, evaluate_completion
from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator
from repro.metrics.collector import MetricsCollector, SimulationResult
from repro.runtime.job import JobRuntime
from repro.runtime.lifecycle import CopyLedger
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomSource
from repro.workload.job import Job
from repro.workload.traces import Trace

if TYPE_CHECKING:
    from repro.obs import Obs


class Plane:
    """The engine, metrics, estimators, copy ledger and observability
    handles of one plane; its run loop, speculation check, job index
    and serving surface; and the membership sequence.

    A subclass provides ``busy_slots``, ``_on_job_arrival(job)`` (which
    registers the job's runtime in ``_jobs``), ``_on_spec_check`` and
    ``_kill_copy(copy, runtime)``, plus three membership hooks:

    * ``_running_copies(machine_ids)`` — the ``(copy, runtime)`` pairs
      running on those ids, one list per machine in the order given
      (each machine's queued work leaves with it; a machine with
      nothing to tear down may be left out); the default walks every
      active job's live copies once;
    * ``_requeue(task, runtime)`` — put a task whose last copy died back
      in line;
    * ``_refresh_membership()`` — the capacity follow-up of every
      membership change (the speculation budget on the centralized
      plane, the ε-fair floors on the decentralized one).

    One membership order serves both planes: flag every leaving id,
    follow up on capacity, then kill and requeue machine by machine.
    Flags and capacity come first so that a requeue (whose probes sample
    the decentralized pool, and whose gossip reads the fair floors)
    never sees a leaving machine as live. Requeueing per machine puts a
    task with copies on two leaving machines back in line after the
    second of them; killing every machine's copies before requeueing any
    would move it, and the pinned replays change.
    """

    __slots__ = (
        "members",
        "trace",
        "speculation_factory",
        "straggler_model",
        "config",
        "random_source",
        "obs",
        "_tracer",
        "sim",
        "metrics",
        "beta_estimator",
        "alpha_estimator",
        "ledger",
        "blacklist_policy",
        "_elastic",
        "_jobs",
        "_spec_check_scheduled",
    )

    def __init__(
        self,
        members: Membership,
        trace: Trace,
        speculation,
        straggler_model,
        config,
        name: str,
        random_source: Optional[RandomSource],
        blacklist_policy: Optional[BlacklistPolicy],
        autoscaler: Optional[AutoscalerPolicy],
        obs: Optional[Obs],
    ) -> None:
        self.members = members
        self.trace = trace
        self.speculation_factory = speculation
        self.straggler_model = straggler_model
        self.config = config
        self.random_source = random_source or RandomSource(seed=0)
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else None
        self.sim = Simulator(obs=obs)
        self.metrics = MetricsCollector(scheduler_name=name)
        self.beta_estimator = OnlineBetaEstimator(
            default_beta=config.default_beta
        )
        self.alpha_estimator = AlphaEstimator(network_rate=config.network_rate)
        self.ledger = CopyLedger(
            self.sim, self.metrics, self.beta_estimator, tracer=self._tracer
        )
        # Without a blacklist policy the hot paths pay one None check.
        self.blacklist_policy = blacklist_policy
        self._elastic: Optional[ElasticController] = None
        if autoscaler is not None:
            self._elastic = ElasticController(self.sim, autoscaler, obs)
        #: job id -> runtime of every job in flight.
        self._jobs: Dict[int, JobRuntime] = {}
        self._spec_check_scheduled = False

    # -- run -----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Replay the whole trace; returns the metrics."""
        self.sim.schedule_many(
            (
                (job.arrival_time, self._on_job_arrival, (job,))
                for job in self.trace
            ),
            absolute=True,
        )
        if self._elastic is not None:
            self._elastic.prime(self)
        self.sim.run(until=until)
        self._finalize_diagnostics()
        return self.metrics.result

    def _finalize_diagnostics(self) -> None:
        result = self.metrics.result
        if self.blacklist_policy is not None:
            result.machine_strikes = self.blacklist_policy.strike_totals()
        if self.obs is not None:
            result.obs = self.obs.report()

    def _begin_job_span(self, job: Job) -> None:
        """Open an arriving job's trace span (the ledger closes it)."""
        if self._tracer is not None:
            self._tracer.begin(
                "job",
                "job",
                ("job", job.job_id),
                self.sim.now,
                job=job.job_id,
                tasks=job.num_tasks,
            )

    def _ensure_spec_check(self) -> None:
        """Arm the periodic straggler scan while jobs are in flight, so
        an idle plane schedules nothing and the run terminates."""
        if self._spec_check_scheduled or not self._jobs:
            return
        self._spec_check_scheduled = True
        self.sim.schedule(
            self.config.speculation_check_interval, self._on_spec_check
        )

    # -- serving surface -----------------------------------------------------

    @property
    def total_slots(self) -> int:
        """Live capacity: retired and blacklisted machines do not count."""
        return self.members.total_slots

    @property
    def _active_jobs(self) -> int:
        """Jobs in flight; the elastic controller samples while any are."""
        return len(self._jobs)

    def pending_tasks(self) -> int:
        """Tasks queued for a first copy, over every job in flight."""
        return sum(len(runtime.pending) for runtime in self._jobs.values())

    # -- membership ----------------------------------------------------------

    def _running_copies(self, machine_ids: Sequence[int]) -> List[List[tuple]]:
        """The ``(copy, runtime)`` pairs running on each of
        ``machine_ids``, found in one walk over every live copy. Each
        machine's list keeps the walk's order: the order a scan for that
        one machine would produce."""
        buckets: Dict[int, List[tuple]] = {m: [] for m in machine_ids}
        get = buckets.get
        for runtime in self._jobs.values():
            for copies in runtime.view.copies_by_task.values():
                for copy in copies:
                    bucket = get(copy.machine_id)
                    if bucket is not None:
                        bucket.append((copy, runtime))
        return [buckets[m] for m in machine_ids]

    def _observe_blacklist(self, copy, runtime) -> None:
        """Feed one completion to the eviction policy and act on it."""
        obs = self.obs
        if obs is None:
            reinstated, evict = evaluate_completion(
                self.blacklist_policy, self.sim.now, copy, runtime.view
            )
        else:
            with obs.timers.phase("policy.evaluate_completion"):
                reinstated, evict = evaluate_completion(
                    self.blacklist_policy, self.sim.now, copy, runtime.view
                )
        for machine_id in reinstated:
            self._reinstate_machine(machine_id)
        if evict is not None:
            self._evict_machine(evict)

    def _evict_machine(self, machine_id: int) -> None:
        """Blacklist ``machine_id`` mid-run, killing its running copies."""
        self.members.apply_blacklist(machine_id, True)
        victims = self._vacate((machine_id,))
        self.metrics.record_eviction()
        self._note("evict", "blacklist.evictions", machine=machine_id, victims=victims)

    def _reinstate_machine(self, machine_id: int) -> None:
        """Probation served: the machine's slots rejoin the pool."""
        self.members.apply_blacklist(machine_id, False)
        self._refresh_membership()
        self.metrics.record_reinstatement()
        self._note("reinstate", "blacklist.reinstatements", machine=machine_id)

    def _note(self, kind: str, counter: str, **args) -> None:
        obs = self.obs
        if obs is not None:
            obs.counters.inc(counter)
            if obs.tracer is not None:
                obs.tracer.instant("blacklist", kind, self.sim.now, **args)

    def _retire(self, count: int) -> int:
        """An elastic shrink: retire up to ``count`` of the highest live
        ids (clamped to the autoscaler's ``min_machines``) and tear them
        down as an eviction does; returns how many left."""
        machine_ids = self.members.machines_to_retire(
            count, self._elastic.policy.min_machines
        )
        if machine_ids:
            self.members.remove_machine(*machine_ids)
            self._vacate(machine_ids)
        return len(machine_ids)

    def _vacate(self, machine_ids: Sequence[int]) -> int:
        """``machine_ids`` just left membership (evicted, or retired by
        a shrink): follow up on capacity, then kill the copies running
        on them and requeue each task whose last copy died; returns the
        number killed."""
        self._refresh_membership()
        killed = 0
        for victims in self._running_copies(machine_ids):
            orphaned = []
            for copy, runtime in victims:
                self._kill_copy(copy, runtime)
                if not copy.task.is_finished:
                    orphaned.append((copy.task, runtime))
            for task, runtime in orphaned:
                # A live sibling elsewhere still carries the task; its
                # last copy dying here requeues it, speculative or not.
                if runtime.view.num_live_copies(task) == 0:
                    self._requeue(task, runtime)
            killed += len(victims)
        return killed
