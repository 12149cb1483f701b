"""Open-loop driver: lazily stream jobs into either scheduler plane.

Batch runs materialize the whole trace and bulk-schedule it before the
engine starts; an open-loop run must not — a sustained stream at rho
near 1 has no natural job count. The driver keeps only a **bounded
lookahead** of future arrivals inside the engine: it schedules one
batch of arrival events via ``schedule_many(absolute=True)`` plus a
refill event timed at the batch's last arrival (priority -1, so it
fires just before that arrival dispatches and the next batch is always
scheduled into the future). Jobs are synthesized one at a time by
``TraceGenerator.next_job`` at timestamps drawn from a registered
:class:`~repro.serving.arrivals.ArrivalProcess` — no job list ever
exists.

Termination is the regime's time layout: arrivals stop at ``horizon``,
the engine runs to ``horizon + cooldown`` (the engine clamps its clock
there), and the windowed aggregator truncates warm-up. A per-spec
``num_jobs`` acts as a hard safety cap on injected jobs, not a target.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, Optional

from repro import registry
from repro.experiments.harness import (
    _OBS_FROM_ENV,
    WorkloadSpec,
    build_simulator,
)
from repro.metrics.collector import SimulationResult
from repro.serving.arrivals import (
    ArrivalProcess,
    HeavyTailSizeModifier,
    calibrate_arrival_rate,
    make_arrival_process,
)
from repro.serving.windows import ServingRegime, WindowedAggregator
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomSource
from repro.workload.generator import TraceGenerator
from repro.workload.job import Job
from repro.workload.traces import Trace

#: Arrival events held inside the engine per refill batch. Small enough
#: that memory stays O(lookahead) regardless of horizon, large enough
#: that refills amortize to one heapify per 64 arrivals.
DEFAULT_LOOKAHEAD = 64

#: Time-average samples taken per metrics window.
SAMPLES_PER_WINDOW = 4


class JobStream:
    """Lazy job source: arrival process times + generator-built jobs.

    Ends when the next arrival would land at/after ``horizon`` or when
    ``max_jobs`` have been produced (the open-loop safety cap).
    """

    def __init__(
        self,
        generator: TraceGenerator,
        process: ArrivalProcess,
        horizon: float,
        max_jobs: int,
        size_modifier: Optional[HeavyTailSizeModifier] = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if max_jobs <= 0:
            raise ValueError("max_jobs must be positive")
        self._generator = generator
        self._process = process
        self._horizon = horizon
        self._max_jobs = max_jobs
        self._size_modifier = size_modifier

    def __iter__(self) -> Iterator[Job]:
        now = 0.0
        for _ in range(self._max_jobs):
            now += self._process.next_interarrival(now)
            if now >= self._horizon:
                return
            job = self._generator.next_job(now)
            if self._size_modifier is not None:
                self._size_modifier.scale_job(job)
            yield job


class OpenLoopDriver:
    """Feeds an engine from a :class:`JobStream` with bounded lookahead."""

    def __init__(
        self,
        engine: Simulator,
        inject: Callable[[Job], None],
        stream: JobStream,
        lookahead: int = DEFAULT_LOOKAHEAD,
    ) -> None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        self._engine = engine
        self._inject = inject
        self._iterator = iter(stream)
        self._lookahead = lookahead
        self.jobs_offered = 0

    def prime(self) -> None:
        """Schedule the first batch; call before the engine runs."""
        self._refill()

    def _refill(self) -> None:
        batch = list(islice(self._iterator, self._lookahead))
        if not batch:
            return
        self._engine.schedule_many(
            ((job.arrival_time, self._inject, (job,)) for job in batch),
            absolute=True,
        )
        self.jobs_offered += len(batch)
        if len(batch) == self._lookahead:
            # Refill just before the last scheduled arrival dispatches;
            # every later arrival is strictly in this event's future.
            self._engine.schedule_at(
                batch[-1].arrival_time, self._refill, priority=-1
            )


def _schedule_samples(
    simulator, aggregator: WindowedAggregator, regime: ServingRegime
) -> None:
    """Chain fixed-cadence time-average samples of the plane's queue
    depth, busy slots and live capacity (blacklist eviction and resizes
    change it mid-run) over the measurement interval (first at
    ``warmup``, none at/after ``horizon``)."""
    engine = simulator.sim
    interval = regime.window / SAMPLES_PER_WINDOW

    def sample() -> None:
        aggregator.sample(
            simulator.pending_tasks(),
            simulator.busy_slots,
            simulator.total_slots,
        )
        next_time = engine.now + interval
        if next_time < regime.horizon:
            engine.schedule_at(next_time, sample)

    engine.schedule_at(regime.warmup, sample)


def run_serving(
    spec: WorkloadSpec,
    plane: str,
    system: str,
    regime: ServingRegime,
    arrival_process: str = "poisson",
    heavy_tail: float = 0.0,
    speculation: str = "late",
    straggler_model: Optional[str] = None,
    run_seed: int = 7,
    lookahead: int = DEFAULT_LOOKAHEAD,
    obs=_OBS_FROM_ENV,
    **plane_knobs,
) -> SimulationResult:
    """One open-loop serving run on either plane.

    ``spec.utilization`` is the target rho; ``spec.num_jobs`` is the
    injection safety cap (not a target — the stream is horizon-bounded).
    ``heavy_tail`` of 0 disables the size modifier; values above 1 are
    the Pareto shape of the whole-job multiplier. Extra keyword knobs
    (autoscaler family, probe ratio, ...) pass through to the plane
    builder. The result carries the windowed steady-state section in
    ``result.serving``.
    """
    source = RandomSource(seed=spec.seed)
    generator = TraceGenerator(
        spec.profile,
        random_source=source,
        num_machines=spec.locality_machines,
        max_phase_tasks=spec.max_phase_tasks,
    )
    size_modifier = None
    multiplier_mean = 1.0
    if heavy_tail:
        size_modifier = HeavyTailSizeModifier(
            heavy_tail, source.child("serving-sizes").rng
        )
        multiplier_mean = size_modifier.mean_multiplier
    arrival_rate = calibrate_arrival_rate(
        generator,
        spec.total_slots,
        spec.utilization,
        size_multiplier_mean=multiplier_mean,
    )
    process = make_arrival_process(
        arrival_process, arrival_rate, source.child("serving-arrivals").rng
    )
    stream = JobStream(
        generator,
        process,
        horizon=regime.horizon,
        max_jobs=spec.num_jobs,
        size_modifier=size_modifier,
    )

    empty_trace = Trace(jobs=[])
    simulator = build_simulator(
        system,
        empty_trace,
        spec,
        plane=plane,
        speculation=speculation,
        straggler_model=straggler_model,
        run_seed=run_seed,
        obs=obs,
        **plane_knobs,
    )

    aggregator = WindowedAggregator(regime)
    simulator.metrics.serving_window = aggregator
    # Every plane's arrival handler is its injection point (the batch
    # plane's buffers the job for its next round).
    driver = OpenLoopDriver(
        simulator.sim, simulator._on_job_arrival, stream, lookahead=lookahead
    )
    driver.prime()
    _schedule_samples(simulator, aggregator, regime)
    result = simulator.run(until=regime.end_time)
    result.serving = aggregator.finalize(
        plane=plane,
        system=system,
        arrival_process=arrival_process,
        arrival_rate=arrival_rate,
        target_utilization=spec.utilization,
        heavy_tail=heavy_tail,
        jobs_offered=driver.jobs_offered,
        events_processed=simulator.sim.events_processed,
    )
    return result


def run_serving_spec(spec) -> SimulationResult:
    """Execute a ``serving``-kind :class:`~repro.sweep.spec.RunSpec`: its
    regime knobs build the :class:`ServingRegime`, the rest pass to
    :func:`run_serving`. A float knob given as an int runs as a float,
    so the result document is the same either way."""
    from repro.runtime.config import resolve

    schema = registry.spec_kind("serving").knobs
    knobs = {k: float(v) if schema[k].type is float else v for k, v in spec.knobs}
    regime = resolve(ServingRegime, knobs)
    descriptor = registry.SYSTEMS.get(spec.system, plane="serving").factory
    return run_serving(
        spec.workload.to_workload_spec(),
        descriptor.plane,
        descriptor.system,
        regime,
        speculation=spec.speculation,
        run_seed=spec.run_seed,
        **knobs,
    )
