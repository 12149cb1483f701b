"""Observability: opt-in tracing, counters and phase profiling.

The simulators answer *what happened* with end-of-run aggregates in
:class:`~repro.metrics.collector.SimulationResult`. This package answers
*why*: a structured event :class:`Tracer` (job spans, copy spans, probe
and eviction instants, exportable to Chrome ``chrome://tracing`` /
Perfetto), a named-:class:`Counters` registry (message batching,
probe conservation, eviction churn) and wall-time :class:`PhaseTimers`
(``engine.dispatch``, ``index.rebuild``, ``policy.evaluate_completion``).

Everything is **zero-cost when off**: an :class:`Obs` bundle is handed
to a simulator at construction, and every hot-path site guards its
instrumentation with a single ``is not None`` check — with no bundle the
replay is bit-identical to the uninstrumented engine (proven by the
pinned golden digests and the differential tests in
``tests/test_obs.py``, which also count zero calls into every sink on
an uninstrumented run).

Enablement is deliberately out-of-band: observability is *not* part of
:class:`~repro.sweep.spec.RunSpec` (it must never change a content
digest). Pass an :class:`Obs` explicitly to a simulator or harness
runner, or set ``REPRO_OBS=1`` in the environment — the harness (and
therefore every sweep worker process, which inherits the environment)
then instruments its runs and attaches the report to
``SimulationResult.obs``.
"""

from repro.obs.core import (
    OBS_ENV,
    Counters,
    Obs,
    PhaseTimers,
    Tracer,
    aggregate_counters,
    aggregate_timers,
    obs_from_env,
)

__all__ = [
    "OBS_ENV",
    "Counters",
    "Obs",
    "PhaseTimers",
    "Tracer",
    "aggregate_counters",
    "aggregate_timers",
    "obs_from_env",
]
