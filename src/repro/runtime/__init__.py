"""Shared simulator runtime core.

Both simulator families replay the same physics: jobs arrive, runnable
phases feed a pending queue, task *copies* launch / race / finish / get
killed, and every transition must update the speculation view, the
metrics collector, and the estimators in lockstep. Before this package
that logic lived twice — once in ``centralized/simulator.py`` (the old
``_JobRuntime``) and once across ``decentralized/scheduler.py`` /
``decentralized/simulator.py`` — and every fix had to land in both.

:mod:`repro.runtime` is the single home for that core:

* :class:`JobRuntime` — per-job execution state (pending queue, phase
  activation, throttled speculation-candidate cache) and the job's
  change feed, the one entry for every mutation a scheduler memo
  reads. The centralized simulator and the decentralized
  ``SchedulerJob`` both subclass it;
  :class:`LocalityJobRuntime` layers per-machine locality buckets on
  top for the (centralized) dispatch paths that ask locality questions.
* :class:`CopyLedger` — task-copy identity and lifecycle (launch,
  finish, kill, task completion, job completion) with the shared
  view/metrics/estimator bookkeeping; it feeds each launch, kill and
  finish to the job's change feed.
* :class:`repro.runtime.plane.Plane` — the base both simulators
  subclass (imported from its module, not re-exported here).
* :class:`repro.runtime.config.PlaneConfig` — the settings both planes
  share, on the ``Settings`` base whose fields declare their default,
  description and check once.

Everything here is semantics-preserving refactoring: the golden-digest
tests (``tests/test_golden_results.py``) pin that simulations on the
shared core are bit-identical to the pre-refactor simulators.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "job": ("JobRuntime", "LocalityJobRuntime"),
        "lifecycle": ("CopyLedger",),
    },
)
