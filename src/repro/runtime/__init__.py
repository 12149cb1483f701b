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

Everything here is semantics-preserving refactoring: the golden-digest
tests (``tests/test_golden_results.py``) pin that simulations on the
shared core are bit-identical to the pre-refactor simulators.
"""

from repro.runtime.job import JobRuntime, LocalityJobRuntime
from repro.runtime.lifecycle import CopyLedger

__all__ = ["JobRuntime", "LocalityJobRuntime", "CopyLedger"]
