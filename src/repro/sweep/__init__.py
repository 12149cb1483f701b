"""Parallel sweep orchestration with a deterministic result cache.

Every paper figure reduces to a grid of independent simulator replays —
(system x utilization x parameter x seed). This package turns that grid
into a first-class object:

* :class:`RunSpec` / :class:`WorkloadParams` — declarative, hashable run
  descriptions with a stable content digest;
* :class:`ResultCache` — on-disk store (``.repro-cache/``) keyed by spec
  digest + code version, making repeated figure/benchmark runs
  incremental;
* :class:`SweepRunner` — deduplicating, cache-aware executor that fans
  cache misses across a process pool (serial fallback included), with
  parallel and serial execution guaranteed to produce identical results;
* :func:`evaluate` — convenience wrapper used by the figure experiments;
* :class:`Study` / :class:`StudyResult` — named, declarative grids with
  seed replication and bootstrap-CI aggregation (``repro study`` CLI).
"""

from repro.sweep.cache import ResultCache, default_version_tag
from repro.sweep.runner import (
    SweepRunner,
    SweepStats,
    default_runner,
    evaluate,
    set_default_runner,
)
from repro.sweep.spec import RunSpec, WorkloadParams
from repro.sweep.study import (
    Cell,
    CellAggregate,
    Study,
    StudyResult,
    bootstrap_ci,
    cell,
    register_study,
    with_axis,
)

__all__ = [
    "RunSpec",
    "WorkloadParams",
    "ResultCache",
    "SweepRunner",
    "SweepStats",
    "evaluate",
    "default_runner",
    "set_default_runner",
    "default_version_tag",
    "Cell",
    "CellAggregate",
    "Study",
    "StudyResult",
    "bootstrap_ci",
    "cell",
    "register_study",
    "with_axis",
]
