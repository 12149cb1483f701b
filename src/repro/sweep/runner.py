"""Fan a grid of RunSpecs across worker processes, with caching.

The runner owns three orthogonal optimizations on top of plain serial
replay, all of them semantics-preserving because specs are deterministic:

* **dedup** — identical specs (by content digest) inside one sweep are
  executed once and the result shared;
* **cache** — an optional :class:`~repro.sweep.cache.ResultCache` makes
  repeated benchmark/figure invocations incremental across processes;
* **parallelism** — cache misses run on a ``ProcessPoolExecutor``;
  results travel between processes as JSON-safe dicts. Falls back to
  in-process serial execution on single-core machines, for single runs,
  or when a pool cannot be created (restricted sandboxes).

Result lists always come back in spec order, and parallel and serial
execution produce bit-identical results for identical specs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.metrics.collector import SimulationResult
from repro.metrics.serialize import result_from_dict, result_to_dict
from repro.sweep.cache import ResultCache
from repro.sweep.spec import RunSpec

#: Environment toggles consulted by :meth:`SweepRunner.from_env`.
PARALLEL_ENV = "REPRO_SWEEP_PARALLEL"
CACHE_ENV = "REPRO_SWEEP_CACHE"


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: dict in, dict out (must pickle)."""
    spec = RunSpec.from_dict(payload)
    return result_to_dict(spec.execute())


@dataclass
class SweepStats:
    """Counters describing what the last :meth:`SweepRunner.run` did."""

    requested: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    parallel: bool = False

    def add(self, other: "SweepStats") -> None:
        self.requested += other.requested
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.deduplicated += other.deduplicated
        self.parallel = self.parallel or other.parallel


class SweepRunner:
    """Executes grids of :class:`RunSpec` with dedup, cache, parallelism.

    Parameters
    ----------
    max_workers:
        Process-pool size; ``None`` lets the pool pick ``os.cpu_count()``.
    cache:
        Optional :class:`ResultCache`; when set, every result is looked
        up before executing and persisted after.
    parallel:
        ``True``/``False`` forces the mode; ``None`` (default) uses a
        pool only when there is more than one distinct run to execute
        and the machine has more than one core.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        parallel: Optional[bool] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.cache = cache
        self.parallel = parallel
        #: Cumulative counters across every ``run()`` on this runner.
        self.stats = SweepStats()

    @classmethod
    def from_env(cls) -> "SweepRunner":
        """Build a runner from ``REPRO_SWEEP_PARALLEL`` / ``REPRO_SWEEP_CACHE``.

        Both default off/auto: parallelism is auto-detected, caching is
        disabled unless ``REPRO_SWEEP_CACHE=1`` (the cache directory then
        comes from ``REPRO_CACHE_DIR`` or ``.repro-cache``).
        """
        parallel: Optional[bool] = None
        raw = os.environ.get(PARALLEL_ENV)
        if raw is not None:
            parallel = raw not in ("0", "false", "no", "")
        cache = None
        if os.environ.get(CACHE_ENV, "") not in ("", "0", "false", "no"):
            cache = ResultCache()
        return cls(cache=cache, parallel=parallel)

    # -- execution -------------------------------------------------------------

    def _use_pool(self, distinct_pending: int) -> bool:
        if self.parallel is not None:
            return self.parallel and distinct_pending > 1
        if distinct_pending < 2:
            return False
        return (os.cpu_count() or 1) > 1

    def run(self, specs: Iterable[RunSpec]) -> List[SimulationResult]:
        """Execute ``specs``; the result list matches the input order."""
        spec_list: List[RunSpec] = list(specs)
        stats = SweepStats(requested=len(spec_list))
        results: List[Optional[SimulationResult]] = [None] * len(spec_list)

        # Group positions by content digest so identical specs run once.
        positions_by_digest: Dict[str, List[int]] = {}
        spec_by_digest: Dict[str, RunSpec] = {}
        for index, spec in enumerate(spec_list):
            digest = spec.digest()
            positions_by_digest.setdefault(digest, []).append(index)
            spec_by_digest.setdefault(digest, spec)
        stats.deduplicated = len(spec_list) - len(positions_by_digest)

        pending: List[str] = []
        for digest, positions in positions_by_digest.items():
            cached = (
                self.cache.get(spec_by_digest[digest]) if self.cache else None
            )
            if cached is not None:
                stats.cache_hits += 1
                for index in positions:
                    results[index] = cached
            else:
                pending.append(digest)

        if pending:
            stats.executed = len(pending)
            computed = self._execute_pending(
                [spec_by_digest[d] for d in pending], stats
            )
            for digest, result in zip(pending, computed):
                if self.cache is not None:
                    self.cache.put(spec_by_digest[digest], result)
                for index in positions_by_digest[digest]:
                    results[index] = result

        self.stats.add(stats)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _execute_pending(
        self, specs: Sequence[RunSpec], stats: SweepStats
    ) -> List[SimulationResult]:
        if self._use_pool(len(specs)):
            # Imported here so a serial run never loads the pool
            # machinery (concurrent.futures pulls in multiprocessing).
            from concurrent.futures.process import BrokenProcessPool

            try:
                return self._execute_parallel(specs, stats)
            except (OSError, PermissionError, BrokenProcessPool):
                # Pool machinery unavailable or its workers died
                # (sandbox, missing /dev/shm, ...): deterministic serial
                # fallback. Exceptions raised by a spec itself propagate
                # with their original type — never re-run the batch.
                pass
        return [spec.execute() for spec in specs]

    def _execute_parallel(
        self, specs: Sequence[RunSpec], stats: SweepStats
    ) -> List[SimulationResult]:
        from concurrent.futures import ProcessPoolExecutor

        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(specs))
        payloads = [spec.to_dict() for spec in specs]
        with ProcessPoolExecutor(max_workers=workers) as executor:
            documents = list(executor.map(_execute_payload, payloads))
        stats.parallel = True
        return [result_from_dict(doc) for doc in documents]


#: Process-wide default runner used when figure code is not handed one.
_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The lazily-created process-wide runner (configured from env)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner.from_env()
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> None:
    """Override (or with ``None``, reset) the process-wide runner."""
    global _default_runner
    _default_runner = runner


def evaluate(
    specs: Iterable[RunSpec], runner: Optional[SweepRunner] = None
) -> List[SimulationResult]:
    """Run ``specs`` on ``runner`` (or the process-wide default)."""
    return (runner or default_runner()).run(specs)
