"""Windowed steady-state metrics for the serving regime.

A batch run's headline number is mean JCT over every job; an open-loop
run's is the *steady-state tail*. This module owns that measurement:

* **Warm-up truncation** — completions before ``warmup`` belong to the
  empty-system transient and are dropped (counted, not silently).
* **Measurement windows** — the interval ``[warmup, horizon)`` is cut
  into fixed windows; each reports completion count and p50/p95/p99 of
  JCT and queueing delay (arrival to first copy launch, the time a job
  spent waiting before the cluster touched it).
* **Cool-down** — the simulator keeps draining for ``cooldown`` past the
  horizon so jobs in flight at the horizon may still finish (they land
  in the batch-style aggregate fields of ``SimulationResult``), but
  those completions are excluded from the steady-state windows.
* **Time averages** — pending-task depth and slot utilization are
  sampled on a fixed cadence inside the measurement interval; their
  means are the (left-endpoint Riemann) time averages.

Everything here is plain floats/ints/lists, so :meth:`finalize`'s
document is JSON-safe and deterministic for a given run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.analysis import percentile
from repro.runtime.config import NON_NEGATIVE, POSITIVE, Settings, setting

#: (label suffix, quantile) pairs every window reports.
_PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


@dataclass(frozen=True)
class ServingRegime(Settings):
    """Time layout of one open-loop run (all virtual seconds).

    Arrivals stream over ``[0, horizon)``; completions are measured in
    ``[warmup, horizon)``, cut into ``window``-sized windows; the engine
    runs until ``horizon + cooldown`` to let in-flight jobs drain.
    """

    warmup: float = setting(
        20.0, "transient truncated before measurement (virtual s)",
        NON_NEGATIVE,
    )
    horizon: float = setting(
        120.0, "arrival/measurement end (virtual seconds)", POSITIVE
    )
    cooldown: float = setting(
        20.0, "drain time past the horizon (virtual seconds)", NON_NEGATIVE
    )
    window: float = setting(
        20.0, "metrics window width (virtual seconds)", POSITIVE
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.horizon <= self.warmup:
            raise ValueError("horizon must exceed warmup")

    @property
    def num_windows(self) -> int:
        return max(
            1, math.ceil((self.horizon - self.warmup) / self.window - 1e-9)
        )

    @property
    def end_time(self) -> float:
        """When the engine stops (measurement end plus drain)."""
        return self.horizon + self.cooldown

    def window_index(self, finish_time: float) -> Optional[int]:
        """Window of a completion, or None outside the measurement
        interval (``finish_time == horizon`` already counts as
        cool-down: windows are half-open on the right)."""
        if finish_time < self.warmup or finish_time >= self.horizon:
            return None
        index = int((finish_time - self.warmup) / self.window)
        return min(index, self.num_windows - 1)


def _stats(values: List[float], prefix: str) -> Dict[str, Optional[float]]:
    """p50/p95/p99 of ``values`` under ``prefix`` (None when empty)."""
    out: Dict[str, Optional[float]] = {}
    for suffix, q in _PERCENTILES:
        out[f"{prefix}_{suffix}"] = percentile(values, q) if values else None
    return out


class WindowedAggregator:
    """Accumulates completions/samples during a run; finalizes to JSON.

    Fed from two zero-cost-when-off hooks: the metrics collector's
    job-completion path and the copy ledger's launch path (first launch
    per job gives queueing delay). Per-job launch state is popped on
    completion, so sustained arrivals do not grow it without bound.
    """

    def __init__(self, regime: ServingRegime) -> None:
        self.regime = regime
        n = regime.num_windows
        self._jct: List[List[float]] = [[] for _ in range(n)]
        self._qdelay: List[List[float]] = [[] for _ in range(n)]
        self._first_launch: Dict[int, float] = {}
        self.measured_jobs = 0
        self.dropped_warmup = 0
        self.dropped_cooldown = 0
        self._depth_samples: List[float] = []
        # Raw (busy, total) pairs — the ratio is formed at finalize time
        # so a mid-run capacity change can weight by the capacity that
        # was actually live at each sample (see finalize).
        self._util_samples: List[Tuple[int, int]] = []

    # -- hooks ---------------------------------------------------------------

    def note_launch(self, job_id: int, time: float) -> None:
        """First-copy launch timestamp (later launches are ignored)."""
        self._first_launch.setdefault(job_id, time)

    def on_completion(
        self, job_id: int, arrival_time: float, finish_time: float
    ) -> None:
        launch = self._first_launch.pop(job_id, None)
        index = self.regime.window_index(finish_time)
        if index is None:
            if finish_time < self.regime.warmup:
                self.dropped_warmup += 1
            else:
                self.dropped_cooldown += 1
            return
        self.measured_jobs += 1
        self._jct[index].append(finish_time - arrival_time)
        # A job cannot complete without a launch; the fallback only
        # guards against synthetic feeds that skip the launch hook.
        queued = (launch if launch is not None else arrival_time) - arrival_time
        self._qdelay[index].append(queued)

    def sample(
        self, pending_tasks: int, busy_slots: int, total_slots: int
    ) -> None:
        """One time-average sample (driver calls on a fixed cadence)."""
        self._depth_samples.append(float(pending_tasks))
        self._util_samples.append((busy_slots, total_slots))

    def _mean_utilization(self) -> Optional[float]:
        """Time-averaged utilization over the sampled capacity.

        With constant capacity this is the historical mean-of-ratios —
        the same per-sample divisions summed in the same order, so runs
        without resizes stay digest-identical. When capacity moved
        mid-run (eviction, autoscaler resize) the samples are weighted
        by the capacity live at each one, ``sum(busy)/sum(total)``: a
        mean of per-sample ratios over a shrinking denominator could
        otherwise exceed 1.0.
        """
        samples = self._util_samples
        if not samples:
            return None
        first_total = samples[0][1]
        if all(total == first_total for _, total in samples):
            ratios = [
                busy / total if total else 0.0 for busy, total in samples
            ]
            return sum(ratios) / len(ratios)
        slot_seconds = sum(total for _, total in samples)
        if not slot_seconds:
            return 0.0
        return sum(busy for busy, _ in samples) / slot_seconds

    # -- reporting -----------------------------------------------------------

    def finalize(self, **meta: Any) -> Dict[str, Any]:
        """The JSON-safe serving section; ``meta`` lands under "regime"
        beside the time layout (arrival process, calibrated rate, ...)."""
        regime = self.regime
        windows = []
        for index in range(regime.num_windows):
            start = regime.warmup + index * regime.window
            row: Dict[str, Any] = {
                "start": start,
                "end": min(start + regime.window, regime.horizon),
                "completions": len(self._jct[index]),
            }
            row.update(_stats(self._jct[index], "jct"))
            row.update(_stats(self._qdelay[index], "queueing"))
            windows.append(row)
        all_jct = [v for window in self._jct for v in window]
        all_qdelay = [v for window in self._qdelay for v in window]
        overall: Dict[str, Any] = {}
        overall.update(_stats(all_jct, "jct"))
        overall.update(_stats(all_qdelay, "queueing"))
        overall["mean_pending_tasks"] = (
            sum(self._depth_samples) / len(self._depth_samples)
            if self._depth_samples
            else None
        )
        overall["mean_utilization"] = self._mean_utilization()
        overall["samples"] = len(self._depth_samples)
        return {
            "regime": {
                "warmup": regime.warmup,
                "horizon": regime.horizon,
                "cooldown": regime.cooldown,
                "window": regime.window,
                **meta,
            },
            "measured_jobs": self.measured_jobs,
            "dropped_warmup": self.dropped_warmup,
            "dropped_cooldown": self.dropped_cooldown,
            "windows": windows,
            "overall": overall,
        }
