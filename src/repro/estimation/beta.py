"""Online estimation of the Pareto tail index beta (§4.1, §7.2).

Hopper learns beta from completed task durations as the workload executes;
the paper reports the estimate's error falls below 5% after ~6% of jobs
complete. We use the standard Hill / MLE estimator for the Pareto shape:

    beta_hat = n / sum(ln(x_i / x_m))

over a sliding window of recent durations, clamped to a sane range so a
few early samples cannot destabilise the virtual-size computation.

:func:`fit_pareto_shape` is the one-shot fit and the oracle the tests diff
the online estimator against. :class:`OnlineBetaEstimator` keeps each
window sample's Hill term beside it, so a refit is one O(window) float sum
with no ``log`` calls; the terms are rebuilt only when the window minimum
x_m changes, which a heavy-tailed stream does rarely.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, Optional, Tuple


def fit_pareto_shape(
    durations: Iterable[float],
    scale: Optional[float] = None,
) -> float:
    """Maximum-likelihood Pareto shape from observed durations.

    Parameters
    ----------
    durations:
        Positive samples.
    scale:
        The Pareto scale x_m; defaults to the sample minimum.
    """
    data = [float(d) for d in durations if d > 0]
    if not data:
        raise ValueError("need at least one positive duration")
    xm = scale if scale is not None else min(data)
    if xm <= 0:
        raise ValueError("scale must be positive")
    log_sum = sum(math.log(d / xm) for d in data if d > xm)
    if log_sum <= 0:
        raise ValueError("samples carry no tail information (all <= scale)")
    n = sum(1 for d in data if d > xm)
    return n / log_sum


class OnlineBetaEstimator:
    """Sliding-window beta estimator with a prior and clamping.

    Until ``min_samples`` observations arrive, :attr:`beta` returns the
    prior ``default_beta``; afterwards it returns the windowed MLE clamped
    to ``clamp_range``. The value is the float ``fit_pareto_shape`` gives
    on the window, bit for bit.

    Beside each window sample the estimator keeps its Hill term
    ``log(d / x_m)`` (exactly 0.0 for a sample equal to x_m, a no-op in a
    float sum), a monotone min-deque that tracks x_m through eviction and
    the count of samples equal to x_m. A refit is then ``n / sum(terms)``
    in window order: an O(window) float sum with no logs and no minimum
    scan. The terms are rebuilt only when x_m changes.
    """

    def __init__(
        self,
        default_beta: float = 1.5,
        min_samples: int = 20,
        window: int = 5000,
        clamp_range: Tuple[float, float] = (1.05, 3.0),
        refresh_every: int = 50,
    ) -> None:
        if default_beta <= 0:
            raise ValueError("default_beta must be positive")
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if window < min_samples:
            raise ValueError("window must be >= min_samples")
        lo, hi = clamp_range
        if not 0 < lo < hi:
            raise ValueError("invalid clamp_range")
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        self.default_beta = default_beta
        self.min_samples = min_samples
        self.clamp_range = clamp_range
        self.refresh_every = refresh_every
        self._window = window
        self._samples: Deque[float] = deque()
        self._terms: Deque[float] = deque()  # log(d / xm), aligned with samples
        self._minima: Deque[float] = deque()  # nondecreasing; front is xm
        self._xm = math.inf
        self._ties = 0  # samples equal to xm
        self._observations = 0
        # The prior until min_samples observations: a window that is not
        # full holds exactly one sample per observation.
        self._cached_beta = default_beta
        self._next_fit = min_samples

    @property
    def num_observations(self) -> int:
        return self._observations

    def observe(self, duration: float) -> None:
        """Record one completed task duration (non-positive, NaN and
        infinite durations are ignored)."""
        if not 0 < duration < math.inf:
            return
        d = float(duration)
        samples, minima = self._samples, self._minima
        if len(samples) == self._window:
            gone = samples.popleft()
            self._terms.popleft()
            if gone == self._xm:
                minima.popleft()
                self._ties -= 1
        while minima and minima[-1] > d:
            minima.pop()
        minima.append(d)
        samples.append(d)
        self._observations += 1
        xm = minima[0]
        if xm != self._xm:
            self._xm = xm
            self._rebuild_terms()
        elif d == xm:
            self._terms.append(0.0)
            self._ties += 1
        else:
            self._terms.append(math.log(d / xm))

    def _rebuild_terms(self) -> None:
        """Recompute every Hill term against the new window minimum."""
        xm, log = self._xm, math.log
        self._terms = deque([log(d / xm) for d in self._samples])
        self._ties = self._samples.count(xm)

    @property
    def beta(self) -> float:
        """Current estimate (prior until warm, then clamped windowed MLE).

        The fit is refreshed at most every ``refresh_every`` observations;
        in between the cached value is returned (O(1))."""
        if self._observations >= self._next_fit:
            # The same sum fit_pareto_shape takes: the 0.0 terms of samples
            # equal to xm leave it (and Python 3.12's compensated sum) as is.
            log_sum = sum(self._terms)
            if log_sum > 0:
                lo, hi = self.clamp_range
                estimate = (len(self._samples) - self._ties) / log_sum
                self._cached_beta = min(hi, max(lo, estimate))
            else:  # no tail information: fit_pareto_shape raises
                self._cached_beta = self.default_beta
            self._next_fit = self._observations + self.refresh_every
        return self._cached_beta

    def relative_error(self, true_beta: float) -> float:
        """|beta_hat - beta| / beta — used to reproduce the <=5% claim."""
        if true_beta <= 0:
            raise ValueError("true_beta must be positive")
        return abs(self.beta - true_beta) / true_beta
