"""Order statistics and the regression rule shared by run.py and compare.py."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles (``statistics.quantiles(values, n=4)``), range,
    count and the values themselves."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values to summarize")
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "values": list(values),
    }


def spread(summary: Dict[str, object]) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    if not median:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(median)


def change(base: Dict[str, object], new: Dict[str, object], better: str) -> float:
    """How much worse ``new``'s median is than ``base``'s, as a share of
    ``base``'s (negative when it is better)."""
    delta = (new["median"] - base["median"]) / abs(base["median"])
    return delta if better == "lower" else -delta


def _all_better(base: Dict[str, object], new: Dict[str, object], better: str) -> bool:
    if better == "lower":
        return max(new["values"]) < min(base["values"])
    return min(new["values"]) > max(base["values"])


def verdict(
    base: Dict[str, object], new: Dict[str, object], better: str, bound: float
) -> str:
    """``worse`` when ``new``'s median is worse than ``base``'s by more
    than ``bound``; ``unresolved`` when either side's spread is wider
    than ``bound`` (unless every new value beats every base value);
    ``ok`` otherwise."""
    if max(spread(base), spread(new)) > bound:
        return "ok" if _all_better(base, new, better) else "unresolved"
    return "worse" if change(base, new, better) > bound else "ok"
