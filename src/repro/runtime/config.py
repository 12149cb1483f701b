"""Settings dataclasses: a field declares its default, description and
check once (:func:`setting`). :class:`Settings` runs the checks in the
one ``__post_init__``, so a subclass writes only cross-field checks;
:mod:`repro.registry` derives the spec kinds' knobs from the same
fields. :class:`PlaneConfig` holds the settings both planes share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: A per-field check: the predicate and the phrase ``<name> must be ...``.
Check = Tuple[Callable[[Any], bool], str]

POSITIVE: Check = (lambda v: v > 0, "positive")
NON_NEGATIVE: Check = (lambda v: v >= 0, "non-negative")


def at_least(bound: float) -> Check:
    return (lambda v: v >= bound, f">= {bound:g}")


def setting(default: Any, description: str, check: Optional[Check] = None):
    """A settings field: its default, description and optional check."""
    return field(
        default=default,
        metadata={"description": description, "check": check},
    )


class Settings:
    """Base of the settings dataclasses: runs every field's check."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value, check = getattr(self, f.name), f.metadata.get("check")
            if isinstance(f.default, enum.Enum):
                # Knobs and overrides name a member by its value string.
                object.__setattr__(self, f.name, type(f.default)(value))
            elif check is not None and not check[0](value):
                raise ValueError(f"{f.name} must be {check[1]}")


def resolve(cls: type, knobs: Dict[str, Any], *layers: Mapping[str, Any]):
    """Build ``cls`` from its defaults, then each of ``layers`` in order,
    then the entries of ``knobs`` that name its fields (popped, so the
    caller keeps the rest). A layer key that names no field raises
    ``ValueError``."""
    names = [f.name for f in fields(cls)]
    values: Dict[str, Any] = {}
    for layer in layers:
        unknown = sorted(set(layer).difference(names))
        if unknown:
            raise ValueError(f"{cls.__name__} has no field {', '.join(unknown)}")
        values.update(layer)
    for name in names:
        if name in knobs:
            values[name] = knobs.pop(name)
    return cls(**values)


@dataclass
class PlaneConfig(Settings):
    """The settings both simulator planes share."""

    epsilon: float = setting(
        0.1,
        "fairness knob (0 = perfectly fair floors, 1 = no floors; §4.3)",
        (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    )
    speculation_check_interval: float = setting(
        1.0, "virtual time between periodic straggler scans", POSITIVE
    )
    default_beta: float = setting(
        1.5, "Pareto tail index assumed before beta is learned", POSITIVE
    )
    learn_beta: bool = setting(
        True, "fit beta online from completed tasks (else default_beta)"
    )
    use_alpha: bool = setting(
        True, "weight virtual sizes by sqrt(alpha) for DAG jobs"
    )
    network_rate: float = setting(
        1.0, "data units transferred per time unit (feeds alpha)", POSITIVE
    )
