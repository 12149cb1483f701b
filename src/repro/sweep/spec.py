"""Declarative, hashable descriptions of single simulator runs.

A :class:`RunSpec` pins down everything a replay depends on — workload
profile, trace shape, system, speculation algorithm, knobs, and seeds —
as plain JSON-safe values. Two properties follow:

* **determinism** — executing the same spec always produces the same
  :class:`~repro.metrics.collector.SimulationResult`, in any process,
  because every random stream is seeded from the spec itself;
* **content addressing** — :meth:`RunSpec.digest` is a stable SHA-256 of
  the canonical JSON form, which keys the on-disk result cache and
  deduplicates repeated runs inside a sweep.

Names (spec kinds, systems, speculation policies, workload profiles,
knob schemas) all resolve through :mod:`repro.registry`: registering a
new system there makes it constructible and executable here with no
further edits. The canonical dict form predates the registry and is
frozen — existing cache entries stay valid across the migration (see
the golden-digest tests).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro import registry as _registry

_SCALAR_TYPES = (bool, int, float, str, type(None))

#: Names accepted by :func:`repro.speculation.make_speculation_policy`.
SPECULATION_ALGORITHMS = _registry.SPECULATION_POLICIES.names()


@dataclass(frozen=True)
class WorkloadParams:
    """JSON-safe mirror of :class:`repro.experiments.harness.WorkloadSpec`.

    The workload profile is referenced by registry name (see
    :data:`repro.registry.WORKLOAD_PROFILES`) instead of by object so
    the spec stays hashable and serializable.
    """

    profile: str = "facebook"
    num_jobs: int = 150
    utilization: float = 0.6
    total_slots: int = 400
    seed: int = 42
    max_phase_tasks: Optional[int] = 300
    locality_machines: Optional[int] = None

    def __post_init__(self) -> None:
        # Resolve eagerly so bad profile names fail at construction.
        from repro.workload.generator import profile_by_name

        profile_by_name(self.profile)
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if not 0.0 < self.utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        if self.total_slots <= 0:
            raise ValueError("total_slots must be positive")

    def to_workload_spec(self):
        """Materialize the harness :class:`WorkloadSpec` this describes."""
        from repro.experiments.harness import WorkloadSpec
        from repro.workload.generator import profile_by_name

        return WorkloadSpec(
            profile=profile_by_name(self.profile),
            num_jobs=self.num_jobs,
            utilization=self.utilization,
            total_slots=self.total_slots,
            seed=self.seed,
            max_phase_tasks=self.max_phase_tasks,
            locality_machines=self.locality_machines,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadParams":
        """Strict deserialization: unknown keys fail loudly.

        A stale or hand-edited cache entry must not silently deserialize
        to a *different* workload than the one that produced the digest.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown WorkloadParams field(s) {unknown}; "
                f"expected a subset of {sorted(known)} — the document may "
                f"come from a stale cache entry or a newer code version"
            )
        return cls(**data)


KnobsInput = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]

#: Canonical top-level keys of :meth:`RunSpec.to_dict`.
_RUNSPEC_KEYS = frozenset(
    {"kind", "system", "workload", "speculation", "run_seed", "knobs"}
)


@dataclass(frozen=True)
class RunSpec:
    """One simulator replay, fully determined by its field values.

    Attributes
    ----------
    kind:
        A registered spec kind: ``"centralized"``, ``"decentralized"``
        or ``"single_job"`` (see :data:`repro.registry.SPEC_KINDS`).
    system:
        System name, resolved on the kind's plane of
        :data:`repro.registry.SYSTEMS`.
    workload:
        Trace shape and generation seed. (``single_job`` specs use only
        ``seed`` — the job is synthesized from the knobs.)
    speculation:
        Straggler-mitigation algorithm (``late``, ``mantri``, ``grass``).
    run_seed:
        Seed for the replay's own random streams (straggler draws etc.);
        for ``single_job`` specs, the repetition index.
    knobs:
        Extra scalar keyword arguments, validated against the kind's
        typed knob schema and normalized to a sorted tuple of pairs so
        the spec hashes.
    """

    kind: str
    system: str
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    speculation: str = "late"
    run_seed: int = 7
    knobs: KnobsInput = ()

    def __post_init__(self) -> None:
        kind = _registry.spec_kind(self.kind)
        _registry.SYSTEMS.get(self.system, plane=self.kind)
        _registry.SPECULATION_POLICIES.get(self.speculation)
        items = (
            tuple(sorted(self.knobs.items()))
            if isinstance(self.knobs, Mapping)
            else tuple(tuple(pair) for pair in sorted(self.knobs))
        )
        for key, value in items:
            if not isinstance(value, _SCALAR_TYPES):
                raise ValueError(
                    f"knob {key!r} must be a JSON scalar, got {value!r}"
                )
        kind.validate_knobs(items)
        object.__setattr__(self, "knobs", items)

    # -- content addressing ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict form (stable across processes)."""
        return {
            "kind": self.kind,
            "system": self.system,
            "workload": self.workload.to_dict(),
            "speculation": self.speculation,
            "run_seed": self.run_seed,
            "knobs": {k: v for k, v in self.knobs},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Strict deserialization: unknown keys fail loudly (see
        :meth:`WorkloadParams.from_dict`)."""
        unknown = sorted(set(data) - _RUNSPEC_KEYS)
        if unknown:
            raise ValueError(
                f"unknown RunSpec field(s) {unknown}; "
                f"expected a subset of {sorted(_RUNSPEC_KEYS)} — the "
                f"document may come from a stale cache entry or a newer "
                f"code version"
            )
        return cls(
            kind=data["kind"],
            system=data["system"],
            workload=WorkloadParams.from_dict(data["workload"]),
            speculation=data.get("speculation", "late"),
            run_seed=data.get("run_seed", 7),
            knobs=data.get("knobs", {}),
        )

    def digest(self) -> str:
        """Stable SHA-256 content digest of the canonical JSON form."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for logs and CLI output."""
        wl = self.workload
        return (
            f"{self.kind[0]}:{self.system}"
            f"@{wl.profile}/u{wl.utilization:g}/n{wl.num_jobs}/s{wl.seed}"
        )

    # -- execution -------------------------------------------------------------

    def execute(self):
        """Run this spec to completion and return its result.

        Deterministic: the trace is rebuilt from ``workload.seed`` and the
        replay reseeded from ``run_seed``, so the outcome is identical in
        any process. Dispatch goes through the spec-kind registry, so
        registered kinds (including plugins) execute with no edits here.
        """
        return _registry.spec_kind(self.kind).run(self)
