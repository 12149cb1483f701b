"""Central name registries for everything an experiment references.

The paper's results compare *named* systems (fair / SRPT / Hopper,
Sparrow / Sparrow-SRPT / Hopper) under *named* policies (LATE / Mantri /
GRASS speculation, Pareto stragglers) on *named* workload profiles.
Before this module those names were hardcoded four different ways —
tuples in ``sweep/spec.py``, if-chains in the harness, a private dict
for the decentralized systems, and string checks in the speculation
factory. Adding one new scheduler meant editing four files in lockstep.

Now every named thing registers here exactly once, with:

* a **factory** that builds it,
* a typed **knob schema** (name -> type / default / validator) where the
  thing is parameterizable, and
* a one-line **description** surfaced by ``python -m repro list``.

``RunSpec`` validation, the harness runners, and the CLI all resolve
through these registries, so registering a new entry makes it usable
end-to-end (spec -> sweep -> study -> CLI) with no other edits:

    from repro.registry import SYSTEMS
    SYSTEMS.register(
        "centralized",
        "lifo",
        lambda epsilon: MyLifoPolicy(),
        description="LIFO strawman",
    )
    RunSpec("centralized", "lifo", WorkloadParams()).execute()

Registries
----------
``SPEC_KINDS``
    Run shapes: ``centralized``, ``decentralized``, ``batch``,
    ``single_job``, ``serving``. Each kind carries its knob schema and
    the executor that turns a :class:`~repro.sweep.spec.RunSpec` into a
    :class:`~repro.metrics.collector.SimulationResult`.
``SYSTEMS``
    The one store of schedulers. Each entry carries its ``plane``
    (``centralized`` / ``decentralized`` / ``batch`` / ``single_job`` /
    ``serving``, one per spec kind); a kind's systems are
    ``SYSTEMS.entries(plane=kind.name)``.
``SPECULATION_POLICIES``
    Straggler-mitigation algorithms (LATE, Mantri, GRASS, none).
``STRAGGLER_MODELS``
    Generative straggler models, resolvable by name from a spec knob.
``BLACKLIST_POLICIES``
    Mid-run machine-eviction policies (see :mod:`repro.cluster.policy`),
    resolvable by name from the ``blacklist_policy`` spec knob.
``AUTOSCALER_POLICIES``
    Elastic-cluster autoscalers (see :mod:`repro.cluster.elastic`),
    resolvable by name from the ``autoscaler`` spec knob; they emit
    mid-run ADD_MACHINE/REMOVE_MACHINE events on every plane.
``WORKLOAD_PROFILES``
    Synthetic trace profiles (Facebook / Bing and their Spark variants).
``STUDIES``
    Named multi-seed experiment grids (populated by
    :mod:`repro.experiments.figures`; use :func:`studies` to read it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)


class RegistryError(ValueError):
    """Base class for registry lookup/registration failures."""


class UnknownEntryError(RegistryError):
    """Raised when a name is not registered; message lists valid names."""


class DuplicateEntryError(RegistryError):
    """Raised when a name is registered twice without ``replace=True``."""


class KnobError(RegistryError):
    """Raised when a knob name or value fails its schema."""


def type_label(expected: Union[type, Tuple[type, ...]]) -> str:
    """Human-readable name of a knob's expected type(s)."""
    if isinstance(expected, tuple):
        return " or ".join(t.__name__ for t in expected)
    return expected.__name__


def _type_matches(value: Any, expected: type) -> bool:
    # bool is an int subclass; keep the two distinct so a schema can
    # demand a real flag (and an int knob reject True/False).
    if expected is bool:
        return isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, expected)


@dataclass(frozen=True)
class Knob:
    """One typed, validated keyword parameter of a registry entry.

    Attributes
    ----------
    name:
        Keyword name as it appears in ``RunSpec.knobs``.
    type:
        Expected Python type (or tuple of types). ``float`` accepts
        ints; ``int``/``float`` reject bools.
    default:
        Value used when the knob is omitted (documentation only — specs
        never inject defaults, so digests are unaffected).
    description:
        One line for ``repro list``.
    validator:
        Optional predicate on the value; ``False``/raising means invalid.
    choices:
        Optional callable returning the valid names for this knob
        (typically a registry's bound ``names`` method, so late
        registrations count). A value outside the choices raises a
        :class:`KnobError` that *lists* the registered names — a bare
        "rejected value" echo is useless when the fix is picking one of
        a family's members.
    """

    name: str
    type: Union[type, Tuple[type, ...]] = float
    default: Any = None
    description: str = ""
    validator: Optional[Callable[[Any], bool]] = None
    choices: Optional[Callable[[], Sequence[str]]] = None

    def validate(self, value: Any) -> None:
        """Raise :class:`KnobError` unless ``value`` fits this knob."""
        expected = self.type if isinstance(self.type, tuple) else (self.type,)
        if not any(_type_matches(value, t) for t in expected):
            raise KnobError(
                f"knob {self.name!r} must be {type_label(self.type)}, "
                f"got {value!r} ({type(value).__name__})"
            )
        if self.choices is not None:
            valid = tuple(self.choices())
            if value not in valid:
                raise KnobError(
                    f"knob {self.name!r} got unknown name {value!r}; "
                    f"registered names: "
                    f"{', '.join(sorted(valid)) or '(none)'}"
                )
        if self.validator is not None and not self.validator(value):
            raise KnobError(
                f"knob {self.name!r} rejected value {value!r}"
                + (f" ({self.description})" if self.description else "")
            )


@dataclass(frozen=True)
class Entry:
    """One registered name: factory + knob schema + description."""

    name: str
    factory: Any
    description: str = ""
    knobs: Mapping[str, Knob] = field(default_factory=dict)


class Registry:
    """An ordered name -> :class:`Entry` table with helpful errors.

    ``label`` names the registry in every error message (the tests pin
    this: an unknown-name error must say *which* registry rejected the
    name and list what it does contain).
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self._entries: Dict[str, Entry] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Any,
        description: str = "",
        knobs: Iterable[Knob] = (),
        replace: bool = False,
    ) -> Entry:
        """Register ``factory`` under ``name``; duplicate names raise."""
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"{self.label} name must be a non-empty string, got {name!r}"
            )
        if name in self._entries and not replace:
            raise DuplicateEntryError(
                f"{self.label} {name!r} is already registered; "
                f"pass replace=True to override"
            )
        entry = Entry(
            name=name,
            factory=factory,
            description=description,
            knobs={knob.name: knob for knob in knobs},
        )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (plugin teardown / tests)."""
        self._entries.pop(name, None)

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str) -> Entry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownEntryError(
                f"unknown {self.label} {name!r}; "
                f"valid entries: {', '.join(sorted(self._entries)) or '(none)'}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._entries)

    def entries(self) -> Tuple[Entry, ...]:
        return tuple(self._entries.values())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.label!r}, {list(self._entries)})"


# --------------------------------------------------------------------------
# Spec kinds: run shapes a RunSpec can take
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecKind:
    """One run shape: knob schema + executor. Its systems are the
    :data:`SYSTEMS` entries on the plane of the same name."""

    name: str
    knobs: Mapping[str, Knob]
    run: Callable[[Any], Any]  # RunSpec -> SimulationResult
    description: str = ""

    def validate_knobs(self, items: Sequence[Tuple[str, Any]]) -> None:
        """Validate normalized ``(name, value)`` knob pairs for this kind."""
        for key, value in items:
            try:
                knob = self.knobs[key]
            except KeyError:
                raise KnobError(
                    f"unknown {self.name} knob {key!r}; "
                    f"expected one of {sorted(self.knobs)}"
                ) from None
            knob.validate(value)


SPEC_KINDS = Registry("spec kind")
SPECULATION_POLICIES = Registry("speculation policy")
STRAGGLER_MODELS = Registry("straggler model")
BLACKLIST_POLICIES = Registry("blacklist policy")
AUTOSCALER_POLICIES = Registry("autoscaler policy")
WORKLOAD_PROFILES = Registry("workload profile")
STUDIES = Registry("study")


# --------------------------------------------------------------------------
# The plane-tagged systems table
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemEntry:
    """One registered scheduler: its plane, name, factory, description."""

    plane: str
    name: str
    factory: Any
    description: str = ""

    @property
    def qualified(self) -> str:
        """The unambiguous ``plane/name`` form of this system."""
        return f"{self.plane}/{self.name}"


class SystemsTable:
    """Every scheduler system, stored once and tagged with its plane.

    Lookups accept a bare name (when unambiguous), a qualified
    ``plane/name`` string, or an explicit ``plane=`` keyword. Entries
    list grouped by plane, in the order the planes were declared.
    """

    def __init__(self, planes: Iterable[str]) -> None:
        self._planes: Dict[str, Dict[str, SystemEntry]] = {
            plane: {} for plane in planes
        }

    def _systems(self, plane: str) -> Dict[str, SystemEntry]:
        try:
            return self._planes[plane]
        except KeyError:
            raise UnknownEntryError(
                f"unknown scheduler plane {plane!r}; "
                f"valid planes: {', '.join(self._planes)}"
            ) from None

    def register(
        self,
        plane: str,
        name: str,
        factory: Any,
        description: str = "",
        replace: bool = False,
    ) -> SystemEntry:
        """Register ``factory`` as system ``name`` on ``plane``;
        duplicate names on one plane raise."""
        systems = self._systems(plane)
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"{plane} system name must be a non-empty string, "
                f"got {name!r}"
            )
        if name in systems and not replace:
            raise DuplicateEntryError(
                f"{plane} system {name!r} is already registered; "
                f"pass replace=True to override"
            )
        entry = SystemEntry(plane, name, factory, description)
        systems[name] = entry
        return entry

    def unregister(self, plane: str, name: str) -> None:
        """Remove a system (plugin teardown / tests)."""
        self._systems(plane).pop(name, None)

    def get(self, system: str, plane: Optional[str] = None) -> SystemEntry:
        """Resolve ``system`` to a :class:`SystemEntry`.

        ``system`` may be qualified (``"batch/hopper"``); a bare name is
        accepted only when it exists on exactly one plane — otherwise
        the error lists the qualified candidates.
        """
        if plane is None and "/" in system:
            plane, _, system = system.partition("/")
        if plane is not None:
            systems = self._systems(plane)
            try:
                return systems[system]
            except KeyError:
                raise UnknownEntryError(
                    f"unknown {plane} system {system!r}; valid entries: "
                    f"{', '.join(sorted(systems)) or '(none)'}"
                ) from None
        hits = [
            systems[system]
            for systems in self._planes.values()
            if system in systems
        ]
        if not hits:
            raise UnknownEntryError(
                f"unknown system {system!r}; registered systems: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        if len(hits) > 1:
            qualified = ", ".join(hit.qualified for hit in hits)
            raise RegistryError(
                f"system name {system!r} is registered on several planes "
                f"({qualified}); qualify it as plane/name or pass plane="
            )
        return hits[0]

    def entries(self, plane: Optional[str] = None) -> Tuple[SystemEntry, ...]:
        """Every system grouped by plane, or only ``plane``'s systems."""
        if plane is not None:
            return tuple(self._systems(plane).values())
        return tuple(
            entry
            for systems in self._planes.values()
            for entry in systems.values()
        )

    def names(self) -> Tuple[str, ...]:
        """Qualified ``plane/name`` strings for every registered system."""
        return tuple(entry.qualified for entry in self.entries())

    def __repr__(self) -> str:
        return f"SystemsTable({list(self._planes)})"


SYSTEMS = SystemsTable(
    ("centralized", "decentralized", "batch", "single_job", "serving")
)


def spec_kind(name: str) -> SpecKind:
    """Resolve a registered :class:`SpecKind` by name."""
    return SPEC_KINDS.get(name).factory


def studies() -> Registry:
    """The study registry, with the built-in studies loaded."""
    import repro.experiments.batch  # noqa: F401  (batch_rounds study)
    import repro.experiments.blacklist  # noqa: F401  (registers blacklist)
    import repro.experiments.blacklist_policy  # noqa: F401  (eviction study)
    import repro.experiments.elastic  # noqa: F401  (elastic study)
    import repro.experiments.figures  # noqa: F401  (registers studies)
    import repro.experiments.scale  # noqa: F401  (registers the scale study)
    import repro.experiments.serving  # noqa: F401  (steady_state study)

    return STUDIES


def make_straggler_model(
    name: str,
    profile: Any = None,
    num_machines: Optional[int] = None,
    **kwargs: Any,
):
    """Build a registered straggler model.

    ``profile`` parameterizes distribution shapes; ``num_machines`` is
    the per-run cluster size, required by machine-correlated models
    (the harness passes it automatically) and ignored by i.i.d. ones.
    """
    return STRAGGLER_MODELS.get(name).factory(
        profile, num_machines=num_machines, **kwargs
    )


def make_blacklist_policy(
    name: str,
    num_machines: Optional[int] = None,
    **kwargs: Any,
):
    """Build a registered blacklist policy (or None for ``"none"``).

    ``num_machines`` is the per-run cluster size, required by every
    real policy to bound its eviction cap; the harness wires it
    automatically for both simulator planes.
    """
    return BLACKLIST_POLICIES.get(name).factory(
        num_machines=num_machines, **kwargs
    )


def make_autoscaler(name: str, **kwargs: Any):
    """Build a registered autoscaler policy (or None for ``"none"``).

    Keyword knobs are the ``_AUTOSCALER_KNOBS`` group; each factory
    consumes the ones it understands and ignores the rest, so callers
    may pass the whole knob group through unconditionally.
    """
    return AUTOSCALER_POLICIES.get(name).factory(**kwargs)


# --------------------------------------------------------------------------
# Built-in registrations
#
# Domain modules are imported lazily inside the factories/executors so
# importing ``repro.registry`` never drags in the simulators (and so no
# import cycles form: domain modules may import this module freely).
# --------------------------------------------------------------------------

def _fair_factory(epsilon: float = 0.1):
    from repro.centralized.policies import FairPolicy

    return FairPolicy()


def _srpt_factory(epsilon: float = 0.1):
    from repro.centralized.policies import SRPTPolicy

    return SRPTPolicy()


def _hopper_factory(epsilon: float = 0.1):
    from repro.centralized.policies import HopperPolicy

    return HopperPolicy(epsilon=epsilon)


@dataclass(frozen=True)
class CentralizedSystemDefaults:
    """A centralized scheduler family member: policy factory plus the
    speculation mode the paper runs it under by default.

    Instances are callable with the legacy ``factory(epsilon=...) ->
    CentralizedPolicy`` contract, so plain-callable registrations (and
    any code holding ``entry.factory``) keep working; the harness
    additionally reads ``speculation_mode`` instead of special-casing
    system names. ``speculation_mode`` is a
    :class:`~repro.centralized.config.SpeculationMode` value string so
    this module never imports the simulator at import time.
    """

    make_policy: Any
    speculation_mode: Optional[str] = None

    def __call__(self, epsilon: float = 0.1):
        return self.make_policy(epsilon=epsilon)


@dataclass(frozen=True)
class DecentralizedSystemDefaults:
    """Per-system defaults the paper uses for the decentralized runs.

    ``late_binding`` switches the probe protocol to Sparrow's
    late-binding mode (probes reserve a slot; the worker pulls the
    concrete task at execution time). ``power_of_d`` oversamples the
    probe targets ``d``-fold and keeps the least-loaded workers;
    ``1`` is plain uniform sampling and leaves the entropy stream
    untouched.
    """

    worker_policy: Any
    probe_ratio: float
    epsilon: float
    late_binding: bool = False
    power_of_d: int = 1


def _decentralized_defaults(
    worker_policy: str, probe_ratio: float, epsilon: float, **extra: Any
) -> Callable[[], DecentralizedSystemDefaults]:
    """A zero-argument factory for one system's defaults; the
    :class:`~repro.decentralized.config.WorkerPolicy` member is named
    here and imported only when the factory runs."""

    def make() -> DecentralizedSystemDefaults:
        from repro.decentralized.config import WorkerPolicy

        return DecentralizedSystemDefaults(
            WorkerPolicy[worker_policy], probe_ratio, epsilon, **extra
        )

    return make


@dataclass(frozen=True)
class ServingSystem:
    """A serving-regime target: which plane, and which system on it.

    The open-loop driver streams into either simulator family; an entry
    here names one (plane, system) pair so a ``serving`` RunSpec stays
    a flat name like every other kind. ``system`` must itself be
    registered on that plane.
    """

    plane: str  # "centralized" | "decentralized"
    system: str


def _register_systems() -> None:
    # The centralized plane and the batch plane run the same three
    # policies under the same default speculation modes.
    for name, make_policy, mode, centralized_about, batch_about in (
        (
            "fair",
            _fair_factory,
            "best_effort",
            "max-min fair sharing across active jobs",
            "periodic rounds of max-min fair sharing",
        ),
        (
            "srpt",
            _srpt_factory,
            "best_effort",
            "shortest remaining processing time (speculation-blind)",
            "periodic rounds of SRPT allocation",
        ),
        (
            "hopper",
            _hopper_factory,
            "integrated",
            "speculation-aware Hopper allocation (the paper's system)",
            "periodic rounds of Hopper allocation over the buffer",
        ),
    ):
        defaults = CentralizedSystemDefaults(make_policy, mode)
        SYSTEMS.register("centralized", name, defaults, centralized_about)
        SYSTEMS.register("batch", name, defaults, batch_about)

    for name, defaults, description in (
        (
            "sparrow",
            _decentralized_defaults("FIFO", 2.0, 1.0),
            "Sparrow batch sampling, FIFO worker queues (d=2)",
        ),
        (
            "sparrow-srpt",
            _decentralized_defaults("SRPT", 2.0, 1.0),
            "Sparrow with SRPT worker queues (the strong baseline)",
        ),
        (
            "hopper",
            _decentralized_defaults("HOPPER", 4.0, 0.1),
            "decentralized Hopper (d=4, epsilon=0.1 fairness)",
        ),
        (
            "sparrow-lb",
            _decentralized_defaults("FIFO", 2.0, 1.0, late_binding=True),
            "Sparrow with late binding: probes reserve, workers pull the "
            "task at execution time",
        ),
        (
            "sparrow-po2",
            _decentralized_defaults("FIFO", 2.0, 1.0, power_of_d=2),
            "Sparrow with power-of-2 probe sampling (oversample, keep the "
            "least-loaded)",
        ),
    ):
        SYSTEMS.register("decentralized", name, defaults, description)

    SYSTEMS.register(
        "single_job",
        "hopper",
        _hopper_factory,
        "single-job Hopper with uncapped LATE (Fig. 3 setting)",
    )

    for name, plane, system, description in (
        (
            "hopper",
            "decentralized",
            "hopper",
            "open-loop stream into decentralized Hopper (d=4)",
        ),
        (
            "sparrow-srpt",
            "decentralized",
            "sparrow-srpt",
            "open-loop stream into Sparrow-SRPT (the strong baseline)",
        ),
        (
            "hopper-c",
            "centralized",
            "hopper",
            "open-loop stream into centralized Hopper",
        ),
        (
            "srpt-c",
            "centralized",
            "srpt",
            "open-loop stream into centralized SRPT",
        ),
    ):
        SYSTEMS.register("serving", name, ServingSystem(plane, system), description)


_register_systems()


def _late_factory(**kwargs):
    from repro.speculation.late import LATE

    return LATE(**kwargs)


def _mantri_factory(**kwargs):
    from repro.speculation.mantri import Mantri

    return Mantri(**kwargs)


def _grass_factory(**kwargs):
    from repro.speculation.grass import GRASS

    return GRASS(**kwargs)


def _no_speculation_factory(**kwargs):
    from repro.speculation.none import NoSpeculation

    return NoSpeculation()


SPECULATION_POLICIES.register(
    "late",
    _late_factory,
    description="LATE: speculate the slowest-progress tasks [Zaharia08]",
)
SPECULATION_POLICIES.register(
    "mantri",
    _mantri_factory,
    description="Mantri: resource-aware restarts [Ananthanarayanan10]",
)
SPECULATION_POLICIES.register(
    "grass",
    _grass_factory,
    description="GRASS: deadline-greedy speculation [Ananthanarayanan14]",
)
SPECULATION_POLICIES.register(
    "none",
    _no_speculation_factory,
    description="no speculative copies (original attempts only)",
)
SPECULATION_POLICIES.register(
    "off",
    _no_speculation_factory,
    description="alias of 'none'",
)


def _pareto_redraw_model(profile, num_machines=None, **kwargs):
    from repro.stragglers.model import ParetoRedrawStragglerModel
    from repro.workload.generator import FACEBOOK_PROFILE

    profile = profile or FACEBOOK_PROFILE
    return ParetoRedrawStragglerModel(
        beta=profile.beta, scale=profile.task_scale, **kwargs
    )


def _iid_pareto_model(profile, num_machines=None, **kwargs):
    from repro.stragglers.model import ParetoStragglerModel

    return ParetoStragglerModel(**kwargs)


def _no_straggler_model(profile, num_machines=None, **kwargs):
    from repro.stragglers.model import NoStragglerModel

    return NoStragglerModel()


def _machine_correlated_model(profile, num_machines=None, **kwargs):
    from repro.stragglers.model import MachineCorrelatedStragglerModel

    if num_machines is None:
        raise KnobError(
            "straggler model 'machine-correlated' needs the per-run "
            "num_machines; run it through the harness/RunSpec (which "
            "wire the cluster size automatically) or pass num_machines "
            "to make_straggler_model()"
        )
    return MachineCorrelatedStragglerModel(
        num_machines=num_machines, **kwargs
    )


STRAGGLER_MODELS.register(
    "pareto-redraw",
    _pareto_redraw_model,
    description=(
        "paper-faithful i.i.d. Pareto redraw per copy (2/beta analysis)"
    ),
)
STRAGGLER_MODELS.register(
    "iid-pareto",
    _iid_pareto_model,
    description="bounded-Pareto straggle multipliers, i.i.d. per copy",
)
STRAGGLER_MODELS.register(
    "none",
    _no_straggler_model,
    description="ideal cluster: every copy runs at nominal speed",
)
STRAGGLER_MODELS.register(
    "machine-correlated",
    _machine_correlated_model,
    description=(
        "a persistent flaky fraction of machines straggles (blacklisting "
        "regime); cluster size is wired in per run"
    ),
)


def _no_blacklist_policy(num_machines=None, **kwargs):
    return None


def _strikes_blacklist_policy(num_machines=None, probation=0.0, **kwargs):
    from repro.cluster.policy import StrikeBlacklistPolicy

    if num_machines is None:
        raise KnobError(
            "blacklist policy 'strikes' needs the per-run num_machines; "
            "run it through the harness/RunSpec (which wire the cluster "
            "size automatically) or pass num_machines to "
            "make_blacklist_policy()"
        )
    return StrikeBlacklistPolicy(
        num_machines=num_machines, probation=probation, **kwargs
    )


def _probation_blacklist_policy(num_machines=None, **kwargs):
    from repro.cluster.policy import StrikeBlacklistPolicy

    if num_machines is None:
        raise KnobError(
            "blacklist policy 'strikes-probation' needs the per-run "
            "num_machines; run it through the harness/RunSpec or pass "
            "num_machines to make_blacklist_policy()"
        )
    # Probation defaults to four evidence windows: long enough that a
    # persistently flaky machine re-evicts almost immediately after
    # rejoining, short enough that a falsely struck healthy machine
    # returns its slots within the run.
    window = kwargs.get(
        "strike_window", StrikeBlacklistPolicy.DEFAULT_STRIKE_WINDOW
    )
    probation = kwargs.pop("probation", 4.0 * float(window))
    return StrikeBlacklistPolicy(
        num_machines=num_machines, probation=probation, **kwargs
    )


def _no_autoscaler(**kwargs):
    return None


def _schedule_autoscaler(
    resize_schedule: str = "",
    min_machines: int = 1,
    **kwargs,
):
    from repro.cluster.elastic import ScheduleAutoscaler, parse_resize_schedule

    if not resize_schedule:
        raise KnobError(
            "autoscaler 'schedule' needs a non-empty resize_schedule knob "
            '("time:delta,..." — e.g. "30:+8,90:-8")'
        )
    return ScheduleAutoscaler(
        parse_resize_schedule(resize_schedule), min_machines=min_machines
    )


def _reactive_autoscaler(
    scale_interval: float = 5.0,
    scale_up_threshold: float = 0.85,
    scale_down_threshold: float = 0.30,
    scale_step: int = 1,
    min_machines: int = 1,
    **kwargs,
):
    from repro.cluster.elastic import ReactiveAutoscaler

    return ReactiveAutoscaler(
        interval=scale_interval,
        upper=scale_up_threshold,
        lower=scale_down_threshold,
        step=scale_step,
        min_machines=min_machines,
    )


AUTOSCALER_POLICIES.register(
    "none",
    _no_autoscaler,
    description="fixed capacity (the default; the elastic path stays idle)",
)
AUTOSCALER_POLICIES.register(
    "schedule",
    _schedule_autoscaler,
    description=(
        "fixed timed resizes from the resize_schedule knob "
        '("time:delta,..." — deterministic)'
    ),
)
AUTOSCALER_POLICIES.register(
    "reactive",
    _reactive_autoscaler,
    description=(
        "utilization-threshold scaler sampled every scale_interval: "
        "grow scale_step machines above the upper threshold, shrink "
        "below the lower"
    ),
)


BLACKLIST_POLICIES.register(
    "none",
    _no_blacklist_policy,
    description="no mid-run eviction (the default; substrate stays idle)",
)
BLACKLIST_POLICIES.register(
    "strikes",
    _strikes_blacklist_policy,
    description=(
        "evict after k slow completions in a sliding window (capped "
        "fraction of the cluster); evictions are permanent"
    ),
)
BLACKLIST_POLICIES.register(
    "strikes-probation",
    _probation_blacklist_policy,
    description=(
        "strike-driven eviction with probation: evicted machines rejoin "
        "with a clean record after four evidence windows"
    ),
)


def _register_workload_profiles() -> None:
    from repro.workload import generator

    for profile in (
        generator.FACEBOOK_PROFILE,
        generator.SPARK_FACEBOOK_PROFILE,
        generator.SPARK_BING_PROFILE,
        generator.BING_PROFILE,
    ):
        WORKLOAD_PROFILES.register(
            profile.name,
            profile,
            description=(
                f"beta={profile.beta:g}, task_scale={profile.task_scale:g}"
            ),
        )


_register_workload_profiles()


# --------------------------------------------------------------------------
# Spec-kind executors and knob schemas
# --------------------------------------------------------------------------

def _run_plane_spec(spec):
    """Execute a ``centralized``, ``decentralized`` or ``batch`` spec:
    build its trace and replay it on the plane the kind names. Knobs
    pass through as builder keywords (string-valued policy and model
    knobs stay names; the harness resolves them with the per-run
    cluster size wired in), and ``until`` bounds the horizon."""
    from repro.experiments.harness import build_trace, run_simulator

    wspec = spec.workload.to_workload_spec()
    return run_simulator(
        spec.system,
        build_trace(wspec),
        wspec,
        plane=spec.kind,
        speculation=spec.speculation,
        run_seed=spec.run_seed,
        **dict(spec.knobs),
    )


def _run_single_job_spec(spec):
    """Fig. 3's one-job threshold experiment as a registrable spec kind.

    One spec is one repetition at one normalized slot count:
    ``workload.seed`` is the base seed, ``run_seed`` is the repetition
    index, and the knobs carry the Pareto tail and the slot budget. The
    seeding math reproduces the original figure loop exactly, so curves
    are bit-identical to the pre-registry implementation. The trace-shape
    fields of ``workload`` other than ``seed`` are unused (the single
    job is synthesized directly from the knobs).
    """
    from repro.centralized.config import CentralizedConfig
    from repro.centralized.simulator import CentralizedSimulator
    from repro.cluster.cluster import Cluster
    from repro.simulation.rng import RandomSource
    from repro.speculation import make_speculation_policy
    from repro.stragglers.model import ParetoRedrawStragglerModel
    from repro.workload.distributions import ParetoDistribution
    from repro.workload.job import make_single_phase_job
    from repro.workload.traces import Trace

    knobs = {k: v for k, v in spec.knobs}
    beta = float(knobs.get("beta", 1.4))
    num_tasks = int(knobs.get("num_tasks", 200))
    normalized_slots = float(knobs.get("normalized_slots", 1.0))
    base_seed = spec.workload.seed
    repetition = spec.run_seed

    slots = max(1, int(round(normalized_slots * num_tasks)))
    source = RandomSource(seed=base_seed + 1000 * repetition)
    rng = source.child("fig3").rng
    duration_dist = ParetoDistribution(shape=beta, scale=1.0)
    sizes = [duration_dist.sample(rng) for _ in range(num_tasks)]
    job = make_single_phase_job(0, 0.0, sizes)
    trace = Trace(jobs=[job])

    policy = SYSTEMS.get(spec.system, plane="single_job").factory(epsilon=1.0)
    if spec.speculation == "late":
        # Uncapped LATE so the job can exploit slots beyond one-per-task.
        speculation = lambda: make_speculation_policy(  # noqa: E731
            "late",
            detect_after=0.25,
            speculative_cap_fraction=1.0,
            slow_task_pct=1.0,
            max_copies=6,
        )
    else:
        speculation = lambda: make_speculation_policy(  # noqa: E731
            spec.speculation
        )
    simulator = CentralizedSimulator(
        cluster=Cluster(num_machines=slots, slots_per_machine=1),
        policy=policy,
        speculation=speculation,
        trace=trace.fresh_copy(),
        straggler_model=ParetoRedrawStragglerModel(beta=beta),
        config=CentralizedConfig(
            learn_beta=False,
            default_beta=beta,
            epsilon=1.0,
            speculation_check_interval=0.25,
            preempt_speculative=False,
            max_copies_cap=6,
        ),
        random_source=RandomSource(seed=base_seed + repetition),
    )
    return simulator.run()


def _run_serving_spec(spec):
    from repro.serving.driver import run_serving_spec

    return run_serving_spec(spec)


def _arrival_process_names() -> Tuple[str, ...]:
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    return ARRIVAL_PROCESSES.names()


#: Knob groups shared by the spec kinds' schemas, each declared once.
_UNTIL_KNOB = Knob(
    "until",
    type=float,
    default=None,
    description="optional simulation horizon (virtual seconds)",
    validator=lambda v: v > 0.0,
)

_STRAGGLER_MODEL_KNOB = Knob(
    "straggler_model",
    type=str,
    default="pareto-redraw",
    description="straggler model name (see STRAGGLER_MODELS)",
    choices=STRAGGLER_MODELS.names,
)

#: Eviction-policy knobs, shared by both simulator planes.
_BLACKLIST_KNOBS = (
    Knob(
        "blacklist_policy",
        type=str,
        default="none",
        description="mid-run machine-eviction policy (see BLACKLIST_POLICIES)",
        choices=BLACKLIST_POLICIES.names,
    ),
    Knob(
        "strike_threshold",
        type=int,
        default=3,
        description="strikes within the window that evict a machine",
        validator=lambda v: v >= 1,
    ),
    Knob(
        "strike_window",
        type=float,
        default=10.0,
        description="sliding strike-evidence window (virtual seconds)",
        validator=lambda v: v > 0.0,
    ),
    Knob(
        "eviction_cap",
        type=float,
        default=0.2,
        description="max fraction of machines evicted at once",
        validator=lambda v: 0.0 < v <= 1.0,
    ),
)

#: Elastic-cluster knobs, shared by every simulator-backed kind.
_AUTOSCALER_KNOBS = (
    Knob(
        "autoscaler",
        type=str,
        default="none",
        description="elastic-cluster autoscaler (see AUTOSCALER_POLICIES)",
        choices=AUTOSCALER_POLICIES.names,
    ),
    Knob(
        "resize_schedule",
        type=str,
        default=None,
        description=(
            'timed resizes for autoscaler="schedule" '
            '("time:delta,..." — e.g. "30:+8,90:-8")'
        ),
    ),
    Knob(
        "scale_interval",
        type=float,
        default=5.0,
        description="reactive-autoscaler sampling cadence (virtual s)",
        validator=lambda v: v > 0.0,
    ),
    Knob(
        "scale_up_threshold",
        type=float,
        default=0.85,
        description="grow when sampled utilization exceeds this",
        validator=lambda v: 0.0 < v <= 1.0,
    ),
    Knob(
        "scale_down_threshold",
        type=float,
        default=0.30,
        description="shrink when sampled utilization falls below this",
        validator=lambda v: 0.0 <= v < 1.0,
    ),
    Knob(
        "scale_step",
        type=int,
        default=1,
        description="machines added/removed per reactive decision",
        validator=lambda v: v >= 1,
    ),
    Knob(
        "min_machines",
        type=int,
        default=1,
        description="shrinks never go below this many live machines",
        validator=lambda v: v >= 1,
    ),
)


_CENTRALIZED_KNOBS = (
    Knob(
        "epsilon",
        type=float,
        default=0.1,
        description="Hopper fairness knob (0 = perfectly fair floors)",
        validator=lambda v: 0.0 <= v <= 1.0,
    ),
    Knob(
        "locality_k_percent",
        type=float,
        default=3.0,
        description="data-locality allowance k (percent)",
        validator=lambda v: v >= 0.0,
    ),
    Knob(
        "speculation_mode",
        type=str,
        default=None,
        description="integrated | best_effort | budgeted",
        validator=lambda v: v in ("integrated", "best_effort", "budgeted"),
    ),
    Knob(
        "with_locality",
        type=bool,
        default=False,
        description="attach a DataStore and track locality",
    ),
    Knob(
        "slots_per_machine",
        type=int,
        default=4,
        description="slots per simulated machine",
        validator=lambda v: v >= 1,
    ),
    _STRAGGLER_MODEL_KNOB,
    *_BLACKLIST_KNOBS,
    *_AUTOSCALER_KNOBS,
)

_DECENTRALIZED_KNOBS = (
    Knob(
        "epsilon",
        type=float,
        default=None,
        description="fairness knob override (default per system)",
        validator=lambda v: 0.0 <= v <= 1.0,
    ),
    Knob(
        "probe_ratio",
        type=float,
        default=None,
        description="probes per task d (default 2 baseline / 4 Hopper)",
        validator=lambda v: v > 0.0,
    ),
    Knob(
        "refusal_threshold",
        type=int,
        default=2,
        description="max refusals before a probe must accept",
        validator=lambda v: v >= 0,
    ),
    Knob(
        "num_schedulers",
        type=int,
        default=10,
        description="independent schedulers sharing the cluster",
        validator=lambda v: v >= 1,
    ),
    _UNTIL_KNOB,
    Knob(
        "power_of_d",
        type=int,
        default=1,
        description=(
            "probe-target oversampling: sample d x the probes, keep the "
            "least-loaded (1 = plain uniform sampling)"
        ),
        validator=lambda v: v >= 1,
    ),
    _STRAGGLER_MODEL_KNOB,
    *_BLACKLIST_KNOBS,
    *_AUTOSCALER_KNOBS,
)

_BATCH_KNOBS = (
    *_CENTRALIZED_KNOBS,
    Knob(
        "round_interval",
        type=float,
        default=0.5,
        description=(
            "periodic scheduling-round interval (virtual seconds; 0 = "
            "a round per event batch, converging to per-arrival)"
        ),
        validator=lambda v: v >= 0.0,
    ),
    _UNTIL_KNOB,
)

_SERVING_KNOBS = (
    Knob(
        "arrival_process",
        type=str,
        default="poisson",
        description="arrival-process family (see ARRIVAL_PROCESSES)",
        choices=_arrival_process_names,
    ),
    Knob(
        "warmup",
        type=float,
        default=20.0,
        description="transient truncated before measurement (virtual s)",
        validator=lambda v: v >= 0.0,
    ),
    Knob(
        "horizon",
        type=float,
        default=120.0,
        description="arrival/measurement end (virtual seconds)",
        validator=lambda v: v > 0.0,
    ),
    Knob(
        "cooldown",
        type=float,
        default=20.0,
        description="drain time past the horizon (virtual seconds)",
        validator=lambda v: v >= 0.0,
    ),
    Knob(
        "window",
        type=float,
        default=20.0,
        description="metrics window width (virtual seconds)",
        validator=lambda v: v > 0.0,
    ),
    Knob(
        "heavy_tail",
        type=float,
        default=0.0,
        description="Pareto shape of whole-job size multipliers (0 = off)",
        validator=lambda v: v == 0.0 or v > 1.0,
    ),
    _STRAGGLER_MODEL_KNOB,
    *_AUTOSCALER_KNOBS,
)

_SINGLE_JOB_KNOBS = (
    Knob(
        "beta",
        type=float,
        default=1.4,
        description="Pareto tail index of task durations",
        validator=lambda v: v > 0.0,
    ),
    Knob(
        "num_tasks",
        type=int,
        default=200,
        description="tasks in the single-phase job",
        validator=lambda v: v >= 1,
    ),
    Knob(
        "normalized_slots",
        type=float,
        default=1.0,
        description="slot budget as a fraction of num_tasks",
        validator=lambda v: v > 0.0,
    ),
)


def _register_kind(name, run, knobs, description, summary=None) -> None:
    """Register one spec kind; ``summary`` is its one-line ``repro
    list`` description when ``description`` runs long."""
    SPEC_KINDS.register(
        name,
        SpecKind(name, {knob.name: knob for knob in knobs}, run, description),
        description=summary or description,
    )


_register_kind(
    "centralized",
    _run_plane_spec,
    _CENTRALIZED_KNOBS,
    "one omniscient scheduler over the whole cluster",
)
_register_kind(
    "decentralized",
    _run_plane_spec,
    _DECENTRALIZED_KNOBS,
    "Sparrow-style probe-based schedulers (the paper's scale)",
)
_register_kind(
    "batch",
    _run_plane_spec,
    _BATCH_KNOBS,
    "periodic scheduling rounds over an accumulated pending buffer "
    "(Firmament-style batch mode)",
    summary="periodic batch-mode rounds over a pending buffer",
)
_register_kind(
    "single_job",
    _run_single_job_spec,
    _SINGLE_JOB_KNOBS,
    "one synthetic job on a dedicated cluster (Fig. 3)",
)
_register_kind(
    "serving",
    _run_serving_spec,
    _SERVING_KNOBS,
    "open-loop arrival stream at a target rho with windowed steady-state "
    "tail metrics (workload.utilization is rho, workload.num_jobs the "
    "injection safety cap)",
    summary="open-loop heavy-traffic stream with steady-state tails",
)


__all__ = [
    "Knob",
    "Entry",
    "type_label",
    "Registry",
    "RegistryError",
    "UnknownEntryError",
    "DuplicateEntryError",
    "KnobError",
    "SpecKind",
    "SystemEntry",
    "SystemsTable",
    "CentralizedSystemDefaults",
    "DecentralizedSystemDefaults",
    "ServingSystem",
    "SPEC_KINDS",
    "SYSTEMS",
    "SPECULATION_POLICIES",
    "STRAGGLER_MODELS",
    "BLACKLIST_POLICIES",
    "AUTOSCALER_POLICIES",
    "WORKLOAD_PROFILES",
    "STUDIES",
    "spec_kind",
    "studies",
    "make_straggler_model",
    "make_blacklist_policy",
    "make_autoscaler",
]
