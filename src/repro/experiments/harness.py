"""Shared experiment plumbing: trace construction and simulator runners.

Every figure experiment reduces to: build a trace at a target utilization,
replay it under two or more systems, and compare matched job records. The
runners here own the (many) constructor arguments so figure code stays
declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro import registry
from repro.batch.simulator import BatchSimulator
from repro.centralized.config import CentralizedConfig, SpeculationMode
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.cluster.datastore import DataStore
from repro.cluster.elastic import AutoscalerPolicy
from repro.cluster.policy import BlacklistPolicy
from repro.decentralized.config import DecentralizedConfig
from repro.decentralized.simulator import DecentralizedSimulator
from repro.metrics.collector import SimulationResult
from repro.obs import Obs, obs_from_env
from repro.simulation.rng import RandomSource
from repro.speculation import make_speculation_policy
from repro.stragglers.model import ParetoRedrawStragglerModel, StragglerModel
from repro.workload.generator import (
    FACEBOOK_PROFILE,
    TraceGenerator,
    WorkloadProfile,
)
from repro.workload.traces import Trace


@dataclass
class WorkloadSpec:
    """Declarative description of an experiment workload."""

    profile: WorkloadProfile = field(default_factory=lambda: FACEBOOK_PROFILE)
    num_jobs: int = 150
    utilization: float = 0.6
    total_slots: int = 400
    seed: int = 42
    max_phase_tasks: Optional[int] = 300
    locality_machines: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if not 0.0 < self.utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        if self.total_slots <= 0:
            raise ValueError("total_slots must be positive")


def build_trace(spec: WorkloadSpec) -> Trace:
    """Generate a trace and rescale it to the spec's offered utilization."""
    source = RandomSource(seed=spec.seed)
    generator = TraceGenerator(
        spec.profile,
        random_source=source,
        num_machines=spec.locality_machines,
        max_phase_tasks=spec.max_phase_tasks,
    )
    jobs = generator.generate(num_jobs=spec.num_jobs, interarrival_mean=1.0)
    trace = Trace(jobs=jobs)
    return trace.rescaled_to_utilization(spec.total_slots, spec.utilization)


def default_straggler_model(profile: WorkloadProfile) -> StragglerModel:
    """The paper-faithful i.i.d. Pareto redraw model for this profile."""
    return ParetoRedrawStragglerModel(
        beta=profile.beta, scale=profile.task_scale
    )


def _resolve_straggler_model(
    straggler_model: Union[StragglerModel, str, None],
    profile: WorkloadProfile,
    num_machines: Optional[int] = None,
) -> StragglerModel:
    """Accept a model instance, a registry name, or None (paper default).

    ``num_machines`` is the run's cluster size; machine-correlated models
    require it (the runners below pass it automatically).
    """
    if straggler_model is None:
        return default_straggler_model(profile)
    if isinstance(straggler_model, str):
        return registry.make_straggler_model(
            straggler_model, profile, num_machines=num_machines
        )
    return straggler_model


def _cluster_policies(
    num_machines: int,
    blacklist_policy: Union[BlacklistPolicy, str, None] = None,
    strike_threshold: Optional[int] = None,
    strike_window: Optional[float] = None,
    eviction_cap: Optional[float] = None,
    autoscaler: Union[AutoscalerPolicy, str, None] = None,
    resize_schedule: Optional[str] = None,
    scale_interval: Optional[float] = None,
    scale_up_threshold: Optional[float] = None,
    scale_down_threshold: Optional[float] = None,
    scale_step: Optional[int] = None,
    min_machines: Optional[int] = None,
) -> dict:
    """The ``blacklist_policy`` / ``autoscaler`` simulator kwargs, built
    from the blacklist and autoscaler knob groups every plane accepts.

    Each policy may be an instance, a registry name, or None/"none"
    (off). A group's other knobs only apply when its policy is built by
    name here; omitted (None) knobs keep the policy's own defaults.
    ``"none"`` resolves through the registry to None, so a run that
    spells the default explicitly builds the exact same simulator.
    ``num_machines`` is the run's cluster size (bounds the eviction cap).
    Unknown keywords raise ``TypeError``.
    """
    if isinstance(blacklist_policy, str):
        blacklist_policy = registry.make_blacklist_policy(
            blacklist_policy,
            num_machines=num_machines,
            **_given(
                strike_threshold=strike_threshold,
                strike_window=strike_window,
                eviction_cap=eviction_cap,
            ),
        )
    if isinstance(autoscaler, str):
        autoscaler = registry.make_autoscaler(
            autoscaler,
            **_given(
                resize_schedule=resize_schedule,
                scale_interval=scale_interval,
                scale_up_threshold=scale_up_threshold,
                scale_down_threshold=scale_down_threshold,
                scale_step=scale_step,
                min_machines=min_machines,
            ),
        )
    return dict(blacklist_policy=blacklist_policy, autoscaler=autoscaler)


def _given(**knobs) -> dict:
    """The knobs a caller actually set (None means "omitted")."""
    return {name: value for name, value in knobs.items() if value is not None}


#: Sentinel: "the caller did not choose" — consult ``REPRO_OBS``. An
#: explicit ``obs=None`` forces observability off regardless of env.
_OBS_FROM_ENV = object()


def _resolve_obs(obs) -> Optional[Obs]:
    if obs is _OBS_FROM_ENV:
        return obs_from_env()
    return obs


def _centralized_family_kwargs(
    trace: Trace,
    policy: str,
    spec: WorkloadSpec,
    plane: str,
    speculation: str = "late",
    epsilon: float = 0.1,
    locality_k_percent: float = 3.0,
    speculation_mode: Union[SpeculationMode, str, None] = None,
    straggler_model: Union[StragglerModel, str, None] = None,
    with_locality: bool = False,
    slots_per_machine: int = 4,
    run_seed: int = 7,
    config: Optional[CentralizedConfig] = None,
    obs=_OBS_FROM_ENV,
    **knobs,
) -> dict:
    """Constructor kwargs shared by the centralized and batch planes.

    This is the one keyword list of both builders; the blacklist and
    autoscaler groups go through ``knobs`` to :func:`_cluster_policies`.
    Both planes build the exact same cluster, config, and seed
    hierarchy — the batch plane only adds *when* dispatch happens, so
    keeping construction common here keeps the entropy streams aligned
    between them.

    ``policy`` names a system on ``plane`` in
    :data:`repro.registry.SYSTEMS`; string-valued ``straggler_model`` /
    ``blacklist_policy`` / ``autoscaler`` resolve through the other
    registries. ``speculation_mode`` is a
    :class:`~repro.centralized.config.SpeculationMode` or its value
    string; when omitted, the system's registered default applies
    (INTEGRATED for Hopper, BEST_EFFORT for the baselines and for
    plain-callable registrations).
    """
    entry = registry.SYSTEMS.get(policy.lower(), plane=plane)
    if speculation_mode is None:
        speculation_mode = (
            getattr(entry.factory, "speculation_mode", None) or "best_effort"
        )
    speculation_mode = SpeculationMode(speculation_mode)
    num_machines = max(1, spec.total_slots // slots_per_machine)
    cluster = Cluster(
        num_machines=num_machines, slots_per_machine=slots_per_machine
    )
    datastore = None
    if with_locality:
        datastore = DataStore(
            num_machines=num_machines,
            random_source=RandomSource(seed=spec.seed + 1),
        )
    if config is None:
        config = CentralizedConfig(
            epsilon=epsilon,
            locality_k_percent=locality_k_percent,
            speculation_mode=speculation_mode,
            default_beta=spec.profile.beta,
        )
    return dict(
        cluster=cluster,
        policy=entry.factory(epsilon=epsilon),
        speculation=lambda: make_speculation_policy(speculation),
        trace=trace.fresh_copy(),
        straggler_model=_resolve_straggler_model(
            straggler_model, spec.profile, num_machines=num_machines
        ),
        config=config,
        datastore=datastore,
        random_source=RandomSource(seed=run_seed),
        **_cluster_policies(num_machines, **knobs),
        obs=_resolve_obs(obs),
    )


def build_centralized_simulator(
    trace: Trace, policy: str, spec: WorkloadSpec, **knobs
) -> CentralizedSimulator:
    """Construct (without running) a centralized simulator for ``trace``.

    The simulator replays a structural clone of ``trace``, so the same
    object can be replayed under several systems. Keywords are those of
    :func:`_centralized_family_kwargs`; unknown ones raise
    ``TypeError``. With a blacklist policy the simulator evicts struck
    machines mid-run (see :mod:`repro.cluster.policy`); with an
    autoscaler it resizes the cluster mid-run (see
    :mod:`repro.cluster.elastic`). The serving driver builds through
    here too, then primes the engine before calling ``run()``.
    """
    return CentralizedSimulator(
        **_centralized_family_kwargs(trace, policy, spec, "centralized", **knobs)
    )


def build_batch_simulator(
    trace: Trace,
    policy: str,
    spec: WorkloadSpec,
    round_interval: float = 0.5,
    **knobs,
) -> BatchSimulator:
    """Construct (without running) a batch-plane simulator for ``trace``.

    Same keywords as :func:`build_centralized_simulator` plus
    ``round_interval``, the period of the recurring scheduling round;
    ``policy`` names a ``batch`` system. Autoscaler resizes land between
    rounds: the controller requests a dispatch, and the batch plane
    coalesces that into its next round.
    """
    return BatchSimulator(
        round_interval=round_interval,
        **_centralized_family_kwargs(trace, policy, spec, "batch", **knobs),
    )


def build_decentralized_simulator(
    trace: Trace,
    system: str,
    spec: WorkloadSpec,
    speculation: str = "late",
    probe_ratio: Optional[float] = None,
    epsilon: Optional[float] = None,
    refusal_threshold: int = 2,
    num_schedulers: int = 10,
    power_of_d: Optional[int] = None,
    straggler_model: Union[StragglerModel, str, None] = None,
    run_seed: int = 7,
    config: Optional[DecentralizedConfig] = None,
    obs=_OBS_FROM_ENV,
    **knobs,
) -> DecentralizedSimulator:
    """Construct (without running) a decentralized simulator for ``trace``.

    ``system`` names a ``decentralized`` system in
    :data:`repro.registry.SYSTEMS`; each entry carries the paper's
    default probe ratio (2 for the baselines, 4 for Hopper) and
    fairness setting, overridable per experiment. With a blacklist
    policy the simulator evicts struck workers from the probe pool
    mid-run (see :mod:`repro.cluster.policy`); with an autoscaler it
    grows/shrinks the worker set mid-run (see
    :mod:`repro.cluster.elastic`). Both knob groups go through
    ``knobs`` to :func:`_cluster_policies`; unknown keywords raise
    ``TypeError``. The serving driver builds through here too, then
    primes the engine before ``run()``.
    """
    defaults = registry.SYSTEMS.get(system, plane="decentralized").factory()
    if config is None:
        config = DecentralizedConfig(
            worker_policy=defaults.worker_policy,
            probe_ratio=(
                probe_ratio if probe_ratio is not None else defaults.probe_ratio
            ),
            epsilon=epsilon if epsilon is not None else defaults.epsilon,
            refusal_threshold=refusal_threshold,
            num_schedulers=num_schedulers,
            default_beta=spec.profile.beta,
            # getattr: custom registrations may hand back bare objects
            # without the late-binding/power-of-d fields.
            late_binding=getattr(defaults, "late_binding", False),
            power_of_d=(
                power_of_d
                if power_of_d is not None
                else getattr(defaults, "power_of_d", 1)
            ),
        )
    return DecentralizedSimulator(
        num_workers=spec.total_slots,
        speculation=lambda: make_speculation_policy(speculation),
        trace=trace.fresh_copy(),
        straggler_model=_resolve_straggler_model(
            straggler_model, spec.profile, num_machines=spec.total_slots
        ),
        config=config,
        random_source=RandomSource(seed=run_seed),
        name=system,
        **_cluster_policies(spec.total_slots, **knobs),
        obs=_resolve_obs(obs),
    )


# --------------------------------------------------------------------------
# The plane-agnostic surface
# --------------------------------------------------------------------------

#: plane name -> the per-plane builder it dispatches to. Planes without
#: a direct simulator (serving wraps a plane; single_job synthesizes its
#: own trace) are deliberately absent.
_PLANE_BUILDERS = {
    "centralized": build_centralized_simulator,
    "decentralized": build_decentralized_simulator,
    "batch": build_batch_simulator,
}


def build_simulator(
    system: str,
    trace: Trace,
    spec: WorkloadSpec,
    plane: Optional[str] = None,
    **knobs,
):
    """Construct a simulator for any plane, resolved by system name.

    ``system`` resolves through the plane-tagged
    :data:`repro.registry.SYSTEMS` table: pass a qualified name like
    ``"batch/hopper"``, or a bare name plus ``plane=``, or a bare name
    alone when it is registered on exactly one plane. Remaining
    ``knobs`` go to the plane's builder
    (:func:`build_centralized_simulator`,
    :func:`build_decentralized_simulator`, or
    :func:`build_batch_simulator`).
    """
    entry = registry.SYSTEMS.get(system, plane=plane)
    try:
        builder = _PLANE_BUILDERS[entry.plane]
    except KeyError:
        raise ValueError(
            f"plane {entry.plane!r} has no direct simulator builder "
            f"(valid planes: {', '.join(_PLANE_BUILDERS)}); serving "
            f"runs go through repro.serving.driver.run_serving"
        ) from None
    return builder(trace, entry.name, spec, **knobs)


def run_simulator(
    system: str,
    trace: Trace,
    spec: WorkloadSpec,
    until: Optional[float] = None,
    plane: Optional[str] = None,
    **knobs,
) -> SimulationResult:
    """Build and run a simulator for any plane (see
    :func:`build_simulator`). ``until=`` bounds the virtual horizon on
    every plane alike."""
    simulator = build_simulator(system, trace, spec, plane=plane, **knobs)
    return simulator.run(until=until)
