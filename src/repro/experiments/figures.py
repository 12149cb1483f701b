"""Paper figures as studies: one grid, one reducer, one printer each.

Every figure (Fig. 3, 5a/5b and 6–13, plus the headline gains) is one
registered :class:`repro.sweep.Study`:

* ``_figN_cells`` builds the labelled grid of cells, each a complete
  :class:`repro.sweep.RunSpec` template that the study reseeds per
  seed, and holds every grid default;
* ``_reduce_figN`` turns the :class:`repro.sweep.StudyResult` into the
  paper's derived quantities (plain rows / dicts), finding reference
  cells by their labels;
* ``_print_figN`` prints those quantities as a paper-vs-measured table.

``FIGN_STUDY.figure(seeds=None, runner=None, quick=False, **params)``
runs the grid and returns the reduced data; the public ``figN_*`` names
are aliases of it, taking the grid builder's keyword parameters.
``python -m repro run figN`` renders the figure and ``python -m repro
study figN`` runs the *same* grid with seed replication and reports
mean/p95 with bootstrap confidence intervals. Fig. 3's single-job
threshold loop rides the same machinery via the registrable
``single_job`` spec kind (its seeds are repetition indices).

All replays go through a :class:`repro.sweep.SweepRunner` (pass
``runner=`` to control parallelism/caching; the default runner is
configured from ``REPRO_SWEEP_PARALLEL`` / ``REPRO_SWEEP_CACHE``). Specs
are fully seeded, so parallel, serial, and cached evaluation all return
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.metrics.analysis import (
    gain_cdf,
    mean_reduction_percent,
    percentile,
    reduction_by_bin,
    reduction_by_dag_length,
    slowdown_stats,
)
from repro.metrics.collector import SimulationResult
from repro.metrics.tables import print_table
from repro.sweep import RunSpec, WorkloadParams
from repro.sweep.study import (
    Cell,
    Study,
    StudyResult,
    cell,
    register_study,
    with_axis,
)
from repro.workload.generator import (
    BING_PROFILE,
    FACEBOOK_PROFILE,
    SPARK_BING_PROFILE,
    SPARK_FACEBOOK_PROFILE,
    bin_label,
)


def _spark_profile(profile_name: str) -> str:
    profile = (
        SPARK_FACEBOOK_PROFILE
        if profile_name == "facebook"
        else SPARK_BING_PROFILE
    )
    return profile.name


def _systems(
    kind: str,
    systems: Sequence[str],
    workload: WorkloadParams,
    **spec_args: Any,
) -> List[Cell]:
    """One cell per system, each replaying ``workload`` on ``kind``."""
    return [
        cell(RunSpec(kind, system, workload, **spec_args), system=system)
        for system in systems
    ]


def _runs(
    result: StudyResult, **labels: Any
) -> List[Tuple[Dict[str, Any], SimulationResult]]:
    """``(labels, run)`` at the first seed for every cell whose labels
    include ``labels``, in grid order."""
    return [
        (cell_.label_dict(), run)
        for cell_, run in zip(result.cells, result.first_seed_results)
        if labels.items() <= cell_.label_dict().items()
    ]


def _run(result: StudyResult, **labels: Any) -> SimulationResult:
    """The first-seed run of the one cell whose labels include ``labels``."""
    ((_, run),) = _runs(result, **labels)
    return run


# --------------------------------------------------------------------------
# Figure 3: the sharp threshold in the value of extra slots
# --------------------------------------------------------------------------

def _fig3_cells(
    beta: float = 1.4,
    num_tasks: int = 200,
    normalized_slots: Sequence[float] = (
        0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.25, 2.5,
    ),
    base_seed: int = 11,
) -> List[Cell]:
    """One cell per normalized slot count; study *seeds* are repetition
    indices (``single_job`` specs reseed ``run_seed``), matching the
    original figure loop exactly."""
    workload = WorkloadParams(
        profile="facebook",
        num_jobs=1,
        utilization=0.5,
        total_slots=1,
        seed=base_seed,
        max_phase_tasks=None,
    )
    return [
        cell(
            RunSpec(
                "single_job",
                "hopper",
                workload,
                knobs={
                    "beta": float(beta),
                    "num_tasks": int(num_tasks),
                    "normalized_slots": float(norm),
                },
            ),
            normalized_slots=norm,
        )
        for norm in normalized_slots
    ]


def _single_job_duration(result: SimulationResult) -> float:
    return result.jobs[0].duration


def _reduce_fig3(result: StudyResult) -> List[Tuple[float, float]]:
    """Single-job completion time vs normalized slot count.

    Returns (slots / num_tasks, median completion over the repetitions
    normalized by the best point). The knee should sit near ``2 / beta``
    (the red line in Fig. 3). LATE is run uncapped so that the job can
    actually exploit slots beyond one-per-task — the question the figure
    asks is how much that exploitation is worth.
    """
    raw: List[Tuple[float, float]] = []
    for cell_, durations in zip(
        result.cells, result.values(_single_job_duration)
    ):
        samples = sorted(durations)
        median = samples[len(samples) // 2]
        raw.append((cell_.label_dict()["normalized_slots"], median))
    best = min(v for _, v in raw)
    return [(norm, v / best) for norm, v in raw]


def knee_position(curve: Sequence[Tuple[float, float]]) -> float:
    """Locate the knee: the first x at which the curve has entered its
    plateau (within 10% of the remaining drop to the final value)."""
    if len(curve) < 3:
        raise ValueError("need at least 3 points")
    initial = curve[0][1]
    final = min(v for _, v in curve)
    threshold = final + 0.10 * max(initial - final, 1e-9)
    for x, v in curve:
        if v <= threshold:
            return x
    return curve[-1][0]


def _print_fig3(curve: List[Tuple[float, float]]) -> None:
    print_table(
        "Fig 3: completion vs normalized slots (paper: knee near 2/beta)",
        ("slots/tasks", "norm. completion"),
        curve,
    )
    print(f"knee position: {knee_position(curve):.2f}")


FIG3_STUDY = register_study(
    Study(
        name="fig3",
        description=(
            "single-job completion vs normalized slots; knee near 2/beta "
            "(seeds are repetition indices)"
        ),
        build_cells=_fig3_cells,
        seeds=tuple(range(30)),
        metric=_single_job_duration,
        metric_name="single-job completion time",
        quick=dict(
            num_tasks=50,
            normalized_slots=(0.6, 1.0, 1.4, 1.8, 2.2),
            seeds=tuple(range(3)),
        ),
        reduce=_reduce_fig3,
        render=_print_fig3,
    )
)

fig3_threshold = FIG3_STUDY.figure


# --------------------------------------------------------------------------
# Figures 5a/5b: probes and refusals vs the centralized scheduler
# --------------------------------------------------------------------------

@dataclass
class DecentralizationRow:
    """One point of Fig. 5a/5b: ratio of decentralized to centralized
    mean job duration."""

    parameter: float
    utilization: float
    system: str
    ratio: float


_CENTRALIZED_HOPPER = "hopper (centralized)"


def _fig5a_cells(
    probe_ratios: Sequence[float] = (2.0, 4.0, 6.0, 8.0, 10.0),
    utilizations: Sequence[float] = (0.6, 0.8),
    num_jobs: int = 120,
    total_slots: int = 300,
) -> List[Cell]:
    cells: List[Cell] = []
    for utilization in utilizations:
        workload = WorkloadParams("spark-facebook", num_jobs, utilization, total_slots)
        cells.append(
            cell(
                RunSpec("centralized", "hopper", workload),
                system=_CENTRALIZED_HOPPER,
                parameter="-",
                utilization=utilization,
            )
        )
        cells.extend(
            cell(
                RunSpec(
                    "decentralized",
                    "hopper",
                    workload,
                    knobs={"probe_ratio": ratio},
                ),
                system="hopper",
                parameter=ratio,
                utilization=utilization,
            )
            for ratio in probe_ratios
        )
        cells.append(
            cell(
                RunSpec(
                    "decentralized",
                    "sparrow",
                    workload,
                    knobs={"probe_ratio": 2.0},
                ),
                system="sparrow",
                parameter=2.0,
                utilization=utilization,
            )
        )
    return cells


def _fig5b_cells(
    refusal_counts: Sequence[int] = (0, 1, 2, 3, 5, 8),
    utilizations: Sequence[float] = (0.6, 0.8),
    num_jobs: int = 120,
    total_slots: int = 300,
) -> List[Cell]:
    cells: List[Cell] = []
    for utilization in utilizations:
        workload = WorkloadParams("spark-facebook", num_jobs, utilization, total_slots)
        cells.append(
            cell(
                RunSpec("centralized", "hopper", workload),
                system=_CENTRALIZED_HOPPER,
                parameter="-",
                utilization=utilization,
            )
        )
        cells.extend(
            cell(
                RunSpec(
                    "decentralized",
                    "hopper",
                    workload,
                    knobs={"refusal_threshold": refusals},
                ),
                system="hopper",
                parameter=float(refusals),
                utilization=utilization,
            )
            for refusals in refusal_counts
        )
    return cells


def _fig5_cells(**params: Any) -> List[Cell]:
    """Fig. 5a and 5b as one grid, distinguished by a ``variant`` axis.

    ``probe_ratios`` goes to the 5a half, ``refusal_counts`` to the 5b
    half, and every other parameter to both."""

    def without(name: str) -> Dict[str, Any]:
        return {key: value for key, value in params.items() if key != name}

    return with_axis(
        _fig5a_cells(**without("refusal_counts")), variant="probe-count"
    ) + with_axis(
        _fig5b_cells(**without("probe_ratios")), variant="refusal-count"
    )


def _reduce_fig5(result: StudyResult) -> List[DecentralizationRow]:
    """Ratio of each decentralized cell's mean job duration to centralized
    Hopper's at the same utilization (Fig. 5a: probe count d, with
    Sparrow alongside; Fig. 5b: refusal threshold)."""
    return [
        DecentralizationRow(
            parameter=labels["parameter"],
            utilization=labels["utilization"],
            system=labels["system"],
            ratio=run.mean_job_duration
            / _run(
                result,
                system=_CENTRALIZED_HOPPER,
                utilization=labels["utilization"],
            ).mean_job_duration,
        )
        for labels, run in _runs(result)
        if labels["system"] != _CENTRALIZED_HOPPER
    ]


def _print_fig5(rows: List[DecentralizationRow]) -> None:
    print_table(
        "Fig 5: ratio vs centralized Hopper "
        "(paper: within ~15% at d>=4 / 2-3 refusals)",
        ("system", "parameter", "utilization", "ratio vs centralized"),
        [(r.system, r.parameter, r.utilization, r.ratio) for r in rows],
    )


FIG5A_STUDY = register_study(
    Study(
        name="fig5a",
        description="decentralized-to-centralized ratio vs probe count d",
        build_cells=_fig5a_cells,
        quick=dict(
            probe_ratios=(2.0, 4.0),
            utilizations=(0.7,),
            num_jobs=25,
            total_slots=80,
        ),
        reduce=_reduce_fig5,
        render=_print_fig5,
    )
)

FIG5B_STUDY = register_study(
    Study(
        name="fig5b",
        description=(
            "decentralized-to-centralized ratio vs refusal threshold"
        ),
        build_cells=_fig5b_cells,
        quick=dict(
            refusal_counts=(0, 2),
            utilizations=(0.7,),
            num_jobs=25,
            total_slots=80,
        ),
        reduce=_reduce_fig5,
        render=_print_fig5,
    )
)

FIG5_STUDY = register_study(
    Study(
        name="fig5",
        description="fig5a + fig5b combined (probe count and refusals)",
        build_cells=_fig5_cells,
        quick={**FIG5A_STUDY.quick, **FIG5B_STUDY.quick},
    )
)

fig5a_probe_count = FIG5A_STUDY.figure
fig5b_refusal_count = FIG5B_STUDY.figure


# --------------------------------------------------------------------------
# Figure 6: decentralized gains vs utilization (Facebook & Bing)
# --------------------------------------------------------------------------

@dataclass
class UtilizationGainRow:
    utilization: float
    vs_sparrow: float
    vs_sparrow_srpt: float


def _fig6_cells(
    profile_name: str = "facebook",
    utilizations: Sequence[float] = (0.6, 0.7, 0.8, 0.9),
    num_jobs: int = 150,
    total_slots: int = 400,
) -> List[Cell]:
    profile = _spark_profile(profile_name)
    cells: List[Cell] = []
    for utilization in utilizations:
        cells += with_axis(
            _systems(
                "decentralized",
                ("hopper", "sparrow", "sparrow-srpt"),
                WorkloadParams(profile, num_jobs, utilization, total_slots),
            ),
            utilization=utilization,
        )
    return cells


def _reduce_fig6(result: StudyResult) -> List[UtilizationGainRow]:
    """Reduction in average job duration of decentralized Hopper vs
    Sparrow and Sparrow-SRPT across utilizations (Fig. 6a/6b)."""
    rows: List[UtilizationGainRow] = []
    for labels, hopper in _runs(result, system="hopper"):
        utilization = labels["utilization"]
        sparrow = _run(result, utilization=utilization, system="sparrow")
        srpt = _run(result, utilization=utilization, system="sparrow-srpt")
        rows.append(
            UtilizationGainRow(
                utilization=utilization,
                vs_sparrow=mean_reduction_percent(sparrow, hopper),
                vs_sparrow_srpt=mean_reduction_percent(srpt, hopper),
            )
        )
    return rows


def _print_fig6(rows: List[UtilizationGainRow]) -> None:
    print_table(
        "Fig 6: reduction (%) in avg job duration "
        "(paper: 50-60% at 60% util falling to <20% at >=80%)",
        ("utilization", "vs Sparrow", "vs Sparrow-SRPT"),
        [(r.utilization, r.vs_sparrow, r.vs_sparrow_srpt) for r in rows],
    )


FIG6_STUDY = register_study(
    Study(
        name="fig6",
        description=(
            "decentralized Hopper vs Sparrow / Sparrow-SRPT across "
            "utilizations"
        ),
        build_cells=_fig6_cells,
        quick=dict(utilizations=(0.7,), num_jobs=30, total_slots=100),
        reduce=_reduce_fig6,
        render=_print_fig6,
    )
)

fig6_utilization_gains = FIG6_STUDY.figure


# --------------------------------------------------------------------------
# Figure 7: gains by job-size bin
# --------------------------------------------------------------------------

def _fig7_cells(
    profile_name: str = "facebook",
    utilization: float = 0.6,
    num_jobs: int = 200,
    total_slots: int = 400,
) -> List[Cell]:
    return _systems(
        "decentralized",
        ("hopper", "sparrow-srpt"),
        WorkloadParams(
            _spark_profile(profile_name), num_jobs, utilization, total_slots
        ),
    )


def _reduce_fig7(result: StudyResult) -> Dict[str, float]:
    """Per-bin reduction vs Sparrow-SRPT (Fig. 7); keys are bin labels in
    size order, then ``overall``."""
    hopper = _run(result, system="hopper")
    srpt = _run(result, system="sparrow-srpt")
    by_bin = reduction_by_bin(srpt, hopper)
    out = {bin_label(i): gain for i, gain in sorted(by_bin.items())}
    out["overall"] = mean_reduction_percent(srpt, hopper)
    return out


def _print_fig7(out: Dict[str, float]) -> None:
    print_table(
        "Fig 7: reduction vs Sparrow-SRPT by job-size bin "
        "(paper: all bins gain; small jobs most)",
        ("job bin", "reduction %"),
        list(out.items()),
    )


FIG7_STUDY = register_study(
    Study(
        name="fig7",
        description="Hopper vs Sparrow-SRPT, reduction by job-size bin",
        build_cells=_fig7_cells,
        quick=dict(num_jobs=40, total_slots=100),
        reduce=_reduce_fig7,
        render=_print_fig7,
    )
)

fig7_job_bins = FIG7_STUDY.figure


# --------------------------------------------------------------------------
# Figure 8a: CDF of gains; Figure 8b: gains vs DAG length
# --------------------------------------------------------------------------

def _fig8a_cells(
    utilization: float = 0.6,
    num_jobs: int = 200,
    total_slots: int = 400,
) -> List[Cell]:
    return _systems(
        "decentralized",
        ("hopper", "sparrow-srpt"),
        WorkloadParams("spark-facebook", num_jobs, utilization, total_slots),
    )


def _reduce_fig8a(result: StudyResult) -> Dict[str, object]:
    """CDF of per-job gains vs Sparrow-SRPT plus summary percentiles."""
    cdf = gain_cdf(
        _run(result, system="sparrow-srpt"), _run(result, system="hopper")
    )
    gains = [g for g, _ in cdf]
    return {
        "cdf": cdf,
        "p10": percentile(gains, 0.10),
        "p50": percentile(gains, 0.50),
        "p90": percentile(gains, 0.90),
        "mean": sum(gains) / len(gains) if gains else 0.0,
    }


def _print_fig8a(out: Dict[str, object]) -> None:
    print_table(
        "Fig 8a: per-job gain distribution vs Sparrow-SRPT "
        "(paper: ~70% of jobs improve)",
        ("percentile", "gain %"),
        [(name, out[name]) for name in ("p10", "p50", "p90", "mean")],
    )


FIG8A_STUDY = register_study(
    Study(
        name="fig8a",
        description="per-job gain CDF of Hopper vs Sparrow-SRPT",
        build_cells=_fig8a_cells,
        quick=dict(num_jobs=40, total_slots=100),
        reduce=_reduce_fig8a,
        render=_print_fig8a,
    )
)

fig8a_gain_cdf = FIG8A_STUDY.figure


def _fig8b_cells(
    utilization: float = 0.6,
    num_jobs: int = 220,
    total_slots: int = 400,
) -> List[Cell]:
    return _systems(
        "decentralized",
        ("hopper", "sparrow-srpt"),
        WorkloadParams(
            "facebook",  # full DAG mix
            num_jobs,
            utilization,
            total_slots,
            max_phase_tasks=120,
        ),
    )


def _reduce_fig8b(result: StudyResult) -> Dict[int, float]:
    """Reduction vs Sparrow-SRPT grouped by DAG length (Fig. 8b)."""
    return reduction_by_dag_length(
        _run(result, system="sparrow-srpt"), _run(result, system="hopper")
    )


def _print_fig8b(out: Dict[int, float]) -> None:
    print_table(
        "Fig 8b: reduction vs Sparrow-SRPT by DAG length",
        ("dag length", "reduction %"),
        sorted(out.items()),
    )


FIG8B_STUDY = register_study(
    Study(
        name="fig8b",
        description="Hopper vs Sparrow-SRPT, reduction by DAG length",
        build_cells=_fig8b_cells,
        quick=dict(num_jobs=40, total_slots=100),
        reduce=_reduce_fig8b,
        render=_print_fig8b,
    )
)

fig8b_dag_length = FIG8B_STUDY.figure


# --------------------------------------------------------------------------
# Figure 9: gains under different speculation algorithms
# --------------------------------------------------------------------------

def _fig9_cells(
    algorithms: Sequence[str] = ("late", "mantri", "grass"),
    utilization: float = 0.6,
    num_jobs: int = 150,
    total_slots: int = 400,
) -> List[Cell]:
    workload = WorkloadParams("spark-facebook", num_jobs, utilization, total_slots)
    cells: List[Cell] = []
    for algorithm in algorithms:
        cells += with_axis(
            _systems(
                "decentralized",
                ("hopper", "sparrow-srpt"),
                workload,
                speculation=algorithm,
            ),
            speculation=algorithm,
        )
    return cells


def _reduce_fig9(result: StudyResult) -> Dict[str, Dict[str, float]]:
    """Overall and per-bin gains of Hopper vs Sparrow-SRPT, pairing both
    systems with each speculation algorithm (Fig. 9)."""
    out: Dict[str, Dict[str, float]] = {}
    for labels, hopper in _runs(result, system="hopper"):
        algorithm = labels["speculation"]
        srpt = _run(result, speculation=algorithm, system="sparrow-srpt")
        per_bin = {
            bin_label(i): gain
            for i, gain in sorted(reduction_by_bin(srpt, hopper).items())
        }
        per_bin["overall"] = mean_reduction_percent(srpt, hopper)
        out[algorithm] = per_bin
    return out


def _print_fig9(out: Dict[str, Dict[str, float]]) -> None:
    print_table(
        "Fig 9: gains vs Sparrow-SRPT per speculation algorithm "
        "(paper: gains hold across LATE/Mantri/GRASS)",
        ("algorithm", "bin", "reduction %"),
        [
            (algorithm, bin_name, gain)
            for algorithm, bins in out.items()
            for bin_name, gain in bins.items()
        ],
    )


FIG9_STUDY = register_study(
    Study(
        name="fig9",
        description="gains under LATE / Mantri / GRASS speculation",
        build_cells=_fig9_cells,
        quick=dict(num_jobs=30, total_slots=100),
        reduce=_reduce_fig9,
        render=_print_fig9,
    )
)

fig9_speculation_algorithms = FIG9_STUDY.figure


# --------------------------------------------------------------------------
# Figure 10: fairness knob epsilon
# --------------------------------------------------------------------------

@dataclass
class FairnessRow:
    epsilon: float
    gain_vs_srpt: float
    fraction_slowed: float
    mean_slowdown: float
    worst_slowdown: float


_FAIR_REFERENCE = "hopper (fair reference)"


def _fig10_cells(
    epsilons: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.30),
    utilization: float = 0.7,
    num_jobs: int = 150,
    total_slots: int = 400,
) -> List[Cell]:
    workload = WorkloadParams("spark-facebook", num_jobs, utilization, total_slots)
    cells = [
        cell(
            RunSpec("decentralized", "sparrow-srpt", workload),
            system="sparrow-srpt",
            epsilon="-",
        ),
        cell(
            RunSpec("decentralized", "hopper", workload, knobs={"epsilon": 0.0}),
            system=_FAIR_REFERENCE,
            epsilon=0.0,
        ),
    ]
    cells.extend(
        cell(
            RunSpec("decentralized", "hopper", workload, knobs={"epsilon": epsilon}),
            system="hopper",
            epsilon=epsilon,
        )
        for epsilon in epsilons
    )
    return cells


def _reduce_fig10(result: StudyResult) -> List[FairnessRow]:
    """Gains and slowdown-vs-fair as epsilon varies (Fig. 10a/b/c).

    The slowdown reference is Hopper at epsilon=0 (perfectly fair floors),
    the paper's "perfectly fair allocation"."""
    srpt = _run(result, system="sparrow-srpt")
    fair_reference = _run(result, system=_FAIR_REFERENCE)
    rows: List[FairnessRow] = []
    for labels, run in _runs(result, system="hopper"):
        fraction, mean_slow, worst = slowdown_stats(fair_reference, run)
        rows.append(
            FairnessRow(
                epsilon=labels["epsilon"],
                gain_vs_srpt=mean_reduction_percent(srpt, run),
                fraction_slowed=fraction,
                mean_slowdown=mean_slow,
                worst_slowdown=worst,
            )
        )
    return rows


def _print_fig10(rows: List[FairnessRow]) -> None:
    print_table(
        "Fig 10: fairness knob epsilon "
        "(paper: eps~0.1 keeps most gains, few jobs slowed)",
        ("epsilon", "gain vs SRPT %", "frac slowed", "mean slowdown",
         "worst slowdown"),
        [
            (r.epsilon, r.gain_vs_srpt, r.fraction_slowed, r.mean_slowdown,
             r.worst_slowdown)
            for r in rows
        ],
    )


FIG10_STUDY = register_study(
    Study(
        name="fig10",
        description="fairness knob epsilon: gains vs slowdowns",
        build_cells=_fig10_cells,
        quick=dict(epsilons=(0.0, 0.1), num_jobs=25, total_slots=80),
        reduce=_reduce_fig10,
        render=_print_fig10,
    )
)

fig10_fairness = FIG10_STUDY.figure


# --------------------------------------------------------------------------
# Figure 11: probe ratio sweep
# --------------------------------------------------------------------------

def _fig11_cells(
    probe_ratios: Sequence[float] = (2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
    utilizations: Sequence[float] = (0.6, 0.8),
    num_jobs: int = 120,
    total_slots: int = 300,
) -> List[Cell]:
    cells: List[Cell] = []
    for utilization in utilizations:
        workload = WorkloadParams("spark-facebook", num_jobs, utilization, total_slots)
        cells.append(
            cell(
                RunSpec("decentralized", "sparrow-srpt", workload),
                utilization=utilization,
                system="sparrow-srpt",
                probe_ratio="-",
            )
        )
        cells.extend(
            cell(
                RunSpec(
                    "decentralized",
                    "hopper",
                    workload,
                    knobs={"probe_ratio": ratio},
                ),
                utilization=utilization,
                system="hopper",
                probe_ratio=ratio,
            )
            for ratio in probe_ratios
        )
    return cells


def _reduce_fig11(result: StudyResult) -> Dict[float, Dict[float, float]]:
    """Hopper's gain vs Sparrow-SRPT as the probe ratio varies
    (Fig. 11); keyed [utilization][probe_ratio] -> reduction %."""
    out: Dict[float, Dict[float, float]] = {}
    for labels, srpt in _runs(result, system="sparrow-srpt"):
        utilization = labels["utilization"]
        out[utilization] = {
            hopper_labels["probe_ratio"]: mean_reduction_percent(srpt, hopper)
            for hopper_labels, hopper in _runs(
                result, utilization=utilization, system="hopper"
            )
        }
    return out


def _print_fig11(out: Dict[float, Dict[float, float]]) -> None:
    print_table(
        "Fig 11: Hopper's gain vs Sparrow-SRPT by probe ratio "
        "(paper: gains increase up to ratio ~4)",
        ("utilization", "probe ratio", "reduction %"),
        [
            (utilization, ratio, gain)
            for utilization, inner in out.items()
            for ratio, gain in sorted(inner.items())
        ],
    )


FIG11_STUDY = register_study(
    Study(
        name="fig11",
        description="Hopper's gain vs Sparrow-SRPT across probe ratios",
        build_cells=_fig11_cells,
        quick=dict(
            probe_ratios=(2.0, 4.0),
            utilizations=(0.7,),
            num_jobs=30,
            total_slots=100,
        ),
        reduce=_reduce_fig11,
        render=_print_fig11,
    )
)

fig11_probe_ratio = FIG11_STUDY.figure


# --------------------------------------------------------------------------
# Figure 12: centralized Hopper vs SRPT
# --------------------------------------------------------------------------

def _fig12_cells(
    profile_name: str = "facebook",
    utilization: float = 0.7,
    num_jobs: int = 200,
    total_slots: int = 200,
) -> List[Cell]:
    profile = FACEBOOK_PROFILE if profile_name == "facebook" else BING_PROFILE
    return _systems(
        "centralized",
        ("hopper", "srpt"),
        WorkloadParams(
            profile.name,
            num_jobs,
            utilization,
            total_slots,
            max_phase_tasks=300,
        ),
    )


def _reduce_fig12(result: StudyResult) -> Dict[str, object]:
    """Centralized Hopper vs centralized SRPT+best-effort-LATE: overall,
    per-bin, per-DAG-length (Fig. 12a/12b).

    The "Spark-like" variant (small interactive jobs) shows modestly
    higher gains than "Hadoop-like", mirroring the paper's observation.
    """
    hopper = _run(result, system="hopper")
    srpt = _run(result, system="srpt")
    return {
        "overall": mean_reduction_percent(srpt, hopper),
        "by_bin": {
            bin_label(i): gain
            for i, gain in sorted(reduction_by_bin(srpt, hopper).items())
        },
        "by_dag_length": reduction_by_dag_length(srpt, hopper),
    }


def _print_fig12(out: Dict[str, Any]) -> None:
    print_table(
        "Fig 12: centralized Hopper vs SRPT (paper: up to ~50%)",
        ("slice", "reduction %"),
        [("overall", out["overall"])]
        + [(f"bin {k}", v) for k, v in out["by_bin"].items()]
        + [
            (f"dag length {k}", v)
            for k, v in sorted(out["by_dag_length"].items())
        ],
    )


FIG12_STUDY = register_study(
    Study(
        name="fig12",
        description="centralized Hopper vs centralized SRPT",
        build_cells=_fig12_cells,
        quick=dict(num_jobs=30, total_slots=60),
        reduce=_reduce_fig12,
        render=_print_fig12,
    )
)

fig12_centralized = FIG12_STUDY.figure


# --------------------------------------------------------------------------
# Figure 13: locality allowance k
# --------------------------------------------------------------------------

@dataclass
class LocalityRow:
    k_percent: float
    gain_vs_srpt: float
    locality_fraction: float


def _fig13_cells(
    k_values: Sequence[float] = (0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 15.0),
    utilization: float = 0.7,
    num_jobs: int = 150,
    total_slots: int = 200,
) -> List[Cell]:
    workload = WorkloadParams(
        "facebook",
        num_jobs,
        utilization,
        total_slots,
        max_phase_tasks=200,
        locality_machines=total_slots // 4,
    )
    cells = [
        cell(
            RunSpec(
                "centralized",
                "srpt",
                workload,
                knobs={"with_locality": True},
            ),
            system="srpt",
            k_percent="-",
        )
    ]
    cells.extend(
        cell(
            RunSpec(
                "centralized",
                "hopper",
                workload,
                knobs={"with_locality": True, "locality_k_percent": k},
            ),
            system="hopper",
            k_percent=k,
        )
        for k in k_values
    )
    return cells


def _reduce_fig13(result: StudyResult) -> List[LocalityRow]:
    """Centralized Hopper with data locality: gains and fraction of
    data-local tasks as the allowance k varies (Fig. 13)."""
    srpt = _run(result, system="srpt")
    return [
        LocalityRow(
            k_percent=labels["k_percent"],
            gain_vs_srpt=mean_reduction_percent(srpt, run),
            locality_fraction=run.data_locality_fraction,
        )
        for labels, run in _runs(result, system="hopper")
    ]


def _print_fig13(rows: List[LocalityRow]) -> None:
    print_table(
        "Fig 13: locality allowance k "
        "(paper: small k buys locality without losing gains)",
        ("k %", "gain vs SRPT %", "locality fraction"),
        [(r.k_percent, r.gain_vs_srpt, r.locality_fraction) for r in rows],
    )


FIG13_STUDY = register_study(
    Study(
        name="fig13",
        description="data-locality allowance k: gains and local fraction",
        build_cells=_fig13_cells,
        quick=dict(k_values=(0.0, 5.0), num_jobs=25, total_slots=60),
        reduce=_reduce_fig13,
        render=_print_fig13,
    )
)

fig13_locality = FIG13_STUDY.figure


# --------------------------------------------------------------------------
# Headline: §1 / §7 aggregate gains
# --------------------------------------------------------------------------

def _headline_cells(
    num_jobs: int = 150,
    total_slots: int = 400,
) -> List[Cell]:
    return with_axis(
        _systems(
            "decentralized",
            ("hopper", "sparrow-srpt"),
            WorkloadParams("spark-facebook", num_jobs, 0.6, total_slots),
        ),
        kind="decentralized",
    ) + with_axis(
        _systems(
            "centralized",
            ("hopper", "srpt"),
            WorkloadParams(
                "facebook", num_jobs, 0.7, total_slots // 2, max_phase_tasks=300
            ),
        ),
        kind="centralized",
    )


def _reduce_headline(result: StudyResult) -> Dict[str, float]:
    """The paper's headline numbers: decentralized Hopper vs the best
    decentralized baseline, and centralized Hopper vs centralized SRPT."""
    return {
        "decentralized_vs_sparrow_srpt": mean_reduction_percent(
            _run(result, kind="decentralized", system="sparrow-srpt"),
            _run(result, kind="decentralized", system="hopper"),
        ),
        "centralized_vs_srpt": mean_reduction_percent(
            _run(result, kind="centralized", system="srpt"),
            _run(result, kind="centralized", system="hopper"),
        ),
    }


def _print_headline(out: Dict[str, float]) -> None:
    print_table(
        "Headline gains (paper: decentralized up to 66%, centralized up "
        "to 50%)",
        ("comparison", "reduction %"),
        [
            ("decentralized Hopper vs Sparrow-SRPT",
             out["decentralized_vs_sparrow_srpt"]),
            ("centralized Hopper vs SRPT", out["centralized_vs_srpt"]),
        ],
    )


HEADLINE_STUDY = register_study(
    Study(
        name="headline",
        description="the paper's headline aggregate gains (Sections 1 and 7)",
        build_cells=_headline_cells,
        quick=dict(num_jobs=40, total_slots=120),
        reduce=_reduce_headline,
        render=_print_headline,
    )
)

headline_gains = HEADLINE_STUDY.figure
