"""Multi-seed studies: named, declarative grids with seed replication.

A :class:`Study` is the layer above a raw sweep. Where a sweep is a flat
list of :class:`~repro.sweep.spec.RunSpec`, a study is a *labelled grid*
of cells, each cell a complete ``RunSpec`` template. Running a study with
``seeds=[1, 2, 3]`` replays every template once per seed (see
:meth:`~repro.sweep.spec.RunSpec.reseeded`), all through one
deduplicating, cacheable :class:`~repro.sweep.runner.SweepRunner` call,
and aggregates a per-cell metric into mean / p95 / bootstrap confidence
intervals. Single-seed figure reproduction and multi-seed CI tables are
therefore the *same* grid, differing only in the seed list:

    study = registry.studies().get("fig6").factory
    study.run(seeds=(1, 2, 3)).aggregate()     # mean +/- CI per cell
    study.render(study.figure())               # the paper figure's table

Studies register by name in :data:`repro.registry.STUDIES` (the paper
figures register theirs in :mod:`repro.experiments.figures`) and run
from the CLI via ``python -m repro study <name> --seeds 1,2,3``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.metrics.collector import SimulationResult
from repro.sweep.runner import SweepRunner, evaluate
from repro.sweep.spec import RunSpec

MetricFn = Callable[[SimulationResult], float]

#: Default per-cell metric: the mean job duration of the replay.
DEFAULT_METRIC_NAME = "mean job duration"


def _mean_job_duration(result: SimulationResult) -> float:
    return result.mean_job_duration


@dataclass(frozen=True)
class Cell:
    """One grid cell: axis labels plus a complete RunSpec template.

    A study seed only reseeds the template (see
    :meth:`~repro.sweep.spec.RunSpec.reseeded`), so the grid is plain
    data: every cell's spec can be printed, hashed and compared.
    """

    labels: Tuple[Tuple[str, Any], ...]
    spec: RunSpec

    def make_spec(self, seed: int) -> RunSpec:
        """The template replayed under study seed ``seed``."""
        return self.spec.reseeded(seed)

    def label_dict(self) -> Dict[str, Any]:
        return dict(self.labels)


def cell(spec: RunSpec, **labels: Any) -> Cell:
    """Convenience constructor: ``cell(spec, system="hopper", u=0.6)``."""
    return Cell(labels=tuple(labels.items()), spec=spec)


def with_axis(cells: Sequence[Cell], **labels: Any) -> List[Cell]:
    """Prepend fixed axis labels to every cell (used to merge grids)."""
    extra = tuple(labels.items())
    return [Cell(labels=extra + c.labels, spec=c.spec) for c in cells]


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: Any = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``values``.

    Deterministic: the resampling RNG is seeded from ``seed`` (studies
    pass a stable per-cell string), so repeated invocations print the
    same interval. With fewer than two values the interval collapses to
    the point estimate.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if not values:
        raise ValueError("empty sequence")
    if len(values) == 1:
        return (values[0], values[0])
    rng = random.Random(repr(seed))
    n = len(values)
    means = sorted(
        sum(rng.choice(values) for _ in range(n)) / n
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_index = int(alpha * (resamples - 1))
    hi_index = int((1.0 - alpha) * (resamples - 1))
    return (means[lo_index], means[hi_index])


@dataclass(frozen=True)
class CellAggregate:
    """Per-cell summary of a metric across seeds."""

    labels: Tuple[Tuple[str, Any], ...]
    n: int
    mean: float
    p95: float
    ci_lower: float
    ci_upper: float
    values: Tuple[float, ...]

    def label_dict(self) -> Dict[str, Any]:
        return dict(self.labels)


@dataclass(frozen=True)
class StudyResult:
    """Everything a study run produced, reshaped per cell x seed."""

    study_name: str
    metric_name: str
    seeds: Tuple[int, ...]
    cells: Tuple[Cell, ...]
    #: ``results[i][j]`` is cell ``i`` replayed with seed ``seeds[j]``.
    results: Tuple[Tuple[SimulationResult, ...], ...]

    @property
    def first_seed_results(self) -> List[SimulationResult]:
        """One result per cell at the first seed — the single-seed view
        most figure reducers read (grid order == cell order)."""
        return [per_cell[0] for per_cell in self.results]

    def values(self, metric: Optional[MetricFn] = None) -> List[List[float]]:
        fn = metric or _mean_job_duration
        return [[fn(r) for r in per_cell] for per_cell in self.results]

    def aggregate(
        self,
        metric: Optional[MetricFn] = None,
        confidence: float = 0.95,
        resamples: int = 2000,
    ) -> List[CellAggregate]:
        """Mean / p95 / bootstrap-CI of the metric per cell, across seeds."""
        from repro.metrics.analysis import percentile

        rows: List[CellAggregate] = []
        for cell_, per_cell in zip(self.cells, self.values(metric)):
            lo, hi = bootstrap_ci(
                per_cell,
                confidence=confidence,
                resamples=resamples,
                seed=(self.study_name, self.metric_name, cell_.labels),
            )
            rows.append(
                CellAggregate(
                    labels=cell_.labels,
                    n=len(per_cell),
                    mean=sum(per_cell) / len(per_cell),
                    p95=percentile(per_cell, 0.95),
                    ci_lower=lo,
                    ci_upper=hi,
                    values=tuple(per_cell),
                )
            )
        return rows


@dataclass(frozen=True)
class Study:
    """A named, declarative grid of RunSpecs with seed replication.

    Attributes
    ----------
    name / description:
        Registry identity and the line ``repro list`` prints.
    build_cells:
        ``(**params) -> Sequence[Cell]``; params default inside the
        builder, so ``build_cells()`` is the paper-scale grid.
    seeds:
        Default seed list (most figure reducers read only the first).
        For ``single_job`` studies the seeds are repetition indices.
    metric / metric_name:
        Per-run scalar the CLI aggregates (mean/p95/CI).
    quick:
        Scaled-down builder params for smoke tests (CLI ``--quick``). A
        ``seeds`` entry replaces the default seed list under ``--quick``.
    reduce / render:
        A paper figure's presentation: ``reduce`` turns a
        :class:`StudyResult` into the figure's plain data and ``render``
        prints it. Studies with a ``render`` are what ``repro run``
        lists and runs.
    """

    name: str
    description: str
    build_cells: Callable[..., Sequence[Cell]]
    seeds: Tuple[int, ...] = (42,)
    metric: MetricFn = _mean_job_duration
    metric_name: str = DEFAULT_METRIC_NAME
    quick: Mapping[str, Any] = field(default_factory=dict)
    reduce: Optional[Callable[[StudyResult], Any]] = None
    render: Optional[Callable[[Any], None]] = None

    def cells(self, quick: bool = False, **params: Any) -> List[Cell]:
        merged: Dict[str, Any] = dict(self.quick) if quick else {}
        merged.pop("seeds", None)
        merged.update(params)
        return list(self.build_cells(**merged))

    def run(
        self,
        seeds: Optional[Sequence[int]] = None,
        runner: Optional[SweepRunner] = None,
        quick: bool = False,
        **params: Any,
    ) -> StudyResult:
        """Replay every cell under every seed and reshape the results.

        All specs go through a single runner call, so dedup, caching and
        process-pool parallelism apply across the full cell x seed grid.
        """
        if seeds is None:
            seeds = self.quick.get("seeds", self.seeds) if quick else self.seeds
        seed_list = tuple(seeds)
        if not seed_list:
            raise ValueError("need at least one seed")
        cells = self.cells(quick=quick, **params)
        if not cells:
            raise ValueError(f"study {self.name!r} produced no cells")
        specs = [c.make_spec(seed) for c in cells for seed in seed_list]
        flat = evaluate(specs, runner)
        per_cell = [
            tuple(flat[i * len(seed_list) : (i + 1) * len(seed_list)])
            for i in range(len(cells))
        ]
        return StudyResult(
            study_name=self.name,
            metric_name=self.metric_name,
            seeds=seed_list,
            cells=tuple(cells),
            results=tuple(per_cell),
        )

    def figure(
        self,
        seeds: Optional[Sequence[int]] = None,
        runner: Optional[SweepRunner] = None,
        quick: bool = False,
        **params: Any,
    ) -> Any:
        """Run the study and reduce it to the figure's data."""
        if self.reduce is None:
            raise ValueError(f"study {self.name!r} has no figure reducer")
        return self.reduce(
            self.run(seeds=seeds, runner=runner, quick=quick, **params)
        )


def register_study(study: Study, replace: bool = False) -> Study:
    """Add ``study`` to :data:`repro.registry.STUDIES` and return it."""
    from repro.registry import STUDIES

    STUDIES.register(
        study.name, study, description=study.description, replace=replace
    )
    return study
