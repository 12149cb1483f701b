"""Tests for the Study layer: grids, seed replication, aggregation with
bootstrap confidence intervals, and the ``repro study`` CLI."""

import pytest

from repro.cli import main
from repro.registry import studies
from repro.sweep import (
    RunSpec,
    SweepRunner,
    WorkloadParams,
    bootstrap_ci,
    cell,
    with_axis,
)
from repro.sweep.study import Study


TINY = WorkloadParams(
    profile="spark-facebook",
    num_jobs=10,
    utilization=0.6,
    total_slots=40,
    max_phase_tasks=20,
)


def _tiny_cells(systems=("hopper", "sparrow-srpt")):
    return [
        cell(RunSpec("decentralized", system, TINY), system=system)
        for system in systems
    ]


TINY_STUDY = Study(
    name="tiny-test-study",
    description="two systems on a tiny workload",
    build_cells=_tiny_cells,
)


# -- bootstrap_ci -----------------------------------------------------------


def test_bootstrap_ci_single_value_collapses():
    assert bootstrap_ci([3.5]) == (3.5, 3.5)


def test_bootstrap_ci_constant_values_collapse():
    lo, hi = bootstrap_ci([2.0, 2.0, 2.0], resamples=200)
    assert lo == hi == 2.0


def test_bootstrap_ci_is_deterministic_and_ordered():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    first = bootstrap_ci(values, seed="cell-a")
    second = bootstrap_ci(values, seed="cell-a")
    assert first == second
    lo, hi = first
    assert lo <= sum(values) / len(values) <= hi
    # A different seed resamples differently (almost surely).
    assert bootstrap_ci(values, seed="cell-b") != first or True


def test_bootstrap_ci_validates_inputs():
    with pytest.raises(ValueError):
        bootstrap_ci([])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], confidence=1.5)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], resamples=0)


# -- Study.run --------------------------------------------------------------


def test_study_run_shapes_cells_by_seeds():
    runner = SweepRunner(parallel=False)
    result = TINY_STUDY.run(seeds=(1, 2, 3), runner=runner)
    assert result.seeds == (1, 2, 3)
    assert len(result.cells) == 2
    assert all(len(per_cell) == 3 for per_cell in result.results)
    assert len(result.first_seed_results) == 2
    # Cell i / seed j really is cell i's spec replayed at seed j.
    direct = result.cells[1].make_spec(2).execute()
    assert result.results[1][1] == direct


def test_study_default_seed_list_is_used(tmp_path):
    from repro.sweep import ResultCache

    runner = SweepRunner(parallel=False, cache=ResultCache(root=tmp_path))
    default = TINY_STUDY.run(runner=runner)
    explicit = TINY_STUDY.run(seeds=TINY_STUDY.seeds, runner=runner)
    assert default.results == explicit.results
    assert runner.stats.requested == 4
    assert runner.stats.executed == 2  # second run served from the cache
    assert runner.stats.cache_hits == 2


def test_study_rejects_empty_seed_list():
    with pytest.raises(ValueError):
        TINY_STUDY.run(seeds=())


def test_study_quick_params_merge_with_overrides():
    study = Study(
        name="tiny-quick-study",
        description="quick-dict merging",
        build_cells=_tiny_cells,
        quick=dict(systems=("hopper",)),
    )
    assert len(study.cells()) == 2
    assert len(study.cells(quick=True)) == 1
    assert len(study.cells(quick=True, systems=("hopper", "sparrow"))) == 2


def test_study_aggregate_reports_mean_p95_and_ci():
    result = TINY_STUDY.run(seeds=(1, 2, 3), runner=SweepRunner(parallel=False))
    rows = result.aggregate(resamples=200)
    assert [row.label_dict()["system"] for row in rows] == [
        "hopper",
        "sparrow-srpt",
    ]
    for row, per_cell in zip(rows, result.results):
        values = [r.mean_job_duration for r in per_cell]
        assert row.n == 3
        assert row.values == tuple(values)
        assert row.mean == pytest.approx(sum(values) / 3)
        assert min(values) <= row.p95 <= max(values)
        assert row.ci_lower <= row.mean <= row.ci_upper
    # Aggregation is deterministic (seeded bootstrap).
    again = result.aggregate(resamples=200)
    assert [(r.ci_lower, r.ci_upper) for r in again] == [
        (r.ci_lower, r.ci_upper) for r in rows
    ]


def test_cell_and_with_axis_helpers():
    cells = _tiny_cells()
    extended = with_axis(cells, variant="probe")
    assert extended[0].labels == (("variant", "probe"), ("system", "hopper"))
    assert extended[0].spec is cells[0].spec
    assert cells[0].label_dict() == {"system": "hopper"}


# -- registered figure studies ----------------------------------------------


def test_every_figure_has_a_registered_study():
    names = set(studies().names())
    expected = {
        "fig3",
        "fig5",
        "fig5a",
        "fig5b",
        "fig6",
        "fig7",
        "fig8a",
        "fig8b",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "headline",
    }
    assert expected <= names


def test_fig3_study_uses_single_job_kind():
    study = studies().get("fig3").factory
    spec = study.cells(quick=True)[0].make_spec(0)
    assert spec.kind == "single_job"
    knobs = dict(spec.knobs)
    assert knobs["num_tasks"] == 50
    # seeds are repetition indices mapped onto run_seed
    assert study.cells(quick=True)[0].make_spec(5).run_seed == 5


def test_quick_seeds_replace_the_default_seed_list():
    study = Study(
        name="tiny-quick-seeds",
        description="quick seeds",
        build_cells=_tiny_cells,
        seeds=(1, 2),
        quick=dict(systems=("hopper",), seeds=(3,)),
    )
    runner = SweepRunner(parallel=False)
    # ``seeds`` is a seed list, never a grid parameter.
    assert len(study.cells(quick=True)) == 1
    assert study.run(quick=True, runner=runner).seeds == (3,)
    assert study.run(runner=runner).seeds == (1, 2)
    assert study.run(seeds=(4,), quick=True, runner=runner).seeds == (4,)


def test_figure_reduces_the_study_run():
    runner = SweepRunner(parallel=False)
    with pytest.raises(ValueError, match="no figure reducer"):
        TINY_STUDY.figure(runner=runner)
    study = Study(
        name="tiny-figure",
        description="job counts",
        build_cells=_tiny_cells,
        reduce=lambda result: [r.num_jobs for r in result.first_seed_results],
    )
    assert study.figure(runner=runner, systems=("hopper",)) == [10]


def test_fig3_figure_defaults_to_thirty_repetitions():
    study = studies().get("fig3").factory
    assert study.seeds == tuple(range(30))
    assert study.quick["seeds"] == tuple(range(3))


def test_figure_study_single_seed_matches_figure_function():
    """The figure function and its study share one grid: the figure's
    derived numbers must be computable from the study's first seed."""
    from repro.experiments.figures import FIG7_STUDY, fig7_job_bins
    from repro.metrics.analysis import mean_reduction_percent

    runner = SweepRunner(parallel=False)
    out = fig7_job_bins(num_jobs=15, total_slots=50, runner=runner)
    hopper, srpt = FIG7_STUDY.run(
        runner=runner, num_jobs=15, total_slots=50
    ).first_seed_results
    assert out["overall"] == pytest.approx(
        mean_reduction_percent(srpt, hopper)
    )


# -- CLI --------------------------------------------------------------------


def test_study_cli_prints_ci_table(tmp_path, capsys):
    args = [
        "study",
        "fig7",
        "--quick",
        "--seeds",
        "1,2",
        "--serial",
        "--resamples",
        "100",
        "--cache",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "Study fig7" in out
    assert "seeds 1,2" in out
    assert "ci95 lo" in out and "ci95 hi" in out
    assert "4 runs requested" in out

    # Second invocation is served entirely from the cache.
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "4 cache hit(s)" in second and "0 executed" in second


def test_study_cli_aggregates_the_study_metric(capsys):
    """The CLI must aggregate Study.metric, not silently fall back to
    mean job duration."""
    from repro.registry import STUDIES
    from repro.sweep import register_study

    register_study(
        Study(
            name="test-metric-study",
            description="constant metric for CLI plumbing",
            build_cells=_tiny_cells,
            metric=lambda result: float(result.num_jobs),
            metric_name="job count",
        )
    )
    try:
        assert main(
            ["study", "test-metric-study", "--seeds", "1,2", "--serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "job count" in out
        # Every replay finishes all 10 tiny jobs, so mean == p95 == 10.
        assert "10.00" in out
    finally:
        STUDIES.unregister("test-metric-study")


def test_study_cli_rejects_unknown_study(capsys):
    assert main(["study", "fig99"]) == 2
    assert "unknown study" in capsys.readouterr().err


def test_study_cli_rejects_empty_seeds(capsys):
    assert main(["study", "fig7", "--seeds", ","]) == 2
    assert "at least one" in capsys.readouterr().err
