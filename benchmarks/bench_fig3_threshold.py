"""Benchmark: Figure 3 — the sharp threshold (knee) at 2/beta slots per
remaining task.

Fig. 3 now runs as a ``single_job`` study through the shared sweep
runner, so its (norm x repetition) grid parallelizes and caches like
every other figure."""

from _runner import RUNNER
from _tables import report_table

from repro.core.virtual_size import threshold_multiplier
from repro.experiments.figures import fig3_threshold, knee_position


def _run(beta):
    return fig3_threshold(
        beta=beta,
        num_tasks=120,
        normalized_slots=(0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5),
        seeds=tuple(range(8)),
        runner=RUNNER,
    )


def test_bench_fig3_beta_14(benchmark):
    curve = benchmark.pedantic(_run, args=(1.4,), rounds=1, iterations=1)
    report_table(
        "fig3",
        "Fig 3a (beta=1.4): completion vs normalized slots "
        f"(paper knee at {threshold_multiplier(1.4):.2f})",
        ("slots/tasks", "norm. completion"),
        curve,
    )
    knee = knee_position(curve)
    # The marginal value of a slot collapses near 2/beta ~ 1.43.
    assert 0.9 <= knee <= 2.0
    # Steep improvement before the knee: >= 20% drop from 0.6x to 1.2x.
    head = dict(curve)
    assert head[0.6] - head[1.2] >= 0.2
    # Far side of the knee is flat: little change beyond 1.8x.
    tail = [v for x, v in curve if x >= 1.8]
    assert max(tail) - min(tail) < 0.15


def test_bench_fig3_beta_16(benchmark):
    curve = benchmark.pedantic(_run, args=(1.6,), rounds=1, iterations=1)
    report_table(
        "fig3",
        "Fig 3b (beta=1.6): completion vs normalized slots "
        f"(paper knee at {threshold_multiplier(1.6):.2f})",
        ("slots/tasks", "norm. completion"),
        curve,
    )
    knee = knee_position(curve)
    assert 0.8 <= knee <= 1.8
    head = dict(curve)
    assert head[0.6] - head[1.2] >= 0.2
    # Lighter tail: the curve flattens beyond ~1.6.
    tail = [v for x, v in curve if x >= 1.8]
    assert max(tail) - min(tail) < 0.15
