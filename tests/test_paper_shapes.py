"""Paper-shape checks: what each figure must show at its check scale.

The golden digests in ``test_golden_results.py`` show that a figure has
not changed; the checks here show that it still says what the paper
says (Figs. 3, 5-13 and the §1/§7 headline gains): who wins, where the
knee sits, rough factors. The §3 example is checked exactly in
``test_experiments.py``.

:data:`SHAPE_CHECKS` maps every figure study to ``(params, check)``
pairs. Each test replays ``study.figure(**params)`` on one module-wide
cached runner, so grids that share cells (fig5a/fig5b's centralized
reference, fig7/fig8a) replay them once, and hands the reduced value to
``check``. The study's ``render`` prints the figure's table
first, so a failing check shows it. All figures run at seed 42 (fig3 at
repetitions 0-7): each bound is a point estimate at that seed.
"""

import pytest

from repro import registry
from repro.centralized.config import CentralizedConfig
from repro.centralized.policies import HopperPolicy
from repro.centralized.simulator import CentralizedSimulator
from repro.cluster.cluster import Cluster
from repro.experiments.figures import knee_position
from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    default_straggler_model,
)
from repro.simulation.rng import RandomSource
from repro.speculation import make_speculation_policy
from repro.sweep import ResultCache, SweepRunner
from repro.workload.generator import FACEBOOK_PROFILE


def _fig3_check(knee_lo, knee_hi):
    def check(curve):
        knee = knee_position(curve)
        # The marginal value of a slot collapses near 2/beta.
        assert knee_lo <= knee <= knee_hi
        # Steep improvement before the knee: >= 20% drop from 0.6x to 1.2x.
        head = dict(curve)
        assert head[0.6] - head[1.2] >= 0.2
        # Far side of the knee is flat: little change beyond 1.8x.
        tail = [v for x, v in curve if x >= 1.8]
        assert max(tail) - min(tail) < 0.15

    return check


def _check_fig5a(rows):
    hopper = {r.parameter: r.ratio for r in rows if r.system == "hopper"}
    sparrow = [r.ratio for r in rows if r.system == "sparrow"]
    # More probes help (d=4 no worse than d=2, small tolerance).
    assert hopper[4.0] <= hopper[2.0] * 1.10
    # Decentralized Hopper at d>=4 lands within ~60% of centralized.
    assert hopper[4.0] <= 1.6
    # Sparrow (no coordination) is further from centralized than Hopper d=4.
    assert sparrow[0] >= hopper[4.0] * 0.95


def _check_fig5b(rows):
    by_refusals = {int(r.parameter): r.ratio for r in rows}
    # The 2-3 refusal operating point is close to the best observed.
    best = min(by_refusals.values())
    assert min(by_refusals[2], by_refusals[3]) <= best * 1.15


def _check_fig6(rows):
    # Hopper wins against both baselines at every utilization.
    for row in rows:
        assert row.vs_sparrow > 0.0
        assert row.vs_sparrow_srpt > -2.0  # allow sampling noise at worst
    # And wins meaningfully somewhere (double digits at some point).
    assert max(r.vs_sparrow for r in rows) > 10.0


def _check_fig7(out):
    assert out["overall"] > 0.0
    # Large jobs benefit at least as much as the smallest-gain bin (the
    # baseline already favours small jobs).
    bins = {k: v for k, v in out.items() if k != "overall"}
    if len(bins) >= 2:
        labels = list(bins)
        assert bins[labels[-1]] >= min(bins.values())


def _check_fig8a(out):
    # Distribution is ordered and most jobs benefit.
    assert out["p10"] <= out["p50"] <= out["p90"]
    assert out["p90"] > 0.0
    assert out["mean"] > 0.0


def _check_fig8b(out):
    rows = sorted(out.items())
    assert rows, "no DAG-length groups produced"
    # Gains hold across DAG lengths: the majority of groups improve.
    improving = sum(1 for _, v in rows if v > -2.0)
    assert improving >= max(1, int(0.6 * len(rows)))


def _check_fig9(out):
    overalls = [bins["overall"] for bins in out.values()]
    # Hopper helps under every speculation algorithm...
    assert all(v > -2.0 for v in overalls)
    assert max(overalls) > 5.0
    # ...and the gains are of the same order across algorithms.
    assert max(overalls) - min(overalls) < 35.0


def _check_fig10(rows):
    by_eps = {r.epsilon: r for r in rows}
    # Hopper beats the baseline at every epsilon, including under strict
    # fairness floors (eps=0): coordination, not unfairness, drives the
    # gains. The per-job slowdown columns are noisy at this trace size,
    # because changing eps perturbs every later scheduling decision, so
    # the paper's "<4% of jobs slowed" is checked only loosely.
    assert all(r.gain_vs_srpt > 0.0 for r in rows)
    assert by_eps[0.30].gain_vs_srpt >= by_eps[0.0].gain_vs_srpt - 10.0
    assert by_eps[0.10].fraction_slowed <= 0.6


def _check_fig11(out):
    gains = out[0.7]
    # Probe ratio 4 performs at least as well as 2 (power of many choices).
    assert gains[4.0] >= gains[2.0] - 3.0
    assert max(gains.values()) > 0.0


def _check_fig12(out):
    # Coordination wins overall, and some bin wins big.
    assert out["overall"] > 5.0
    assert any(v > 10.0 for v in out["by_bin"].values())


def _check_fig13(rows):
    # Both asserts compare equal values: at these parameters every k row
    # has the same gain and locality fraction. The originals pass never
    # sees more than 4 deficient jobs, so locality_window(n, k) is 1 for
    # every k <= 25% (see the ROADMAP's locality-window item).
    by_k = {r.k_percent: r for r in rows}
    # Locality fraction rises (weakly) with k.
    assert by_k[15.0].locality_fraction >= by_k[0.0].locality_fraction - 0.02
    # A small allowance does not hurt performance materially.
    assert by_k[3.0].gain_vs_srpt >= by_k[0.0].gain_vs_srpt - 5.0


def _check_headline(out):
    # Hopper wins in both deployments.
    assert out["decentralized_vs_sparrow_srpt"] > 5.0
    assert out["centralized_vs_srpt"] > 5.0


_FIG3_SLOTS = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5)
_FIG3 = dict(num_tasks=120, normalized_slots=_FIG3_SLOTS, seeds=tuple(range(8)))
_FIG6 = dict(utilizations=(0.6, 0.8, 0.9), num_jobs=130, total_slots=400)

#: figure study name -> ``(params, check)`` pairs; ``params`` go to
#: ``study.figure`` and ``check`` asserts on the reduced value.
SHAPE_CHECKS = {
    "fig3": [
        (dict(beta=1.4, **_FIG3), _fig3_check(0.9, 2.0)),
        (dict(beta=1.6, **_FIG3), _fig3_check(0.8, 1.8)),
    ],
    "fig5a": [
        (
            dict(
                probe_ratios=(2.0, 4.0, 6.0, 8.0),
                utilizations=(0.7,),
                num_jobs=100,
                total_slots=300,
            ),
            _check_fig5a,
        )
    ],
    "fig5b": [
        (
            dict(
                refusal_counts=(0, 1, 2, 3),
                utilizations=(0.7,),
                num_jobs=100,
                total_slots=300,
            ),
            _check_fig5b,
        )
    ],
    "fig6": [
        (dict(profile_name="facebook", **_FIG6), _check_fig6),
        (dict(profile_name="bing", **_FIG6), _check_fig6),
    ],
    "fig7": [(dict(num_jobs=180, total_slots=400), _check_fig7)],
    "fig8a": [(dict(num_jobs=180, total_slots=400), _check_fig8a)],
    "fig8b": [(dict(num_jobs=180, total_slots=400), _check_fig8b)],
    "fig9": [(dict(num_jobs=130, total_slots=400), _check_fig9)],
    "fig10": [
        (
            dict(
                epsilons=(0.0, 0.05, 0.10, 0.20, 0.30),
                num_jobs=130,
                total_slots=400,
            ),
            _check_fig10,
        )
    ],
    "fig11": [
        (
            dict(
                probe_ratios=(2.0, 3.0, 4.0, 5.0),
                utilizations=(0.7,),
                num_jobs=110,
                total_slots=300,
            ),
            _check_fig11,
        )
    ],
    "fig12": [(dict(num_jobs=220, total_slots=200, utilization=0.7), _check_fig12)],
    "fig13": [
        (
            dict(k_values=(0.0, 3.0, 7.0, 15.0), num_jobs=130, total_slots=200),
            _check_fig13,
        )
    ],
    "headline": [(dict(num_jobs=150, total_slots=400), _check_headline)],
}


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    """One cached runner: grids that share cells replay them once."""
    return SweepRunner(cache=ResultCache(root=tmp_path_factory.mktemp("cache")))


def test_every_figure_has_a_shape_check():
    """A study that renders a figure must state its shape here."""
    figures = {
        name
        for name in registry.studies().names()
        if registry.STUDIES.get(name).factory.render is not None
    }
    assert figures == set(SHAPE_CHECKS)


@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name, pairs in SHAPE_CHECKS.items() for i in range(len(pairs))],
)
def test_figure_shape(name, index, runner):
    params, check = SHAPE_CHECKS[name][index]
    study = registry.STUDIES.get(name).factory
    value = study.figure(**params, runner=runner)
    study.render(value)
    check(value)


def _mean_job_duration(trace, spec, force_regime=None):
    sim = CentralizedSimulator(
        cluster=Cluster(num_machines=spec.total_slots // 4, slots_per_machine=4),
        policy=HopperPolicy(epsilon=0.1, force_regime=force_regime),
        speculation=lambda: make_speculation_policy("late"),
        trace=trace.fresh_copy(),
        straggler_model=default_straggler_model(spec.profile),
        config=CentralizedConfig(
            epsilon=0.1,
            learn_beta=True,
            default_beta=spec.profile.beta,
            speculation_mode="integrated",
        ),
        random_source=RandomSource(seed=7),
    )
    return sim.run().mean_job_duration


def test_adaptive_regime_is_near_the_best_forced_regime():
    """Ablation of Hopper's regime split (Guideline 2 under contention,
    Guideline 3 otherwise) against forcing either guideline always."""
    spec = WorkloadSpec(
        profile=FACEBOOK_PROFILE,
        num_jobs=200,
        utilization=0.7,
        total_slots=200,
        max_phase_tasks=300,
    )
    trace = build_trace(spec)
    adaptive = _mean_job_duration(trace, spec)
    always_2 = _mean_job_duration(trace, spec, force_regime="constrained")
    always_3 = _mean_job_duration(trace, spec, force_regime="rich")
    # The adaptive two-regime design is never much worse than either
    # forced regime (it should typically be the best or near-best).
    assert adaptive <= min(always_2, always_3) * 1.15, (adaptive, always_2, always_3)
