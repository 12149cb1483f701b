"""Tests for online beta fitting and alpha (intermediate data) estimation."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation.alpha import AlphaEstimator
from repro.estimation.beta import OnlineBetaEstimator, fit_pareto_shape
from repro.workload.distributions import ParetoDistribution
from repro.workload.job import make_chain_job


def test_fit_pareto_shape_recovers_true_beta():
    rng = random.Random(0)
    dist = ParetoDistribution(shape=1.4, scale=1.0)
    samples = dist.sample_many(rng, 20000)
    estimate = fit_pareto_shape(samples, scale=1.0)
    assert abs(estimate - 1.4) / 1.4 < 0.05


def test_fit_pareto_shape_uses_min_as_default_scale():
    rng = random.Random(1)
    dist = ParetoDistribution(shape=2.0, scale=3.0)
    samples = dist.sample_many(rng, 10000)
    estimate = fit_pareto_shape(samples)
    assert abs(estimate - 2.0) / 2.0 < 0.1


def test_fit_pareto_shape_validation():
    with pytest.raises(ValueError):
        fit_pareto_shape([])
    with pytest.raises(ValueError):
        fit_pareto_shape([1.0], scale=0.0)
    with pytest.raises(ValueError):
        fit_pareto_shape([1.0, 1.0], scale=1.0)  # no tail information


def test_online_estimator_returns_prior_until_warm():
    est = OnlineBetaEstimator(default_beta=1.7, min_samples=10)
    for _ in range(5):
        est.observe(2.0)
    assert est.beta == 1.7


def test_online_estimator_converges():
    # Reproduces the paper's claim that the error drops below ~5% early.
    est = OnlineBetaEstimator(default_beta=1.5, min_samples=20, refresh_every=1)
    rng = random.Random(2)
    dist = ParetoDistribution(shape=1.4, scale=1.0)
    for _ in range(5000):
        est.observe(dist.sample(rng))
    assert est.relative_error(1.4) < 0.05


def test_online_estimator_clamps():
    est = OnlineBetaEstimator(
        min_samples=5, clamp_range=(1.2, 1.8), refresh_every=1
    )
    for v in (1.0, 1.0001, 1.0002, 1.00005, 1.0001, 1.00007):
        est.observe(v)  # nearly constant: raw fit would explode
    assert 1.2 <= est.beta <= 1.8


def test_online_estimator_ignores_nonpositive():
    est = OnlineBetaEstimator()
    est.observe(-1.0)
    est.observe(0.0)
    assert est.num_observations == 0


def test_online_estimator_cache_refresh():
    est = OnlineBetaEstimator(min_samples=5, refresh_every=100)
    rng = random.Random(3)
    dist = ParetoDistribution(shape=1.5)
    for _ in range(50):
        est.observe(dist.sample(rng))
    first = est.beta
    # a handful more observations within refresh window: cached value
    for _ in range(10):
        est.observe(dist.sample(rng))
    assert est.beta == first


def test_online_estimator_validation():
    with pytest.raises(ValueError):
        OnlineBetaEstimator(default_beta=0.0)
    with pytest.raises(ValueError):
        OnlineBetaEstimator(min_samples=1)
    with pytest.raises(ValueError):
        OnlineBetaEstimator(window=5, min_samples=10)
    with pytest.raises(ValueError):
        OnlineBetaEstimator(clamp_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        OnlineBetaEstimator(refresh_every=0)


def test_online_estimator_ignores_non_finite():
    est = OnlineBetaEstimator(min_samples=5, refresh_every=1)
    clean = OnlineBetaEstimator(min_samples=5, refresh_every=1)
    rng = random.Random(4)
    dist = ParetoDistribution(shape=1.4)
    for duration in dist.sample_many(rng, 100):
        est.observe(duration)
        clean.observe(duration)
    before = (est.beta, est.num_observations)
    for bad in (math.nan, math.inf, -math.inf):
        est.observe(bad)
        assert (est.beta, est.num_observations) == before
    # Nothing was kept: later refits match an estimator that never saw them.
    for duration in dist.sample_many(rng, 10):
        est.observe(duration)
        clean.observe(duration)
        assert est.beta == clean.beta


# -- incremental refit vs the one-shot oracle -----------------------------------


def _full_fit(est, window_samples):
    """What the estimator must return: the clamped oracle fit of the window."""
    if len(window_samples) < est.min_samples:
        return est.default_beta
    lo, hi = est.clamp_range
    try:
        return min(hi, max(lo, fit_pareto_shape(window_samples)))
    except ValueError:
        return est.default_beta


def _assert_tracks_full_fit(stream, window, min_samples=20):
    est = OnlineBetaEstimator(min_samples=min_samples, window=window, refresh_every=1)
    recent = deque(maxlen=window)
    for duration in stream:
        est.observe(duration)
        recent.append(duration)
        assert est.beta == _full_fit(est, recent)


_DURATIONS = st.one_of(
    # the whole positive range: subnormal minima overflow d / xm to inf
    st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    # quantized durations: ties at (and evictions of) the window minimum
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    min_samples=st.integers(min_value=2, max_value=6),
    extra=st.integers(min_value=0, max_value=10),
    stream=st.lists(_DURATIONS, max_size=80),
)
def test_incremental_refit_equals_full_fit(min_samples, extra, stream):
    _assert_tracks_full_fit(stream, min_samples + extra, min_samples)


def test_incremental_refit_equals_full_fit_on_pareto_stream():
    rng = random.Random(5)
    dist = ParetoDistribution(shape=1.4, scale=1.0)
    _assert_tracks_full_fit(dist.sample_many(rng, 12_000), window=5000)


@pytest.mark.parametrize(
    "stream",
    [
        [3.0] * 40,  # all-equal window: no tail information
        [float(v) for v in range(60, 0, -1)],  # a new minimum every sample
        [float(v) for v in range(1, 61)],  # the minimum is evicted every step
        [1.0, 1.0, 2.0, 1.0, 4.0] * 12 + [5.0, 6.0] * 20,  # ties leave the window
    ],
    ids=["all-equal", "new-minima", "evicted-minima", "evicted-ties"],
)
def test_incremental_refit_equals_full_fit_edge_cases(stream):
    _assert_tracks_full_fit(stream, window=8, min_samples=4)


def test_terms_rebuilt_only_when_window_minimum_changes(monkeypatch):
    rebuilds = 0
    rebuild = OnlineBetaEstimator._rebuild_terms

    def counting_rebuild(self):
        nonlocal rebuilds
        rebuilds += 1
        rebuild(self)

    monkeypatch.setattr(OnlineBetaEstimator, "_rebuild_terms", counting_rebuild)
    est = OnlineBetaEstimator(window=5000, refresh_every=50)
    rng = random.Random(6)
    dist = ParetoDistribution(shape=1.4, scale=1.0)
    recent = deque(maxlen=5000)
    minimum_changes, minimum = 0, None
    for duration in dist.sample_many(rng, 20_000):
        est.observe(duration)
        est.beta  # refit on the simulators' cadence
        recent.append(duration)
        if min(recent) != minimum:
            minimum_changes += 1
            minimum = min(recent)
    assert 0 < rebuilds <= minimum_changes


# -- alpha ----------------------------------------------------------------------

def _recurring_job(job_id, output, name="etl"):
    return make_chain_job(
        job_id=job_id,
        arrival_time=0.0,
        phase_task_sizes=[[1.0] * 10, [1.0] * 4],
        phase_output_data=[output, 0.0],
        name=name,
    )


def test_alpha_estimator_predicts_from_history():
    est = AlphaEstimator()
    for i, output in enumerate((20.0, 22.0, 18.0)):
        est.observe_job(_recurring_job(i, output))
    assert est.predict_phase_output("etl", 0) == pytest.approx(20.0)


def test_alpha_estimator_returns_none_without_history():
    est = AlphaEstimator()
    assert est.predict_phase_output("unknown", 0) is None


def test_alpha_prediction_neutral_without_history():
    est = AlphaEstimator()
    job = _recurring_job(0, 20.0, name="never-seen")
    assert est.predict_alpha(job) == 1.0


def test_alpha_prediction_uses_history():
    est = AlphaEstimator()
    for i in range(3):
        est.observe_job(_recurring_job(i, 20.0))
    new_run = _recurring_job(9, 21.0)
    # upstream work 10, predicted downstream comm 20 -> alpha ~ 2
    assert est.predict_alpha(new_run) == pytest.approx(2.0)


def test_alpha_name_version_tracks_each_names_latest_observation():
    est = AlphaEstimator()
    assert est.name_version("etl") == 0
    est.observe_job(_recurring_job(0, 20.0))
    etl = est.name_version("etl")
    assert etl == est.history_version > 0
    est.observe_job(_recurring_job(1, 30.0, name="report"))
    # Another name's observation moves the history, not etl's version.
    assert est.name_version("etl") == etl < est.history_version
    assert est.name_version("report") == est.history_version
    assert est.name_version("never-seen") == 0


def test_alpha_prediction_depends_only_on_its_names_history():
    # The contract incremental callers rely on: another name's
    # observations leave a job's prediction exactly as it was.
    est = AlphaEstimator()
    est.observe_job(_recurring_job(0, 20.0))
    new_run = _recurring_job(9, 21.0)
    before = est.predict_alpha(new_run)
    est.observe_job(_recurring_job(1, 90.0, name="report"))
    assert est.predict_alpha(new_run) == before
    assert est.predict_alpha(_recurring_job(8, 5.0, name="other")) == 1.0


def test_alpha_accuracy_tracking():
    est = AlphaEstimator()
    est.observe_job(_recurring_job(0, 20.0))
    est.observe_job(_recurring_job(1, 20.0))  # perfect prediction
    assert est.accuracy == pytest.approx(1.0)
    est.observe_job(_recurring_job(2, 40.0))  # 50% error on this one
    assert 0.5 < est.accuracy < 1.0
    assert est.num_predictions_scored == 2


def test_alpha_estimator_ignores_anonymous_jobs():
    est = AlphaEstimator()
    est.observe_phase_output("", 0, 50.0)
    assert est.predict_phase_output("", 0) is None


def test_alpha_estimator_validation():
    with pytest.raises(ValueError):
        AlphaEstimator(network_rate=0.0)
    est = AlphaEstimator()
    with pytest.raises(ValueError):
        est.observe_phase_output("x", 0, -1.0)


def test_alpha_network_rate_scales_prediction():
    est = AlphaEstimator(network_rate=2.0)
    for i in range(2):
        est.observe_job(_recurring_job(i, 20.0))
    assert est.predict_alpha(_recurring_job(5, 20.0)) == pytest.approx(1.0)
