"""Tests for the open-loop serving regime (:mod:`repro.serving`).

Covers the arrival-process family and rho calibration, the lazy job
stream, the windowed steady-state aggregator (against a brute-force
percentile reference and on its truncation boundaries), the schema-3
serialization differential (batch documents must stay byte-identical),
the bounded-state fixes in the alpha estimator, and end-to-end serving
runs on both scheduler planes.
"""

import json
import random

import pytest

from repro.estimation.alpha import AlphaEstimator
from repro.experiments.harness import WorkloadSpec
from repro.metrics.analysis import percentile
from repro.metrics.serialize import (
    dumps_result,
    loads_result,
    result_to_dict,
)
from repro.serving import (
    ARRIVAL_PROCESSES,
    HeavyTailSizeModifier,
    JobStream,
    ServingRegime,
    WindowedAggregator,
    calibrate_arrival_rate,
    estimate_mean_job_work,
    make_arrival_process,
    run_serving,
)
from repro.simulation.rng import RandomSource
from repro.sweep import RunSpec, WorkloadParams
from repro.workload.generator import TraceGenerator, profile_by_name


def _generator(seed: int = 42) -> TraceGenerator:
    return TraceGenerator(
        profile_by_name("spark-facebook"), random_source=RandomSource(seed=seed)
    )


# --------------------------------------------------------------------------
# Arrival processes and calibration
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["poisson", "diurnal", "bursty"])
def test_arrival_processes_hold_the_long_run_mean_rate(name):
    rate = 5.0
    process = make_arrival_process(name, rate, random.Random(11))
    # Long horizon: the MMPP needs many calm/burst cycles to average out.
    horizon, now, count = 20000.0, 0.0, 0
    while True:
        now += process.next_interarrival(now)
        if now >= horizon:
            break
        count += 1
    assert count / horizon == pytest.approx(rate, rel=0.1)


@pytest.mark.parametrize("name", ["poisson", "diurnal", "bursty"])
def test_arrival_processes_are_deterministic_per_seed(name):
    def gaps(seed):
        process = make_arrival_process(name, 3.0, random.Random(seed))
        out, now = [], 0.0
        for _ in range(50):
            gap = process.next_interarrival(now)
            out.append(gap)
            now += gap
        return out

    assert gaps(7) == gaps(7)
    assert gaps(7) != gaps(8)


def test_arrival_process_registry_lists_all_families():
    assert set(ARRIVAL_PROCESSES.names()) >= {"poisson", "diurnal", "bursty"}


def test_arrival_process_parameter_validation():
    with pytest.raises(ValueError):
        make_arrival_process("poisson", 0.0, random.Random(1))
    with pytest.raises(ValueError):
        make_arrival_process("diurnal", 1.0, random.Random(1), amplitude=1.0)
    with pytest.raises(ValueError):
        make_arrival_process("bursty", 1.0, random.Random(1), burst_factor=0.5)


def test_calibrate_arrival_rate_matches_the_rho_formula():
    generator = _generator()
    mean_work = estimate_mean_job_work(generator)
    rate = calibrate_arrival_rate(generator, 160, 0.9)
    assert rate == pytest.approx(0.9 * 160 / mean_work)
    # A heavy-tail multiplier with mean 2 halves the calibrated rate so
    # the *offered* rho stays at the target.
    assert calibrate_arrival_rate(
        generator, 160, 0.9, size_multiplier_mean=2.0
    ) == pytest.approx(rate / 2)


def test_heavy_tail_modifier_scales_whole_jobs():
    job = _generator(seed=5).next_job(0.0)
    before = [phase.remaining_work() for phase in job.phases]
    modifier = HeavyTailSizeModifier(2.0, random.Random(9))
    assert modifier.mean_multiplier == pytest.approx(2.0)
    multiplier = modifier.scale_job(job)
    assert multiplier >= 1.0
    for phase, old in zip(job.phases, before):
        assert phase.remaining_work() == pytest.approx(old * multiplier)
    with pytest.raises(ValueError):
        HeavyTailSizeModifier(1.0, random.Random(9))


def test_job_stream_respects_cap_horizon_and_order():
    stream = JobStream(
        _generator(seed=3),
        make_arrival_process("poisson", 2.0, random.Random(7)),
        horizon=30.0,
        max_jobs=10,
    )
    jobs = list(stream)
    assert 0 < len(jobs) <= 10
    times = [job.arrival_time for job in jobs]
    assert all(t < 30.0 for t in times)
    assert times == sorted(times)


# --------------------------------------------------------------------------
# Windowed aggregator
# --------------------------------------------------------------------------

def test_windowed_percentiles_match_bruteforce_reference():
    regime = ServingRegime(warmup=10.0, horizon=110.0, cooldown=5.0, window=20.0)
    aggregator = WindowedAggregator(regime)
    rng = random.Random(3)
    records = []
    for job_id in range(400):
        arrival = rng.uniform(0.0, 112.0)
        launch = arrival + rng.uniform(0.0, 3.0)
        finish = launch + rng.uniform(0.5, 25.0)
        aggregator.note_launch(job_id, launch)
        aggregator.on_completion(job_id, arrival, finish)
        records.append((arrival, launch, finish))
    doc = aggregator.finalize()

    n = regime.num_windows
    jct = [[] for _ in range(n)]
    qdelay = [[] for _ in range(n)]
    dropped_warmup = dropped_cooldown = 0
    for arrival, launch, finish in records:
        if finish < regime.warmup:
            dropped_warmup += 1
            continue
        if finish >= regime.horizon:
            dropped_cooldown += 1
            continue
        index = min(int((finish - regime.warmup) / regime.window), n - 1)
        jct[index].append(finish - arrival)
        qdelay[index].append(launch - arrival)

    assert doc["dropped_warmup"] == dropped_warmup
    assert doc["dropped_cooldown"] == dropped_cooldown
    assert doc["measured_jobs"] == sum(len(w) for w in jct)
    assert len(doc["windows"]) == n
    quantiles = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
    for index, row in enumerate(doc["windows"]):
        assert row["completions"] == len(jct[index])
        for values, prefix in ((jct[index], "jct"), (qdelay[index], "queueing")):
            for label, q in quantiles:
                got = row[f"{prefix}_{label}"]
                if not values:
                    assert got is None
                else:
                    assert got == pytest.approx(percentile(values, q))
    all_jct = [v for window in jct for v in window]
    for label, q in quantiles:
        assert doc["overall"][f"jct_{label}"] == pytest.approx(
            percentile(all_jct, q)
        )


def test_warmup_and_horizon_truncation_boundaries():
    regime = ServingRegime(warmup=10.0, horizon=50.0, cooldown=10.0, window=10.0)
    assert regime.num_windows == 4
    # Half-open measurement interval [warmup, horizon).
    assert regime.window_index(10.0) == 0
    assert regime.window_index(10.0 - 1e-9) is None
    assert regime.window_index(50.0) is None
    assert regime.window_index(50.0 - 1e-9) == 3

    aggregator = WindowedAggregator(regime)
    aggregator.on_completion(1, 0.0, 9.0)  # warm-up transient
    aggregator.on_completion(2, 0.0, 10.0)  # first measured instant
    aggregator.on_completion(3, 0.0, 50.0)  # horizon itself: cool-down
    aggregator.on_completion(4, 0.0, 60.0)  # drain
    doc = aggregator.finalize()
    assert doc["dropped_warmup"] == 1
    assert doc["dropped_cooldown"] == 2
    assert doc["measured_jobs"] == 1
    assert doc["windows"][0]["completions"] == 1


def test_aggregator_launch_state_is_dropped_on_completion():
    regime = ServingRegime(warmup=0.0, horizon=100.0, cooldown=0.0, window=50.0)
    aggregator = WindowedAggregator(regime)
    for job_id in range(200):
        aggregator.note_launch(job_id, float(job_id))
        aggregator.on_completion(job_id, float(job_id), float(job_id) + 0.5)
    assert not aggregator._first_launch


def test_time_average_samples_report_means():
    regime = ServingRegime(warmup=0.0, horizon=10.0, cooldown=0.0, window=5.0)
    aggregator = WindowedAggregator(regime)
    aggregator.sample(10, 5, 10)
    aggregator.sample(20, 10, 10)
    overall = aggregator.finalize()["overall"]
    assert overall["mean_pending_tasks"] == pytest.approx(15.0)
    assert overall["mean_utilization"] == pytest.approx(0.75)
    assert overall["samples"] == 2


def test_regime_validation():
    with pytest.raises(ValueError):
        ServingRegime(warmup=-1.0)
    with pytest.raises(ValueError):
        ServingRegime(warmup=50.0, horizon=50.0)
    with pytest.raises(ValueError):
        ServingRegime(window=0.0)


# --------------------------------------------------------------------------
# Serialization differential (batch documents must not move)
# --------------------------------------------------------------------------

def _tiny_batch_result():
    spec = RunSpec(
        "decentralized",
        "hopper",
        WorkloadParams(
            profile="facebook",
            num_jobs=8,
            utilization=0.6,
            total_slots=40,
            seed=3,
        ),
    )
    return spec.execute()


def test_batch_documents_stay_byte_identical_without_serving():
    result = _tiny_batch_result()
    doc = result_to_dict(result)
    assert doc["schema_version"] == 1
    assert "serving" not in doc
    before = json.dumps(doc, sort_keys=True)

    section = {"overall": {"jct_p99": 1.0}, "measured_jobs": 1}
    result.serving = section
    bumped = result_to_dict(result)
    assert bumped["schema_version"] == 3
    assert bumped["serving"] == section

    result.serving = None
    after = json.dumps(result_to_dict(result), sort_keys=True)
    assert after == before


def test_serving_section_round_trips():
    result = _tiny_batch_result()
    result.serving = {"overall": {"jct_p99": 2.5}, "windows": []}
    restored = loads_result(dumps_result(result))
    assert restored.serving == result.serving
    # And the scalar fields still round-trip alongside the section.
    assert restored.num_jobs == result.num_jobs


# --------------------------------------------------------------------------
# Alpha-estimator bounded state (the sustained-arrivals bugfix)
# --------------------------------------------------------------------------

def test_alpha_cache_entry_is_dropped_on_job_completion():
    estimator = AlphaEstimator()
    job = _generator(seed=2).next_job(0.0)
    estimator.predict_alpha(job)
    assert job.job_id in estimator._alpha_cache
    estimator.drop_job(job.job_id)
    assert not estimator._alpha_cache
    estimator.drop_job(job.job_id)  # idempotent


def test_alpha_accuracy_running_stats():
    estimator = AlphaEstimator()
    assert estimator.accuracy == 0.0
    estimator.observe_phase_output("periodic", 0, 100.0)  # no prior: unscored
    estimator.observe_phase_output("periodic", 0, 100.0)  # exact repeat
    assert estimator.num_predictions_scored == 1
    assert estimator.accuracy == pytest.approx(1.0)
    estimator.observe_phase_output("periodic", 0, 50.0)  # predicted 100
    assert estimator.num_predictions_scored == 2
    assert estimator.accuracy == pytest.approx(0.5)


# --------------------------------------------------------------------------
# End-to-end serving runs
# --------------------------------------------------------------------------

def _serving_spec(total_slots: int = 80, rho: float = 0.8) -> WorkloadSpec:
    return WorkloadSpec(
        profile=profile_by_name("spark-facebook"),
        num_jobs=500,
        utilization=rho,
        total_slots=total_slots,
        seed=11,
    )


@pytest.mark.parametrize("plane", ["decentralized", "centralized"])
def test_run_serving_smoke_and_determinism(plane):
    regime = ServingRegime(warmup=5.0, horizon=45.0, cooldown=10.0, window=10.0)
    result = run_serving(_serving_spec(), plane, "hopper", regime, obs=None)
    serving = result.serving
    assert serving is not None
    assert serving["measured_jobs"] > 0
    assert len(serving["windows"]) == regime.num_windows == 4
    assert serving["overall"]["jct_p99"] is not None
    assert 0.0 < serving["overall"]["mean_utilization"] <= 1.0
    assert serving["regime"]["plane"] == plane
    assert serving["regime"]["jobs_offered"] >= serving["measured_jobs"]
    assert result_to_dict(result)["schema_version"] == 3

    again = run_serving(_serving_spec(), plane, "hopper", regime, obs=None)
    assert dumps_result(again, sort_keys=True) == dumps_result(
        result, sort_keys=True
    )


def test_run_serving_rejects_unknown_plane():
    with pytest.raises(ValueError):
        run_serving(
            _serving_spec(), "galactic", "hopper", ServingRegime(), obs=None
        )


def test_serving_run_spec_executes_through_the_registry():
    spec = RunSpec(
        "serving",
        "hopper-c",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=300,
            utilization=0.75,
            total_slots=60,
            seed=4,
        ),
        knobs={
            "warmup": 5.0,
            "horizon": 35.0,
            "cooldown": 10.0,
            "window": 10.0,
        },
    )
    result = spec.execute()
    assert result.serving is not None
    assert result.serving["regime"]["plane"] == "centralized"
    assert result.serving["measured_jobs"] > 0


def test_serving_spec_runs_int_float_knobs_as_floats():
    """A float knob spelled as an int gives the same result document."""
    workload = WorkloadParams(
        profile="spark-facebook", num_jobs=40, total_slots=20, seed=4
    )
    as_ints = {"warmup": 5, "horizon": 30, "cooldown": 5, "window": 5,
               "heavy_tail": 2}
    results = [
        result_to_dict(
            RunSpec("serving", "hopper", workload, knobs=knobs).execute()
        )
        for knobs in (as_ints, {k: float(v) for k, v in as_ints.items()})
    ]
    assert json.dumps(results[0]) == json.dumps(results[1])


def test_heavy_tail_knob_reaches_the_stream():
    spec = RunSpec(
        "serving",
        "hopper",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=300,
            utilization=0.7,
            total_slots=60,
            seed=4,
        ),
        knobs={
            "warmup": 5.0,
            "horizon": 35.0,
            "cooldown": 10.0,
            "window": 10.0,
            "heavy_tail": 2.5,
        },
    )
    result = spec.execute()
    assert result.serving["regime"]["heavy_tail"] == 2.5
    # The calibrator divides the Pareto mean multiplier back out, so the
    # heavy-tailed stream offers fewer (bigger) jobs per second.
    assert result.serving["regime"]["arrival_rate"] > 0
