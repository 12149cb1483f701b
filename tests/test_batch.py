"""Batch plane: periodic rounds, the round_interval knob, and the
plane-agnostic ``build_simulator``/``run_simulator`` entry points."""

import json

import pytest

from repro import registry
from repro.batch import BatchSimulator
from repro.experiments.harness import (
    WorkloadSpec,
    build_batch_simulator,
    build_simulator,
    build_trace,
    run_simulator,
)
from repro.metrics.serialize import result_to_dict
from repro.sweep import RunSpec, WorkloadParams


SPEC = WorkloadSpec(num_jobs=12, utilization=0.6, total_slots=60, seed=5)


def _durations(result):
    return {rec.job_id: rec.duration for rec in result.jobs}


def test_batch_run_completes_every_job():
    result = run_simulator(
        "hopper", build_trace(SPEC), SPEC, plane="batch", round_interval=0.5
    )
    assert result.num_jobs == SPEC.num_jobs
    assert result.scheduler_name == "batch-hopper"
    assert result.mean_job_duration > 0.0


def test_batch_rejects_negative_round_interval():
    with pytest.raises(ValueError, match="round_interval"):
        build_batch_simulator(
            build_trace(SPEC), "hopper", SPEC, round_interval=-1.0
        )
    with pytest.raises(ValueError, match="round_interval"):
        RunSpec(
            "batch",
            "hopper",
            WorkloadParams(profile="spark-facebook", num_jobs=5),
            knobs={"round_interval": -1.0},
        )


def test_longer_rounds_do_not_speed_up_jobs():
    """Buffering delay is additive: a coarser round interval cannot make
    mean JCT better than a fine one on the same trace."""
    fine = run_simulator(
        "hopper", build_trace(SPEC), SPEC, plane="batch", round_interval=0.25
    )
    coarse = run_simulator(
        "hopper", build_trace(SPEC), SPEC, plane="batch", round_interval=4.0
    )
    assert coarse.mean_job_duration >= fine.mean_job_duration


def test_zero_round_interval_converges_to_centralized_schedule():
    """The tentpole property: at ``round_interval=0`` every round fires
    immediately after the event that armed it, so the batch plane must
    reproduce the per-arrival centralized schedule *exactly* (same
    entropy stream, same per-job durations) once stragglers and
    speculation are off."""
    kwargs = dict(straggler_model="none", speculation="none")
    batch = run_simulator(
        "batch/hopper", build_trace(SPEC), SPEC, round_interval=0.0, **kwargs
    )
    central = run_simulator("centralized/hopper", build_trace(SPEC), SPEC, **kwargs)
    assert _durations(batch) == _durations(central)


def test_batch_runspec_kind_executes_through_registry():
    spec = RunSpec(
        "batch",
        "srpt",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=8,
            utilization=0.6,
            total_slots=40,
            seed=3,
        ),
        knobs={"round_interval": 1.0},
    )
    result = spec.execute()
    assert result.num_jobs == 8
    assert result.scheduler_name == "batch-srpt"


def test_build_simulator_dispatches_by_plane():
    batch = build_simulator(
        "batch/hopper", build_trace(SPEC), SPEC, round_interval=0.5
    )
    assert isinstance(batch, BatchSimulator)
    central = build_simulator(
        "hopper", build_trace(SPEC), SPEC, plane="centralized"
    )
    assert type(central).__name__ == "CentralizedSimulator"
    decentralized = build_simulator("sparrow", build_trace(SPEC), SPEC)
    assert type(decentralized).__name__ == "DecentralizedSimulator"


def test_build_simulator_rejects_planes_without_builders():
    with pytest.raises(ValueError, match="plane"):
        build_simulator("serving/hopper", build_trace(SPEC), SPEC)


def test_run_simulator_until_stops_early_on_every_plane():
    for system, plane in (
        ("hopper", "centralized"),
        ("hopper", "decentralized"),
        ("hopper", "batch"),
    ):
        full = run_simulator(system, build_trace(SPEC), SPEC, plane=plane)
        cut = run_simulator(
            system, build_trace(SPEC), SPEC, plane=plane, until=1.0
        )
        assert cut.num_jobs < full.num_jobs


def test_sparrow_late_binding_end_to_end():
    lb = run_simulator("sparrow-lb", build_trace(SPEC), SPEC)
    eager = run_simulator("sparrow", build_trace(SPEC), SPEC)
    assert lb.num_jobs == SPEC.num_jobs
    # Late binding adds a reserve/pull round-trip per launched task.
    assert lb.messages_sent > eager.messages_sent


def test_sparrow_power_of_two_end_to_end():
    result = run_simulator("sparrow-po2", build_trace(SPEC), SPEC)
    assert result.num_jobs == SPEC.num_jobs


def _payload(result):
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )


def test_power_of_d_one_is_byte_identical():
    """Differential: ``power_of_d=1`` is a real knob (new cache key) but
    must keep the exact ``rng.sample`` path — results byte-identical to
    the knob-free run."""
    workload = WorkloadParams(
        profile="spark-facebook",
        num_jobs=10,
        utilization=0.6,
        total_slots=40,
        seed=5,
    )
    bare = RunSpec("decentralized", "sparrow", workload)
    with_one = RunSpec(
        "decentralized", "sparrow", workload, knobs={"power_of_d": 1}
    )
    assert bare.digest() != with_one.digest()
    assert _payload(bare.execute()) == _payload(with_one.execute())


def test_power_of_d_rejects_non_positive():
    with pytest.raises(ValueError, match="power_of_d"):
        RunSpec(
            "decentralized",
            "sparrow",
            WorkloadParams(profile="spark-facebook", num_jobs=5),
            knobs={"power_of_d": 0},
        )


def test_batch_registry_lists_all_centralized_policies():
    batch = registry.SYSTEMS.entries("batch")
    assert {entry.name for entry in batch} == {"fair", "srpt", "hopper"}
