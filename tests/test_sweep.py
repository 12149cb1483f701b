"""Tests for the sweep subsystem: RunSpec digests, result serialization,
the on-disk cache, and parallel-vs-serial equivalence."""

import json

import pytest

from repro.experiments.harness import build_trace, run_simulator
from repro.metrics.collector import JobRecord, SimulationResult
from repro.metrics.serialize import (
    dumps_result,
    loads_result,
    result_from_dict,
    result_to_dict,
)
from repro.sweep import ResultCache, RunSpec, SweepRunner, WorkloadParams
from repro.sweep.runner import evaluate, set_default_runner


TINY = WorkloadParams(
    profile="spark-facebook",
    num_jobs=10,
    utilization=0.6,
    total_slots=40,
    max_phase_tasks=20,
)


def _tiny_grid():
    return [
        RunSpec("decentralized", "hopper", TINY),
        RunSpec("decentralized", "sparrow-srpt", TINY),
        RunSpec("centralized", "srpt", TINY),
        RunSpec(
            "decentralized",
            "hopper",
            TINY,
            knobs={"probe_ratio": 2.0},
        ),
    ]


# -- RunSpec ----------------------------------------------------------------


def test_digest_is_stable_across_constructions():
    a = RunSpec("decentralized", "hopper", TINY, knobs={"epsilon": 0.2})
    b = RunSpec(
        "decentralized",
        "hopper",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=10,
            utilization=0.6,
            total_slots=40,
            max_phase_tasks=20,
        ),
        knobs={"epsilon": 0.2},
    )
    assert a.digest() == b.digest()
    assert a == b


def test_digest_ignores_knob_order():
    a = RunSpec(
        "decentralized",
        "hopper",
        TINY,
        knobs={"probe_ratio": 4.0, "epsilon": 0.1},
    )
    b = RunSpec(
        "decentralized",
        "hopper",
        TINY,
        knobs={"epsilon": 0.1, "probe_ratio": 4.0},
    )
    assert a.digest() == b.digest()


def test_digest_changes_with_any_field():
    base = RunSpec("decentralized", "hopper", TINY)
    variants = [
        RunSpec("decentralized", "sparrow", TINY),
        RunSpec("centralized", "hopper", TINY),
        RunSpec("decentralized", "hopper", TINY, run_seed=8),
        RunSpec("decentralized", "hopper", TINY, speculation="mantri"),
        RunSpec(
            "decentralized", "hopper", TINY, knobs={"probe_ratio": 6.0}
        ),
        RunSpec(
            "decentralized",
            "hopper",
            WorkloadParams(
                profile="spark-facebook",
                num_jobs=10,
                utilization=0.6,
                total_slots=40,
                max_phase_tasks=20,
                seed=43,
            ),
        ),
    ]
    digests = {spec.digest() for spec in variants}
    assert base.digest() not in digests
    assert len(digests) == len(variants)


def test_digest_golden_value():
    """The digest is content-addressed storage; changing the canonical
    form silently invalidates every existing cache. Keep it pinned."""
    spec = RunSpec("decentralized", "hopper", TINY)
    assert spec.digest() == (
        "d3d3be63e3a04028e4609f195579c37d"
        "0a8fba17c7b5059505c8c5c54cd37e42"
    )


#: Digests computed on the pre-registry implementation (PR 1). The
#: registry migration must leave every one of them byte-identical, or
#: every existing on-disk cache entry silently becomes unreachable.
GOLDEN_PRE_REGISTRY_DIGESTS = {
    "decentralized/hopper/defaults": (
        RunSpec("decentralized", "hopper", WorkloadParams()),
        "0871e3031296b0e48004b9e031a9610fc11aaa43cf88e74ff08abaaa1a4065a7",
    ),
    "centralized/srpt/fig12-shape": (
        RunSpec(
            "centralized",
            "srpt",
            WorkloadParams(
                profile="facebook",
                num_jobs=200,
                utilization=0.7,
                total_slots=200,
                max_phase_tasks=300,
            ),
        ),
        "2e08174361e0f8ae52037ae08313adaa9f801a5d3b3232696a7e2a049d6636cd",
    ),
    "centralized/hopper/locality-knobs": (
        RunSpec(
            "centralized",
            "hopper",
            WorkloadParams(
                profile="facebook",
                num_jobs=150,
                utilization=0.7,
                total_slots=200,
                max_phase_tasks=200,
                locality_machines=50,
            ),
            knobs={"with_locality": True, "locality_k_percent": 3.0},
        ),
        "8f0f9022cb2d0abc453c73e3ee6555502451a7c3aeff9e701078f50cd0f991be",
    ),
    "decentralized/sparrow/probe-knob": (
        RunSpec(
            "decentralized",
            "sparrow",
            WorkloadParams(
                profile="spark-facebook",
                num_jobs=120,
                utilization=0.8,
                total_slots=300,
            ),
            knobs={"probe_ratio": 2.0},
        ),
        "1370fd4d69dcb7d468a93a406622417822bc2246e34a90a25e0f2ea00a617267",
    ),
    "decentralized/sparrow-srpt/grass": (
        RunSpec(
            "decentralized",
            "sparrow-srpt",
            WorkloadParams(
                profile="spark-bing",
                num_jobs=150,
                utilization=0.6,
                total_slots=400,
            ),
            speculation="grass",
            run_seed=11,
        ),
        "4764c6d73b767fcd95cb3adf7cfab988e6b34bc01a240dff9646907822cd278f",
    ),
    "decentralized/hopper/many-knobs": (
        RunSpec(
            "decentralized",
            "hopper",
            WorkloadParams(
                profile="bing",
                num_jobs=10,
                utilization=0.6,
                total_slots=40,
                max_phase_tasks=20,
            ),
            knobs={
                "epsilon": 0.1,
                "refusal_threshold": 3,
                "num_schedulers": 5,
                "until": 500.0,
            },
        ),
        "e54a50a112b457b64a4db8ff432c372d488ecc57cefc1b28e22a05928354f6cd",
    ),
    "centralized/fair/speculation-mode": (
        RunSpec(
            "centralized",
            "fair",
            WorkloadParams(),
            speculation="none",
            knobs={"speculation_mode": "best_effort", "slots_per_machine": 2},
        ),
        "872cf5a1ed506b9a5a8aa340c9e4df1cd78b5492feb57130653e1742fbfba0c5",
    ),
}


@pytest.mark.parametrize(
    "label", sorted(GOLDEN_PRE_REGISTRY_DIGESTS)
)
def test_pre_registry_digests_survive_the_registry_migration(label):
    spec, expected = GOLDEN_PRE_REGISTRY_DIGESTS[label]
    assert spec.digest() == expected


def test_single_job_digest_golden_value():
    """The new single_job kind's canonical form is cache-keying too —
    pin it the day it is born."""
    spec = RunSpec(
        "single_job",
        "hopper",
        WorkloadParams(
            profile="facebook",
            num_jobs=1,
            utilization=0.5,
            total_slots=1,
            seed=11,
            max_phase_tasks=None,
        ),
        knobs={"beta": 1.4, "num_tasks": 200, "normalized_slots": 1.0},
        run_seed=0,
    )
    assert spec.digest() == (
        "dc8ce770642823eec77d94e9733fd7a399c70284976e4dca2a26ddb589e4210d"
    )


def test_spec_dict_round_trip():
    spec = RunSpec(
        "centralized",
        "hopper",
        TINY,
        speculation="grass",
        run_seed=11,
        knobs={"with_locality": True, "locality_k_percent": 5.0},
    )
    restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert restored.digest() == spec.digest()


def test_spec_validation():
    with pytest.raises(ValueError):
        RunSpec("bogus", "hopper", TINY)
    with pytest.raises(ValueError):
        RunSpec("centralized", "sparrow", TINY)  # decentralized-only
    with pytest.raises(ValueError):
        RunSpec("decentralized", "hopper", TINY, knobs={"bogus": 1})
    with pytest.raises(ValueError):
        RunSpec(
            "decentralized", "hopper", TINY, knobs={"probe_ratio": [4.0]}
        )
    with pytest.raises(ValueError):
        WorkloadParams(profile="no-such-profile")


def test_from_dict_rejects_unknown_spec_keys():
    doc = RunSpec("decentralized", "hopper", TINY).to_dict()
    doc["bogus_field"] = 1
    with pytest.raises(ValueError) as excinfo:
        RunSpec.from_dict(doc)
    message = str(excinfo.value)
    assert "bogus_field" in message and "RunSpec" in message


def test_from_dict_rejects_unknown_workload_keys():
    doc = RunSpec("decentralized", "hopper", TINY).to_dict()
    doc["workload"]["bogus_workload_field"] = 7
    with pytest.raises(ValueError) as excinfo:
        RunSpec.from_dict(doc)
    message = str(excinfo.value)
    assert "bogus_workload_field" in message
    assert "WorkloadParams" in message


def test_workload_params_from_dict_strict_and_round_trips():
    params = WorkloadParams.from_dict(TINY.to_dict())
    assert params == TINY
    with pytest.raises(ValueError):
        WorkloadParams.from_dict({**TINY.to_dict(), "stale_key": 0})


def test_execute_matches_direct_harness_call():
    spec = RunSpec("centralized", "srpt", TINY)
    via_spec = spec.execute()
    wspec = TINY.to_workload_spec()
    direct = run_simulator("centralized/srpt", build_trace(wspec), wspec)
    assert via_spec == direct


# -- SimulationResult serialization ----------------------------------------


def _sample_result():
    return SimulationResult(
        scheduler_name="test",
        jobs=[
            JobRecord(
                job_id=1,
                name="a",
                num_tasks=4,
                dag_length=2,
                arrival_time=0.5,
                finish_time=3.25,
            ),
            JobRecord(
                job_id=2,
                name="",
                num_tasks=1,
                dag_length=1,
                arrival_time=1.0,
                finish_time=2.0,
            ),
        ],
        total_copies=7,
        speculative_copies=3,
        speculative_wins=1,
        killed_copies=2,
        wasted_slot_time=1.5,
        useful_slot_time=9.0,
        local_copies=4,
        remote_copies=3,
        messages_sent=120,
        guideline2_decisions=5,
        guideline3_decisions=8,
    )


def test_result_json_round_trip():
    result = _sample_result()
    restored = loads_result(dumps_result(result))
    assert restored == result
    assert restored.jobs[0].duration == result.jobs[0].duration
    assert restored.mean_job_duration == result.mean_job_duration


def test_result_from_dict_rejects_bad_schema():
    doc = result_to_dict(_sample_result())
    doc["schema_version"] = 999
    with pytest.raises(ValueError):
        result_from_dict(doc)


def test_result_from_dict_tolerates_unknown_fields():
    doc = result_to_dict(_sample_result())
    doc["some_future_counter"] = 5
    assert result_from_dict(doc) == _sample_result()


# -- cache ------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(root=tmp_path)
    spec = RunSpec("decentralized", "hopper", TINY)
    assert cache.get(spec) is None
    result = spec.execute()
    cache.put(spec, result)
    assert cache.get(spec) == result
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.entry_count() == 1


def test_cache_is_keyed_by_version_tag(tmp_path):
    spec = RunSpec("decentralized", "hopper", TINY)
    result = spec.execute()
    ResultCache(root=tmp_path, version_tag="v1").put(spec, result)
    assert ResultCache(root=tmp_path, version_tag="v2").get(spec) is None


def test_cache_entry_misses_under_another_code_fingerprint(
    tmp_path, monkeypatch
):
    """A result cached by one version of the code is stale for another:
    the default namespace carries a fingerprint of the package source."""
    from repro.sweep import cache as cache_module

    spec = RunSpec("decentralized", "hopper", TINY)
    result = spec.execute()
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "a" * 64)
    old = ResultCache(root=tmp_path)
    old.put(spec, result)
    assert old.get(spec) == result
    monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "b" * 64)
    new = ResultCache(root=tmp_path)
    assert new.version_tag != old.version_tag
    assert new.get(spec) is None
    assert [row["current"] for row in new.stats()] == [False]
    assert new.prune()[0] == 1
    assert not old.directory.exists()


def test_code_fingerprint_moves_with_a_one_byte_source_edit(tmp_path):
    import shutil
    from pathlib import Path

    import repro
    from repro.sweep.cache import code_fingerprint

    copy = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent,
        copy,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    assert code_fingerprint(copy) == code_fingerprint()
    target = copy / "core" / "virtual_size.py"
    target.write_bytes(target.read_bytes() + b" ")
    assert code_fingerprint.__wrapped__(copy) != code_fingerprint()


def test_cache_discards_corrupt_entries(tmp_path):
    cache = ResultCache(root=tmp_path)
    spec = RunSpec("decentralized", "hopper", TINY)
    cache.put(spec, spec.execute())
    cache.path_for(spec).write_text("{not json", encoding="utf-8")
    assert cache.get(spec) is None
    assert not cache.path_for(spec).exists()


def test_cache_clear(tmp_path):
    cache = ResultCache(root=tmp_path)
    spec = RunSpec("decentralized", "hopper", TINY)
    cache.put(spec, spec.execute())
    assert cache.clear() == 1
    assert cache.entry_count() == 0


def _populate(cache: ResultCache, spec: RunSpec, result) -> None:
    cache.put(spec, result)


def test_cache_stats_reports_per_version_rows(tmp_path):
    spec = RunSpec("decentralized", "hopper", TINY)
    result = spec.execute()
    current = ResultCache(root=tmp_path, version_tag="v2")
    stale = ResultCache(root=tmp_path, version_tag="v1")
    _populate(current, spec, result)
    _populate(stale, spec, result)
    rows = current.stats()
    assert [row["version_tag"] for row in rows] == ["v1", "v2"]
    assert all(row["entries"] == 1 for row in rows)
    assert all(row["bytes"] > 0 for row in rows)
    assert [row["current"] for row in rows] == [False, True]
    assert ResultCache(root=tmp_path / "missing").stats() == []


def test_cache_prune_removes_stale_version_namespaces(tmp_path):
    spec = RunSpec("decentralized", "hopper", TINY)
    result = spec.execute()
    current = ResultCache(root=tmp_path, version_tag="v2")
    stale = ResultCache(root=tmp_path, version_tag="v1")
    _populate(current, spec, result)
    _populate(stale, spec, result)
    removed, freed = current.prune()
    assert removed == 1 and freed > 0
    # The stale namespace directory is gone; the current entry survives.
    assert not (tmp_path / "v1").exists()
    assert current.get(spec) == result


def test_cache_prune_older_than_uses_mtimes(tmp_path):
    import os as _os

    cache = ResultCache(root=tmp_path, version_tag="v1")
    old_spec = RunSpec("decentralized", "hopper", TINY)
    new_spec = RunSpec("decentralized", "sparrow-srpt", TINY)
    _populate(cache, old_spec, old_spec.execute())
    _populate(cache, new_spec, new_spec.execute())
    two_days_ago = 1_000_000_000.0
    _os.utime(cache.path_for(old_spec), (two_days_ago, two_days_ago))
    removed, freed = cache.prune(
        older_than_days=1.0, now=two_days_ago + 2 * 86400.0
    )
    assert removed == 1 and freed > 0
    assert cache.get(old_spec) is None
    assert cache.get(new_spec) is not None


def test_cache_prune_rejects_negative_age(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(root=tmp_path).prune(older_than_days=-1)


# -- runner -----------------------------------------------------------------


def test_runner_preserves_order_and_dedups():
    runner = SweepRunner(parallel=False)
    specs = _tiny_grid()
    results = runner.run([specs[0], specs[1], specs[0]])
    assert results[0] == results[2]
    assert results[0].scheduler_name != results[1].scheduler_name
    assert runner.stats.requested == 3
    assert runner.stats.executed == 2
    assert runner.stats.deduplicated == 1


def test_runner_second_pass_is_all_cache_hits(tmp_path):
    specs = _tiny_grid()
    first_runner = SweepRunner(
        parallel=False, cache=ResultCache(root=tmp_path)
    )
    first = first_runner.run(specs)
    assert first_runner.stats.cache_hits == 0

    second_runner = SweepRunner(
        parallel=False, cache=ResultCache(root=tmp_path)
    )
    second = second_runner.run(specs)
    assert second == first
    assert second_runner.stats.executed == 0
    assert second_runner.stats.cache_hits == len(specs)


def test_parallel_and_serial_results_are_identical():
    specs = _tiny_grid()
    serial = SweepRunner(parallel=False).run(specs)
    parallel_runner = SweepRunner(parallel=True, max_workers=2)
    parallel = parallel_runner.run(specs)
    assert parallel == serial
    # Compare the canonical serialized form too (belt and braces).
    assert [result_to_dict(r) for r in parallel] == [
        result_to_dict(r) for r in serial
    ]


def test_figure_function_accepts_explicit_runner(tmp_path):
    from repro.experiments.figures import fig7_job_bins

    runner = SweepRunner(parallel=False, cache=ResultCache(root=tmp_path))
    kwargs = dict(num_jobs=15, total_slots=50)
    first = fig7_job_bins(runner=runner, **kwargs)
    second = fig7_job_bins(runner=runner, **kwargs)
    assert second == first
    assert runner.stats.cache_hits == 2  # both runs served from cache


def test_evaluate_uses_default_runner_override():
    sentinel = SweepRunner(parallel=False)
    set_default_runner(sentinel)
    try:
        evaluate([RunSpec("decentralized", "hopper", TINY)])
        assert sentinel.stats.requested == 1
    finally:
        set_default_runner(None)


def test_serial_run_loads_no_pool_or_statistics_modules():
    """Start-up stays lean: importing the CLI and running a sweep
    serially loads neither the process-pool machinery nor the
    statistics module (each costs megabytes of resident memory)."""
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.sweep import RunSpec, SweepRunner, WorkloadParams\n"
        "SweepRunner(parallel=False).run([RunSpec('centralized', 'hopper',"
        " WorkloadParams(num_jobs=5, total_slots=20))])\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
        " 'statistics') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
