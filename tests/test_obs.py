"""Observability tests: primitives, trace correctness on pinned runs,
zero-perturbation differentials, schema-2 serialization, conservation
counters, and the zero-cost-when-off call counts.

The pinned-trace digest below plays the same role as the golden study
digests: the simulation is deterministic, so the full JSONL trace of a
fixed workload is reproducible byte for byte. If an intentional change
(new event type, reordered instrumentation) moves it, regenerate with
the inline snippet in ``test_decentralized_trace_digest_is_pinned``.
"""

import collections
import hashlib
import json

import pytest

from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.metrics.serialize import result_from_dict, result_to_dict
from repro.obs import (
    OBS_ENV,
    Counters,
    Obs,
    PhaseTimers,
    Tracer,
    aggregate_counters,
    aggregate_timers,
    obs_from_env,
)
from repro.serving.driver import run_serving
from repro.serving.windows import ServingRegime
from repro.workload.generator import profile_by_name

#: One small decentralized workload reused across the pinned-trace tests.
SPEC = WorkloadSpec(num_jobs=12, utilization=0.6, total_slots=60, seed=5)

PINNED_TRACE_DIGEST = (
    "38d4fb72f1c35e8fc8e2dffabd9d89cb88c5cf61a84eed42f556a3f81561d57a"
)


# -- primitives --------------------------------------------------------------


def test_counters_accumulate_and_sort():
    counters = Counters()
    counters.inc("b")
    counters.inc("a", 3)
    counters.inc("b", 2)
    assert counters.get("b") == 3
    assert counters.get("missing") == 0
    assert list(counters.as_dict()) == ["a", "b"]
    assert counters.as_dict() == {"a": 3, "b": 3}


def test_phase_timers_accumulate_calls_and_seconds():
    timers = PhaseTimers()
    timers.add("x", 0.5)
    timers.add("x", 0.25)
    with timers.phase("y"):
        pass
    cells = timers.as_dict()
    assert cells["x"] == {"calls": 2, "seconds": 0.75}
    assert cells["y"]["calls"] == 1
    assert cells["y"]["seconds"] >= 0.0


def test_tracer_spans_and_instants():
    tracer = Tracer()
    tracer.begin("job", "job", ("job", 1), 0.0, job=1)
    tracer.instant("spec", "spec.win", 0.5, job=1, task=2)
    assert tracer.open_spans() == 1
    tracer.end(("job", 1), 2.0, tasks=4)
    assert tracer.open_spans() == 0
    # End without begin drops quietly (truncated-run tolerance).
    tracer.end(("job", 99), 3.0)
    assert [r["ev"] for r in tracer.records] == ["instant", "span"]
    span = tracer.records[1]
    assert span["t0"] == 0.0 and span["t1"] == 2.0
    assert span["args"] == {"job": 1, "tasks": 4}


def test_tracer_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    tracer.instant("a", "x", 1.0, k=1)
    tracer.begin("b", "y", "key", 1.0)
    tracer.end("key", 2.0)
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(str(path)) == 2
    assert Tracer.read_jsonl(str(path)) == tracer.records


def test_chrome_trace_export_shape():
    tracer = Tracer()
    tracer.begin("copy", "task", "k", 1.5, job=3, machine=7)
    tracer.end("k", 2.5)
    tracer.instant("blacklist", "evict", 4.0, machine=9)
    tracer.instant("spec", "spec.win", 5.0, job=3)
    doc = Tracer.chrome_trace(tracer.records)
    assert doc["displayTimeUnit"] == "ms"
    span, evict, win = doc["traceEvents"]
    assert span["ph"] == "X"
    assert span["ts"] == pytest.approx(1.5e6)
    assert span["dur"] == pytest.approx(1.0e6)
    assert span["tid"] == 7  # machine wins over job
    assert evict["ph"] == "i" and evict["s"] == "g" and evict["tid"] == 9
    assert win["tid"] == 3  # no machine: falls back to job


def test_obs_bundle_and_report():
    off = Obs()
    assert off.tracer is None
    on = Obs(trace=True)
    assert isinstance(on.tracer, Tracer)
    on.counters.inc("n", 2)
    on.timers.add("p", 0.1)
    report = on.report()
    assert report["counters"] == {"n": 2}
    assert report["timers"]["p"]["calls"] == 1


def test_obs_from_env():
    assert obs_from_env({}) is None
    assert obs_from_env({"REPRO_OBS": "0"}) is None
    assert obs_from_env({"REPRO_OBS": "false"}) is None
    enabled = obs_from_env({"REPRO_OBS": "1"})
    assert enabled is not None
    assert enabled.tracer is None  # tracing never enables via env


def test_aggregate_timers_and_counters_skip_empty_reports():
    reports = [
        None,
        {"counters": {"a": 1}, "timers": {"p": {"calls": 1, "seconds": 0.5}}},
        {"counters": {"a": 2, "b": 1},
         "timers": {"p": {"calls": 2, "seconds": 1.0}}},
    ]
    assert aggregate_counters(reports) == {"a": 3, "b": 1}
    assert aggregate_timers(reports) == {
        "p": {"calls": 3, "seconds": 1.5}
    }


# -- pinned-run trace correctness --------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    obs = Obs(trace=True)
    result = run_simulator("decentralized/hopper", build_trace(SPEC), SPEC, obs=obs)
    return obs, result


def test_job_spans_match_job_records(traced_run):
    obs, result = traced_run
    job_spans = [r for r in obs.tracer.records if r["cat"] == "job"]
    assert len(job_spans) == result.num_jobs
    by_id = {record.job_id: record for record in result.jobs}
    for span in job_spans:
        record = by_id[span["args"]["job"]]
        assert span["t1"] - span["t0"] == pytest.approx(
            record.duration, abs=1e-9
        )


def test_trace_is_ordered_by_completion_and_fully_closed(traced_run):
    obs, _ = traced_run
    assert obs.tracer.open_spans() == 0
    ends = [r["t1"] if r["ev"] == "span" else r["t"]
            for r in obs.tracer.records]
    assert all(a <= b for a, b in zip(ends, ends[1:]))


def test_copy_spans_nest_inside_their_job_span(traced_run):
    obs, _ = traced_run
    job_spans = {
        r["args"]["job"]: r
        for r in obs.tracer.records
        if r["cat"] == "job"
    }
    copy_spans = [
        r
        for r in obs.tracer.records
        if r["ev"] == "span" and r["cat"] == "copy"
    ]
    assert copy_spans
    for span in copy_spans:
        parent = job_spans[span["args"]["job"]]
        assert parent["t0"] - 1e-9 <= span["t0"]
        assert span["t1"] <= parent["t1"] + 1e-9


def test_decentralized_trace_digest_is_pinned(traced_run):
    obs, _ = traced_run
    payload = "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in obs.tracer.records
    )
    assert (
        hashlib.sha256(payload.encode()).hexdigest() == PINNED_TRACE_DIGEST
    )


# -- zero perturbation when off ----------------------------------------------


@pytest.mark.parametrize("kind", ["centralized", "decentralized"])
def test_obs_on_does_not_perturb_results(kind):
    """Differential: a fully instrumented run must produce byte-identical
    simulation results; instrumentation may never consume entropy or
    reorder events. With obs off the document is the pre-obs schema-1
    shape exactly (that is what keeps the golden study digests pinned)."""
    trace = build_trace(SPEC)
    off = run_simulator("hopper", trace, SPEC, plane=kind, obs=None)
    on = run_simulator("hopper", trace, SPEC, plane=kind, obs=Obs(trace=True))

    off_doc = result_to_dict(off)
    assert off_doc["schema_version"] == 1
    assert "obs" not in off_doc

    on_doc = result_to_dict(on)
    assert on_doc["schema_version"] == 2
    on_doc.pop("obs")
    on_doc["schema_version"] = 1
    assert json.dumps(off_doc, sort_keys=True) == json.dumps(
        on_doc, sort_keys=True
    )


# -- zero cost when off: call counts -----------------------------------------

#: The bundle and every recording method of its three sinks.
_OBS_SINKS = (
    (Obs, "__init__"),
    (Counters, "inc"),
    (PhaseTimers, "add"),
    (PhaseTimers, "phase"),
    (Tracer, "instant"),
    (Tracer, "begin"),
    (Tracer, "end"),
)


def _counted(calls, key, method):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return method(*args, **kwargs)

    return wrapper


@pytest.fixture()
def obs_calls(monkeypatch):
    """Count every call into an observability sink, with ``REPRO_OBS``
    cleared so a run without ``obs=`` is uninstrumented."""
    monkeypatch.delenv(OBS_ENV, raising=False)
    calls = collections.Counter()
    for cls, name in _OBS_SINKS:
        key = f"{cls.__name__}.{name}"
        monkeypatch.setattr(cls, name, _counted(calls, key, getattr(cls, name)))
    return calls


@pytest.mark.parametrize("plane", ["centralized", "batch", "decentralized"])
def test_obs_off_replay_makes_no_obs_call(plane, obs_calls):
    result = run_simulator("hopper", build_trace(SPEC), SPEC, plane=plane)
    assert result.obs is None
    assert dict(obs_calls) == {}


@pytest.mark.parametrize("plane", ["centralized", "decentralized"])
def test_obs_off_serving_makes_no_obs_call(plane, obs_calls):
    spec = WorkloadSpec(
        profile=profile_by_name("spark-facebook"),
        num_jobs=200,
        utilization=0.8,
        total_slots=60,
        seed=11,
    )
    regime = ServingRegime(warmup=5.0, horizon=40.0, cooldown=5.0, window=10.0)
    result = run_serving(spec, plane, "hopper", regime)
    assert result.serving is not None
    assert result.obs is None
    assert dict(obs_calls) == {}


def test_obs_call_counter_sees_an_instrumented_run(obs_calls):
    """Control for the two tests above: the wrappers do intercept the
    simulators' calls, so a zero count means no call was made."""
    run_simulator("decentralized/hopper", build_trace(SPEC), SPEC, obs=Obs(trace=True))
    assert obs_calls["Obs.__init__"] == 1
    for key in ("Counters.inc", "Tracer.instant", "Tracer.begin", "Tracer.end"):
        assert obs_calls[key] > 0, key


# -- schema-2 serialization --------------------------------------------------


def test_schema2_round_trip_preserves_obs_section():
    obs = Obs(trace=True)
    result = run_simulator(
        "decentralized/hopper",
        build_trace(SPEC),
        SPEC,
        straggler_model="machine-correlated",
        blacklist_policy="strikes",
        strike_threshold=3,
        strike_window=1e9,
        obs=obs,
    )
    assert result.evictions > 0
    assert result.machine_strikes
    doc = result_to_dict(result)
    assert doc["schema_version"] == 2
    assert doc["obs"]["evictions"] == result.evictions
    assert doc["obs"]["requests_dropped"] == result.requests_dropped

    restored = result_from_dict(json.loads(json.dumps(doc)))
    assert restored.evictions == result.evictions
    assert restored.reinstatements == result.reinstatements
    assert restored.requests_dropped == result.requests_dropped
    assert restored.machine_strikes == result.machine_strikes
    assert restored.obs["counters"] == obs.counters.as_dict()


def test_unknown_schema_version_rejected():
    doc = result_to_dict(
        run_simulator("decentralized/hopper", build_trace(SPEC), SPEC, obs=None)
    )
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        result_from_dict(doc)


# -- eviction accounting and conservation ------------------------------------


def test_decentralized_eviction_accounting_and_conservation():
    obs = Obs(trace=True)
    result = run_simulator(
        "decentralized/hopper",
        build_trace(SPEC),
        SPEC,
        straggler_model="machine-correlated",
        blacklist_policy="strikes",
        strike_threshold=3,
        strike_window=1e9,
        obs=obs,
    )
    counts = obs.counters.as_dict()
    assert result.evictions > 0
    assert counts["blacklist.evictions"] == result.evictions
    assert result.requests_dropped > 0
    # Conservation: every sent probe is queued or dropped; every queued
    # probe is consumed or purged; requests_dropped covers both losses.
    assert counts["msg.sent"] == (
        counts.get("msg.batches", 0) + counts.get("msg.coalesced", 0)
    )
    assert counts["probe.sent"] == (
        counts.get("probe.queued", 0) + counts.get("probe.dropped", 0)
    )
    assert counts["probe.queued"] == (
        counts.get("probe.consumed", 0) + counts.get("probe.purged", 0)
    )
    assert result.requests_dropped == (
        counts.get("probe.dropped", 0) + counts.get("probe.purged", 0)
    )
    evict_instants = [
        r
        for r in obs.tracer.records
        if r["cat"] == "blacklist" and r["name"] == "evict"
    ]
    assert len(evict_instants) == result.evictions


def test_centralized_eviction_accounting_and_phase_timers():
    obs = Obs(trace=True)
    result = run_simulator(
        "centralized/hopper",
        build_trace(SPEC),
        SPEC,
        straggler_model="machine-correlated",
        blacklist_policy="strikes",
        obs=obs,
    )
    counts = obs.counters.as_dict()
    assert result.evictions > 0
    assert counts["blacklist.evictions"] == result.evictions
    assert result.machine_strikes
    assert all(v > 0 for v in result.machine_strikes.values())
    timers = obs.timers.as_dict()
    for phase in (
        "engine.dispatch",
        "index.rebuild",
        "policy.allocate",
        "policy.evaluate_completion",
    ):
        assert phase in timers, f"missing phase timer {phase}"
    assert timers["engine.dispatch"]["calls"] == 1


def test_machine_strikes_survive_without_obs():
    """Strike totals are unconditional diagnostics: they populate the
    in-memory result even on an uninstrumented run (they ride the
    existing blacklist bookkeeping, not the obs hot path)."""
    result = run_simulator(
        "centralized/hopper",
        build_trace(SPEC),
        SPEC,
        straggler_model="machine-correlated",
        blacklist_policy="strikes",
        obs=None,
    )
    assert result.machine_strikes
    assert result.evictions > 0
    assert result.obs is None  # and serialization stays schema 1

