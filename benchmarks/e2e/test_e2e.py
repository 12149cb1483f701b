"""Tests for the end-to-end benchmark's tracer, statistics and inputs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import sys
import types

import pytest

import stats
from compare import compare
from hooks import LayerTracer, Target, layer_metrics, layer_self_seconds


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_program(monkeypatch):
    """Two program modules: ``a`` defines classes and a function that
    ``b`` imports by name. Method bodies advance a fake clock."""
    clock = FakeClock()
    a = types.ModuleType("repro._e2e_fake_a")
    b = types.ModuleType("repro._e2e_fake_b")

    class Inner:
        def step(self):
            clock.now += 2.0

        @property
        def size(self):
            return 3

    class FastInner(Inner):
        def step(self):
            clock.now += 1.0

    class Outer:
        def __init__(self, inner):
            self.inner = inner

        def run(self):
            clock.now += 1.0
            self.inner.step()
            self.inner.step()
            clock.now += 0.5

    def shared():
        clock.now += 0.25

    a.Inner, a.FastInner, a.Outer, a.shared = Inner, FastInner, Outer, shared
    b.shared = shared
    monkeypatch.setitem(sys.modules, a.__name__, a)
    monkeypatch.setitem(sys.modules, b.__name__, b)
    return clock, a, b


def _tracer(clock, *targets):
    return LayerTracer(targets=tuple(targets), clock=clock).install()


SIM = {"spec.wins": 1, "spec.copies": 4, "slot.wasted": 1.0, "slot.useful": 3.0}


def test_self_time_of_nested_calls(fake_program):
    clock, a, b = fake_program
    tracer = _tracer(
        clock,
        Target("engine", a.__name__, "Outer.run"),
        Target("runtime", a.__name__, "Inner.step"),
        Target("workload", a.__name__, "shared"),
    )
    try:
        a.Outer(a.Inner()).run()
        b.shared()  # the by-name binding in another module is hooked too
        a.Outer(a.FastInner()).run()  # so is the subclass override
    finally:
        tracer.uninstall()
    report = tracer.report(wall_s=20.0, overhead=(0.0, 0.0))
    run = report["hooks"]["Outer.run"]
    step = report["hooks"]["Inner.step"]
    shared = report["hooks"]["shared"]
    assert (run["calls"], run["raw_self_s"], run["child_calls"]) == (2, 3.0, 4)
    assert (step["calls"], step["raw_self_s"]) == (4, 6.0)
    assert step["callers"] == {"Outer.run": {"calls": 4, "incl_s": 6.0}}
    assert (shared["calls"], shared["raw_self_s"]) == (1, 0.25)
    assert report["top_calls"] == 3
    assert report["uncovered_s"] == 20.0 - 9.25

    seconds = layer_self_seconds(report, untraced_wall_s=20.0)
    assert (seconds["engine"], seconds["runtime"]) == (3.0, 6.0)
    assert (seconds["workload"], seconds["other"]) == (0.25, 20.0 - 9.25)
    metrics = layer_metrics(report, seconds, SIM)
    assert metrics["engine.share"]["value"] == pytest.approx(15.0)
    assert metrics["spec.win_ratio"]["value"] == 0.25
    assert metrics["spec.wasted_share"]["value"] == 0.25


def test_tracer_cost_is_removed_per_call():
    # One top-level call with two children; the traced run took 1.0 s
    # longer than the untraced one, so each of the 3 calls cost 1/3 s,
    # split 1:2 between the span it opens and its caller's span.
    def hook(layer, calls, raw_self_s, child_calls):
        return {
            "layer": layer,
            "calls": calls,
            "raw_self_s": raw_self_s,
            "child_calls": child_calls,
            "callers": {},
        }

    report = {
        "wall_s": 11.0,
        "overhead": [1e-7, 2e-7],
        "uncovered_s": 2.0,
        "top_calls": 1,
        "hooks": {
            "Outer.run": hook("engine", 1, 4.0, 2),
            "Inner.step": hook("runtime", 2, 5.0, 0),
        },
        "counts": {},
        "unhooked": [],
    }
    seconds = layer_self_seconds(report, untraced_wall_s=10.0)
    assert seconds["engine"] == pytest.approx(4.0 - 1 / 9 - 2 * 2 / 9)
    assert seconds["runtime"] == pytest.approx(5.0 - 2 / 9)
    assert seconds["other"] == pytest.approx(2.0 - 2 / 9)
    assert sum(seconds.values()) == pytest.approx(10.0)


def test_uninstall_restores_identical_objects(fake_program):
    clock, a, b = fake_program
    locations = [
        (a.Inner, "step"),
        (a.Inner, "size"),
        (a.FastInner, "step"),
        (a.Outer, "__init__"),
        (a, "shared"),
        (b, "shared"),
    ]
    before = {(owner, name): vars(owner)[name] for owner, name in locations}
    tracer = _tracer(
        clock,
        Target("runtime", a.__name__, "Inner.*"),
        Target("build", a.__name__, "Outer.__init__"),
        Target("workload", a.__name__, "shared"),
    )
    assert all(vars(owner)[name] is not before[owner, name] for owner, name in before)
    assert a.Inner().size == 3
    tracer.uninstall()
    assert all(vars(owner)[name] is before[owner, name] for owner, name in before)
    calls = tracer.report(wall_s=1.0, overhead=(0.0, 0.0))["hooks"]
    assert {key: hook["calls"] for key, hook in calls.items()} == {"Inner.size": 1}


def test_program_hooks_all_resolve_and_restore():
    pytest.importorskip("repro")
    tracer = LayerTracer().install()
    patched = list(tracer._patched)
    tracer.uninstall()
    assert tracer.unhooked == []
    assert patched
    assert all(vars(owner)[name] is raw for owner, name, raw in patched)


def test_missing_targets_are_listed_not_raised(fake_program):
    clock, a, _ = fake_program
    tracer = _tracer(
        clock,
        Target("engine", "repro._e2e_no_such_module", "Thing.run"),
        Target("engine", a.__name__, "Gone.run"),
        Target("engine", a.__name__, "Inner.renamed"),
        Target("engine", a.__name__, "vanished"),
        Target("engine", a.__name__, "Inner.step"),
    )
    tracer.uninstall()
    assert len(tracer.unhooked) == 4
    assert not any("Inner.step" in entry for entry in tracer.unhooked)


def test_counting_hook_adds_the_attribute_increase(fake_program):
    clock, a, _ = fake_program

    class Engine:
        def __init__(self):
            self.events = 0

        def run(self, n):
            self.events += n

    a.Engine = Engine
    target = Target("engine", a.__name__, "Engine.run", count=("ev", "events"))
    tracer = _tracer(clock, target)
    engine = Engine()
    engine.run(3)
    engine.run(4)
    tracer.uninstall()
    assert tracer.counts == {"ev": 7}


def test_summary_median_and_quartiles():
    s = stats.summarize([4.0, 1.0, 3.0, 2.0])
    assert (s["median"], s["min"], s["max"], s["n"]) == (2.5, 1.0, 4.0, 4)
    assert (s["q1"], s["q3"]) == (1.25, 3.75)  # statistics.quantiles, n=4
    assert stats.spread(s) == pytest.approx(1.0)
    one = stats.summarize([7.0])
    assert (one["q1"], one["q3"], stats.spread(one)) == (7.0, 7.0, 0.0)


def _s(*values):
    return stats.summarize(values)


def test_verdicts_against_the_bound():
    base = _s(10.0, 10.1, 10.2, 10.3)
    assert stats.verdict(base, _s(10.5, 10.6, 10.7, 10.8), "lower", 0.1) == "ok"
    assert stats.verdict(base, _s(11.5, 11.6, 11.7, 11.8), "lower", 0.1) == "worse"
    # Throughput: lower values are worse.
    assert stats.change(base, _s(9.0, 9.1, 9.2, 9.3), "higher") > 0
    assert stats.verdict(base, _s(8.0, 8.1, 8.2, 8.3), "higher", 0.1) == "worse"
    noisy = _s(5.0, 10.0, 15.0, 20.0)
    assert stats.verdict(base, noisy, "lower", 0.1) == "unresolved"
    # Wider than the bound, but every new run beats every base run.
    assert stats.verdict(base, _s(1.0, 2.0, 3.0, 4.0), "lower", 0.1) == "ok"


def test_compare_rows_cover_each_metric_and_failed_share():
    def doc(wall, failed):
        e2e = {"wall_s": _s(*wall), "failed_share": _s(failed)}
        return {"workloads": {"w": {"end_to_end": e2e}}}

    bench = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
    rows = compare(doc([1.0, 1.0, 1.0], 0.0), doc([1.3, 1.3, 1.3], 0.25), bench)
    assert [(row[1], row[-1]) for row in rows] == [
        ("wall_s", "worse"),
        ("failed_share", "worse"),
    ]
    rows = compare(doc([1.0, 1.0, 1.0], 0.0), doc([1.05, 1.05, 1.05], 0.0), bench)
    assert [row[-1] for row in rows] == ["ok", "ok"]


def test_pick_seeds_is_deterministic_and_within_tolerance():
    workloads = pytest.importorskip("workloads")

    def measure(seed):
        yield "x", seed % 100

    targets = {"x": (50.0, 0.1)}
    chosen = workloads.pick_seeds(7, 5, measure, targets)
    assert chosen == workloads.pick_seeds(7, 5, measure, targets)
    assert len(set(chosen)) == 5
    assert all(45 <= seed % 100 <= 55 for seed in chosen)
    assert chosen != workloads.pick_seeds(8, 5, measure, targets)
    # Nothing within tolerance: the closest candidates fill in.
    closest = workloads.pick_seeds(7, 2, measure, {"x": (1000.0, 0.01)}, limit=50)
    assert len(closest) == 2
