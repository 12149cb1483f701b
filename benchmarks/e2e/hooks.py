"""Outside-in layer timing for the end-to-end benchmark.

A :class:`LayerTracer` replaces each hook target -- a module function, a
method (on its class and on every loaded subclass that overrides it), a
property getter or a constructor -- with a thin wrapper. The wrappers
share one span stack and aggregate in memory, per hook: the call count,
the exclusive (self) seconds, and the calls and inclusive seconds per
calling hook (the parent->child edges). Nothing inside the program
changes; each layer is timed where another module calls into it.

Self time is a span's duration minus the part its child spans cover.
Every wrapper also costs time of its own: part of it lands inside the
span it opens, the rest in the caller's span. :func:`calibrate_overhead`
measures the split on a no-op and :func:`layer_self_seconds` subtracts
the cost per call, so a layer called millions of times is not charged
for the tracer.

A target that no longer exists is listed under ``unhooked`` instead of
raising: a later refactor then loses coverage visibly (``unhooked``
non-empty, ``other`` share up) rather than breaking the benchmark.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One hook target: ``qualname`` is ``func``, ``Class.attr`` or
    ``Class.*`` (every public method and property the class defines).
    ``count`` names a counter and an attribute of the first argument
    whose increase across each call is added to that counter."""

    layer: str
    module: str
    qualname: str
    count: Optional[Tuple[str, str]] = None


#: layer -> the ``module:qualname`` calls other modules make into it.
#: README.md says which end-to-end metric each layer should move.
_HOOK_TABLE = {
    "engine": (
        "repro.simulation.engine:Simulator.run",
        "repro.simulation.engine:Simulator.schedule",
        "repro.simulation.engine:Simulator.schedule_at",
        "repro.simulation.engine:Simulator.schedule_many",
    ),
    "centralized.dispatch": (
        "repro.centralized.simulator:CentralizedSimulator._on_job_arrival",
        "repro.centralized.simulator:CentralizedSimulator._on_copy_finish",
        "repro.centralized.simulator:CentralizedSimulator._on_spec_check",
        "repro.centralized.simulator:CentralizedSimulator._reschedule",
        "repro.batch.simulator:BatchSimulator._on_round",
    ),
    "centralized.resize": (
        "repro.centralized.simulator:CentralizedSimulator._autoscale_add",
        "repro.centralized.simulator:CentralizedSimulator._autoscale_remove",
    ),
    "alloc.update": (
        "repro.core.incremental:IncrementalAllocator.reserve",
        "repro.core.incremental:IncrementalAllocator.upsert",
        "repro.core.incremental:IncrementalAllocator.remove",
    ),
    "alloc.solve": (
        "repro.core.incremental:IncrementalAllocator.allocate",
        "repro.centralized.policies:CentralizedPolicy.allocate",
        "repro.centralized.policies:CentralizedPolicy.allocate_ordered",
        "repro.centralized.policies:CentralizedPolicy.fairness_floors",
    ),
    "cluster.slots": (
        "repro.cluster.cluster:Cluster.acquire_slot",
        "repro.cluster.cluster:Cluster.release_slot",
        "repro.cluster.index:ClusterIndex.nth_free_machine",
        "repro.cluster.index:ClusterIndex.first_free_machine",
    ),
    "cluster.membership": (
        "repro.cluster.cluster:Cluster.add_machine",
        "repro.cluster.cluster:Cluster.remove_machine",
        "repro.cluster.cluster:Cluster.live_machine_count",
        "repro.cluster.cluster:Cluster.apply_blacklist",
        "repro.cluster.cluster:Cluster.reset",
        "repro.cluster.index:ClusterIndex.append_machine",
        "repro.cluster.index:ClusterIndex.free_machine_ids",
        "repro.cluster.index:ClusterIndex.rebuild",
    ),
    "runtime": (
        "repro.runtime.lifecycle:CopyLedger.*",
        "repro.runtime.job:JobRuntime.pop_pending",
        "repro.runtime.job:JobRuntime.activate_runnable_phases",
        "repro.runtime.job:JobRuntime.requeue",
        "repro.runtime.job:JobRuntime.speculation_candidates",
    ),
    "spec.scan": ("repro.speculation.base:SpeculationPolicy.speculation_candidates",),
    "estimation": (
        "repro.estimation.beta:OnlineBetaEstimator.beta",
        "repro.estimation.beta:OnlineBetaEstimator.observe",
        "repro.estimation.alpha:AlphaEstimator.*",
    ),
    "stragglers": ("repro.stragglers.model:StragglerModel.slowdown",),
    "msg": (
        "repro.decentralized.simulator:DecentralizedSimulator.send",
        "repro.decentralized.simulator:DecentralizedSimulator._deliver_batch",
    ),
    "decentralized.sim": (
        "repro.decentralized.simulator:DecentralizedSimulator._on_job_arrival",
        "repro.decentralized.simulator:DecentralizedSimulator._on_spec_check",
        "repro.decentralized.simulator:DecentralizedSimulator._on_copy_finish",
        "repro.decentralized.simulator:DecentralizedSimulator.start_copy",
        "repro.decentralized.simulator:DecentralizedSimulator.sample_workers",
    ),
    "scheduler": ("repro.decentralized.scheduler:SchedulerAgent.*",),
    "worker": ("repro.decentralized.worker:Worker.*",),
    "decentralized.resize": (
        "repro.decentralized.simulator:DecentralizedSimulator._autoscale_add",
        "repro.decentralized.simulator:DecentralizedSimulator._autoscale_remove",
        "repro.decentralized.simulator:DecentralizedSimulator._refresh_membership",
    ),
    "serving": (
        "repro.serving.driver:run_serving",
        "repro.serving.driver:OpenLoopDriver.prime",
        "repro.serving.driver:OpenLoopDriver._refill",
        "repro.serving.arrivals:ArrivalProcess.next_interarrival",
        "repro.serving.arrivals:calibrate_arrival_rate",
        "repro.serving.windows:WindowedAggregator.*",
    ),
    "workload": (
        "repro.workload.generator:TraceGenerator.generate",
        "repro.workload.generator:TraceGenerator.next_job",
        "repro.workload.traces:Trace.rescaled_to_utilization",
        "repro.workload.traces:Trace.fresh_copy",
        "repro.experiments.harness:build_trace",
    ),
    "build": (
        "repro.experiments.harness:build_simulator",
        "repro.experiments.harness:build_centralized_simulator",
        "repro.experiments.harness:build_decentralized_simulator",
        "repro.experiments.harness:build_batch_simulator",
        "repro.centralized.simulator:CentralizedSimulator.__init__",
        "repro.decentralized.simulator:DecentralizedSimulator.__init__",
        "repro.cluster.cluster:Cluster.__init__",
    ),
    "sweep": (
        "repro.sweep.runner:SweepRunner.run",
        "repro.sweep.spec:RunSpec.digest",
        "repro.sweep.spec:RunSpec.execute",
        "repro.sweep.study:Study.run",
        "repro.sweep.study:Study.cells",
    ),
    "cache.put": ("repro.sweep.cache:ResultCache.put",),
    "cache.get": ("repro.sweep.cache:ResultCache.get",),
    "serialize": (
        "repro.metrics.serialize:result_to_dict",
        "repro.metrics.serialize:result_from_dict",
    ),
    "study.aggregate": ("repro.sweep.study:StudyResult.aggregate",),
    "cli.print": (
        "repro.metrics.tables:print_table",
        "repro.metrics.tables:format_table",
    ),
}

#: Every engine run adds its events to the ``engine.events`` counter.
_COUNTED = {
    "repro.simulation.engine:Simulator.run": ("engine.events", "events_processed"),
}

HOOKS: Tuple[Target, ...] = tuple(
    Target(layer, *where.split(":"), count=_COUNTED.get(where))
    for layer, wheres in _HOOK_TABLE.items()
    for where in wheres
)

#: Layer order for reports (``other`` is the traced time no hook covers).
LAYERS: Tuple[str, ...] = tuple(_HOOK_TABLE) + ("other",)

_ROOT = 0  # span-stack index of the whole traced window


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _is_hookable(raw) -> bool:
    return isinstance(raw, (types.FunctionType, property))


class _Hook:
    """Aggregates of one hook target: ``stat`` is [calls, raw self
    seconds]; ``edges`` maps calling hook index -> [calls, seconds]."""

    __slots__ = ("index", "layer", "key", "stat", "edges", "count")

    def __init__(self, index: int, layer: str, key: str, count) -> None:
        self.index = index
        self.layer = layer
        self.key = key
        self.stat = [0, 0.0]
        self.edges: Dict[int, list] = {}
        self.count = count


class LayerTracer:
    """Installs :data:`HOOKS` (or ``targets``) and aggregates spans
    timed by ``clock``."""

    def __init__(
        self, targets: Tuple[Target, ...] = HOOKS, clock=time.perf_counter
    ) -> None:
        self.targets = targets
        self.clock = clock
        self.hooks: List[Optional[_Hook]] = [None]  # index 0 is the root
        self.unhooked: List[str] = []
        self.counts: Dict[str, int] = {}
        self._ids: List[int] = [_ROOT]
        self._covered: List[float] = [0.0]
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, hook: _Hook):
        # The span stack is two parallel lists (hook index, seconds
        # covered by child spans): pushing ints and floats allocates no
        # garbage-collected objects, which would add collector work the
        # overhead calibration cannot see.
        ids = self._ids
        covered = self._covered
        clock = self.clock
        index = hook.index
        stat = hook.stat
        edges = hook.edges

        def wrapper(*args, **kwargs):
            ids.append(index)
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                ids.pop()
                inner = covered.pop()
                covered[-1] += elapsed
                parent = ids[-1]
                stat[0] += 1
                stat[1] += elapsed - inner
                edge = edges.get(parent)
                if edge is None:
                    edges[parent] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed

        if hook.count is None:
            return wrapper
        counter, attr = hook.count
        counts = self.counts

        def counting(obj, *args, **kwargs):
            before = getattr(obj, attr)
            try:
                return wrapper(obj, *args, **kwargs)
            finally:
                counts[counter] = counts.get(counter, 0) + getattr(obj, attr) - before

        return counting

    def _wrap_raw(self, raw, hook: _Hook):
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, hook), raw.fset, raw.fdel, raw.__doc__)
        return self._wrap(raw, hook)

    # -- install / uninstall -------------------------------------------------

    def _new_hook(self, target: Target, key: str) -> _Hook:
        hook = _Hook(len(self.hooks), target.layer, key, target.count)
        self.hooks.append(hook)
        return hook

    def _patch(self, owner, attr: str, hook: _Hook, seen: set) -> None:
        if (id(owner), attr) in seen:
            return
        seen.add((id(owner), attr))
        raw = vars(owner)[attr]
        setattr(owner, attr, self._wrap_raw(raw, hook))
        self._patched.append((owner, attr, raw))

    def install(self) -> "LayerTracer":
        """Patch every target; missing ones go to :attr:`unhooked`."""
        seen: set = set()
        for target in self.targets:
            where = f"{target.module}:{target.qualname}"
            try:
                module = importlib.import_module(target.module)
            except ImportError as exc:
                self.unhooked.append(f"{where} (import failed: {exc})")
                continue
            if "." in target.qualname:
                self._install_method(target, module, where, seen)
            else:
                self._install_function(target, module, where, seen)
        return self

    def _install_function(self, target: Target, module, where: str, seen) -> None:
        fn = vars(module).get(target.qualname)
        if not isinstance(fn, types.FunctionType):
            self.unhooked.append(f"{where} (no such function)")
            return
        hook = self._new_hook(target, target.qualname)
        # Callers that imported the function by name hold their own
        # binding; patch every program module that refers to it.
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is fn:
                    self._patch(other, attr, hook, seen)

    def _install_method(self, target: Target, module, where: str, seen) -> None:
        class_name, attr = target.qualname.split(".", 1)
        cls = vars(module).get(class_name)
        if not isinstance(cls, type):
            self.unhooked.append(f"{where} (no such class)")
            return
        names = [attr]
        if attr == "*":
            names = [
                name
                for name, raw in vars(cls).items()
                if not name.startswith("_") and _is_hookable(raw)
            ]
            if not names:
                self.unhooked.append(f"{where} (no public methods)")
        for name in names:
            owners = [
                c for c in [cls] + _subclasses(cls) if _is_hookable(vars(c).get(name))
            ]
            if not owners:
                self.unhooked.append(f"{target.module}:{class_name}.{name} (missing)")
                continue
            hook = self._new_hook(target, f"{class_name}.{name}")
            for owner in owners:
                self._patch(owner, name, hook, seen)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- report --------------------------------------------------------------

    def report(self, wall_s: float, overhead: Tuple[float, float]) -> dict:
        """Raw aggregates of ``wall_s`` seconds of traced time, with the
        tracer's cost still inside: per hook its layer, calls, self
        seconds, calls it made to other hooks, and its callers (calls,
        inclusive seconds). ``overhead`` is :func:`calibrate_overhead`'s
        result, kept for :func:`layer_self_seconds`."""
        child_calls: Dict[int, int] = {}
        for hook in self.hooks[1:]:
            for parent, (calls, _) in hook.edges.items():
                child_calls[parent] = child_calls.get(parent, 0) + calls
        return {
            "wall_s": wall_s,
            "overhead": list(overhead),
            "uncovered_s": wall_s - self._covered[0],
            "top_calls": child_calls.get(_ROOT, 0),
            "hooks": {
                hook.key: {
                    "layer": hook.layer,
                    "calls": hook.stat[0],
                    "raw_self_s": hook.stat[1],
                    "child_calls": child_calls.get(hook.index, 0),
                    "callers": {
                        self._name(parent): {"calls": calls, "incl_s": seconds}
                        for parent, (calls, seconds) in sorted(hook.edges.items())
                    },
                }
                for hook in self.hooks[1:]
                if hook.stat[0]
            },
            "counts": dict(self.counts),
            "unhooked": list(self.unhooked),
        }

    def _name(self, index: int) -> str:
        return "(root)" if index == _ROOT else self.hooks[index].key


def layer_self_seconds(report: dict, untraced_wall_s: float) -> Dict[str, float]:
    """Exclusive seconds per layer, and ``other`` for the time no hook
    covers, with the tracer's own cost taken out.

    Each hooked call costs the calibrated no-op overhead, split between
    the span it opens (inside) and its caller's span (outside). A real
    call costs more to wrap than a no-op, so the split is scaled until
    the whole cost equals the traced wall minus ``untraced_wall_s``; the
    layers then sum to the untraced wall."""
    inside, outside = report["overhead"]
    calls = sum(hook["calls"] for hook in report["hooks"].values())
    cost = max(report["wall_s"] - untraced_wall_s, 0.0)
    scale = cost / (calls * (inside + outside)) if calls and inside + outside else 0.0
    inside, outside = inside * scale, outside * scale
    seconds = dict.fromkeys(LAYERS, 0.0)
    for hook in report["hooks"].values():
        seconds[hook["layer"]] += max(
            hook["raw_self_s"] - hook["calls"] * inside - hook["child_calls"] * outside,
            0.0,
        )
    seconds["other"] = max(report["uncovered_s"] - report["top_calls"] * outside, 0.0)
    return seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    report: dict, seconds: Dict[str, float], sim: Dict[str, float]
) -> Dict[str, dict]:
    """Named per-layer metrics: for every layer its self seconds
    (``seconds``, from :func:`layer_self_seconds`) and its share of
    their sum, then hook-counted calls and useful-outcome ratios, using
    the run's simulated counts ``sim`` (``Outcome.sim_counts``). Each
    value is ``{"value", "unit"}``."""
    hooks = report["hooks"]
    total = sum(seconds.values())

    def calls(key: str) -> int:
        return hooks.get(key, {}).get("calls", 0)

    def layer_calls(layer: str) -> int:
        return sum(hook["calls"] for hook in hooks.values() if hook["layer"] == layer)

    def edge(parent: str, child: str) -> int:
        return hooks.get(child, {}).get("callers", {}).get(parent, {}).get("calls", 0)

    out: Dict[str, dict] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = {"value": seconds[layer], "unit": "s"}
        share = 100.0 * _ratio(seconds[layer], total)
        out[f"{layer}.share"] = {"value": share, "unit": "%"}
    solves = calls("IncrementalAllocator.allocate")
    sends = calls("DecentralizedSimulator.send")
    probes = calls("Worker.on_request")
    counted = {
        "engine.events": report["counts"].get("engine.events", 0),
        "centralized.reschedules": calls("CentralizedSimulator._reschedule"),
        "alloc.update.calls": layer_calls("alloc.update"),
        "alloc.solve.calls": solves,
        # Regime-flip fallbacks to the from-scratch solve.
        "alloc.full_resolve.calls": edge(
            "IncrementalAllocator.allocate", "CentralizedPolicy.allocate"
        ),
        "cluster.slots.calls": layer_calls("cluster.slots"),
        "cluster.membership.calls": layer_calls("cluster.membership"),
        "elastic.resizes": sum(
            calls(f"{plane}._autoscale_{verb}")
            for plane in ("CentralizedSimulator", "DecentralizedSimulator")
            for verb in ("add", "remove")
        ),
        "runtime.launches": calls("CopyLedger.launch"),
        "spec.scan.calls": layer_calls("spec.scan"),
        "msg.sent": sends,
        "scheduler.offers": calls("SchedulerAgent.on_slot_offer"),
        "probe.sent": probes,
        "sweep.executed": sim.get("sweep.executed", 0),
    }
    for name, value in counted.items():
        out[name] = {"value": value, "unit": "count"}
    # A memo hit returns the previous targets without a policy solve; a
    # send that opens a new batch schedules one engine event.
    solved = edge("IncrementalAllocator.allocate", "CentralizedPolicy.allocate_ordered")
    batches = edge("DecentralizedSimulator.send", "Simulator.schedule_at")
    wasted, useful = sim["slot.wasted"], sim["slot.useful"]
    ratios = {
        "alloc.solve.memo_hit_ratio": _ratio(solves - solved, solves),
        "spec.win_ratio": _ratio(sim["spec.wins"], sim["spec.copies"]),
        "spec.wasted_share": _ratio(wasted, wasted + useful),
        "msg.coalesce_ratio": _ratio(sends - batches, sends),
        "probe.useful_ratio": _ratio(calls("Worker.consume_request"), probes),
        "cache.hit_ratio": _ratio(
            sim.get("sweep.cache_hits", 0), calls("ResultCache.get")
        ),
    }
    for name, value in ratios.items():
        out[name] = {"value": value, "unit": "ratio"}
    return out


class _Probe:
    def noop(self) -> None:
        pass


def calibrate_overhead(calls: int = 20000, trials: int = 5) -> Tuple[float, float]:
    """Median per-call wrapper cost on a no-op, split into the part the
    wrapped span records itself (inside) and the part that lands in its
    caller's span (outside)."""
    clock = time.perf_counter
    probe = _Probe()
    plain = _Probe.noop
    inside: List[float] = []
    outside: List[float] = []
    for _ in range(trials):
        tracer = LayerTracer(targets=())
        hook = tracer._new_hook(Target("probe", __name__, "_Probe.noop"), "noop")
        wrapped = tracer._wrap(plain, hook)
        start = clock()
        for _ in range(calls):
            plain(probe)
        bare = (clock() - start) / calls
        start = clock()
        for _ in range(calls):
            wrapped(probe)
        total = (clock() - start) / calls - bare
        recorded = hook.stat[1] / calls - bare
        inside.append(max(recorded, 0.0))
        outside.append(max(total - recorded, 0.0))
    return statistics.median(inside), statistics.median(outside)
