"""The benchmark's four workloads: seeded inputs, one run, output checks.

Only ``child.py`` imports this module, inside a child process whose
clock is already running: importing it imports the program, and that
cost belongs to the child's set-up time. The program is driven through
its public entry points only -- ``run_serving``, ``build_trace`` /
``build_simulator`` and ``repro.cli.main`` -- always called through
their modules, so the layer tracer's patches on them take effect.

Typical inputs. The driver compares runs made on different seeds, so a
run's host cost must not swing with the seed's luck. Raw seeds do swing
it: ``run_serving`` calibrates its arrival rate from a 200-sample
estimate of a Pareto(1.4) mean, which misses by up to +-45%, so one seed
offers rho 0.6 and the next rho 1.2. Each workload therefore states the
size of its inputs (offered load, jobs, tasks, work) and
:func:`pick_seeds` walks candidate trace seeds derived from ``--seed``
until the inputs match that size within a tolerance. The same seed
always gives the same inputs; different seeds give different jobs,
arrival times and task sizes of the same size.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import cli, registry
from repro.experiments import harness
from repro.metrics.serialize import result_to_dict
from repro.serving import (
    JobStream,
    ServingRegime,
    calibrate_arrival_rate,
    driver,
    make_arrival_process,
)
from repro.simulation.rng import RandomSource
from repro.workload.generator import TraceGenerator, profile_by_name

PROFILE = "spark-facebook"

#: Open-loop serving on 100 machines x 4 slots (400 workers on the
#: decentralized plane) at rho 0.9, Poisson arrivals.
SERVE_SLOTS = 400
SERVE_RHO = 0.9
SERVE_REGIME = ServingRegime(warmup=10.0, horizon=320.0, cooldown=20.0, window=10.0)
#: stat -> (target, tolerance). Medians over trace seeds 0-599 whose
#: stream offers rho within 3%; rate is a cheap pre-filter.
SERVE_TARGETS = {
    "rate": (3.684, 0.06),
    "load": (SERVE_RHO, 0.03),
    "jobs": (1182, 0.03),
    "tasks": (33435, 0.03),
}
#: p99 JCT needs at least ten samples beyond it.
SERVE_MIN_MEASURED = 1000

#: Replay on 100k slots (25k machines x 4; 100k decentralized workers)
#: with 48 alternating -2%/+2% resizes every 0.25 s.
ELASTIC_SLOTS = 100_000
ELASTIC_JOBS = 150
ELASTIC_UTILIZATION = 0.6
ELASTIC_TARGETS = {"tasks": (4253, 0.03), "work": (14355.0, 0.03)}
RESIZES = 48
RESIZE_INTERVAL = 0.25

#: ``repro study fig5a --quick`` over this many seeds, cold then warm.
STUDY = "fig5a"
STUDY_SEEDS = 12
#: Per-seed targets of the quick grid's 25-job trace; twelve seeds each
#: within 10% keep the study's total within a few percent.
STUDY_TARGETS = {"tasks": (665, 0.10), "work": (2214.0, 0.10)}

#: sha256 of the canonical result documents, by workload and --seed.
#: Other seeds print "unpinned" and rely on the remaining checks.
PINNED: Dict[str, Dict[int, str]] = {
    "serve-central": {
        42: "3d63252b5a34dbbdd09b9a23f8834d00c323c40842c04d9ade303c7e2348b985",
        43: "30e54660a6c1a8d12fe1eae97b86b57b830768b5d1fd030eab0bff6067873059",
    },
    "serve-decentral": {
        42: "cb7c5e3235bcb9e920e70c2ef0e73ddce3c19b0f0e8e723087e1dc1eb6038d13",
        43: "9c6872cb13a7a8ff6d495c487ac0f84e819e153114418879b69dc0ae89ab5bc2",
    },
    "elastic-100k": {
        42: "37a683c909f11c70ff3b6693554ec714b6dbdc6dc5e45dbbf26c78485c871487",
        43: "4fa78c16159f5be89900de864f847fc1f49d90c32892ae73370e3c09c1140ea8",
    },
    "study-fig5a": {
        42: "cd1198ccd7cc4f090ab4ce71401eb2eb9c290db872b84f1bfaf851f9b9349588",
        43: "16e949a1e4e792e6fdd35151b3c3dc57ab068eb2ee181a4e30a082885ee112d5",
    },
}


# -- seeded inputs -------------------------------------------------------


def candidate_seeds(seed: int) -> Iterator[int]:
    """``seed`` itself, then a deterministic stream derived from it."""
    yield seed
    for k in itertools.count(1):
        digest = hashlib.sha256(f"{seed}/{k}".encode()).digest()
        yield int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def pick_seeds(
    seed: int,
    count: int,
    measure: Callable[[int], Iterator[Tuple[str, float]]],
    targets: Dict[str, Tuple[float, float]],
    limit: int = 5000,
) -> List[int]:
    """The first ``count`` candidates whose ``measure`` stats all lie
    within tolerance of ``targets``. ``measure`` yields stats lazily so
    a cheap one can reject a candidate first. If fewer match within
    ``limit`` candidates, the closest ones fill the list."""
    chosen: List[int] = []
    near: List[Tuple[float, int]] = []
    for candidate in itertools.islice(candidate_seeds(seed), limit):
        worst = 0.0
        for name, value in measure(candidate):
            target, tolerance = targets[name]
            worst = max(worst, abs(value / target - 1.0) / tolerance)
            if worst > 1.0:
                break
        if worst <= 1.0:
            chosen.append(candidate)
            if len(chosen) == count:
                return chosen
        else:
            near.append((worst, candidate))
    near.sort()
    return chosen + [candidate for _, candidate in near[: count - len(chosen)]]


def _profile():
    return profile_by_name(PROFILE)


def _serve_spec(seed: int) -> harness.WorkloadSpec:
    # num_jobs is run_serving's safety cap, not a target: the horizon
    # ends the stream.
    return harness.WorkloadSpec(
        profile=_profile(),
        num_jobs=100_000,
        utilization=SERVE_RHO,
        total_slots=SERVE_SLOTS,
        seed=seed,
    )


def _serve_stats(seed: int) -> Iterator[Tuple[str, float]]:
    """The offered stream ``run_serving`` builds from ``spec.seed``: the
    generator and calibration on the root source, arrivals on its
    "serving-arrivals" substream."""
    spec = _serve_spec(seed)
    source = RandomSource(seed=seed)
    generator = TraceGenerator(
        spec.profile,
        random_source=source,
        num_machines=spec.locality_machines,
        max_phase_tasks=spec.max_phase_tasks,
    )
    rate = calibrate_arrival_rate(generator, spec.total_slots, spec.utilization)
    yield "rate", rate
    process = make_arrival_process(
        "poisson", rate, source.child("serving-arrivals").rng
    )
    jobs = list(
        JobStream(
            generator,
            process,
            horizon=SERVE_REGIME.horizon,
            max_jobs=spec.num_jobs,
        )
    )
    work = sum(task.size for job in jobs for task in job.all_tasks())
    yield "load", work / (spec.total_slots * SERVE_REGIME.horizon)
    yield "jobs", len(jobs)
    yield "tasks", sum(job.num_tasks for job in jobs)


def _trace_stats(spec: harness.WorkloadSpec) -> Iterator[Tuple[str, float]]:
    trace = harness.build_trace(spec)
    yield "tasks", trace.total_tasks
    yield "work", trace.total_work


def _elastic_spec(seed: int) -> harness.WorkloadSpec:
    return harness.WorkloadSpec(
        profile=_profile(),
        num_jobs=ELASTIC_JOBS,
        utilization=ELASTIC_UTILIZATION,
        total_slots=ELASTIC_SLOTS,
        seed=seed,
    )


def _study_spec(seed: int) -> harness.WorkloadSpec:
    """The trace every quick-grid cell replays for ``seed``."""
    study = registry.studies().get(STUDY).factory
    return study.cells(quick=True)[0].make_spec(seed).workload.to_workload_spec()


def pick_serve(seed: int) -> dict:
    return {"seeds": pick_seeds(seed, 1, _serve_stats, SERVE_TARGETS)}


def pick_elastic(seed: int) -> dict:
    return {
        "seeds": pick_seeds(
            seed, 1, lambda s: _trace_stats(_elastic_spec(s)), ELASTIC_TARGETS
        )
    }


def pick_study(seed: int) -> dict:
    return {
        "seeds": pick_seeds(
            seed,
            STUDY_SEEDS,
            lambda s: _trace_stats(_study_spec(s)),
            STUDY_TARGETS,
        )
    }


# -- runs ------------------------------------------------------------------


@dataclass
class Context:
    """What a run gets besides its inputs: a scratch directory inside
    the checkout and the calls captured at the workload's entry point."""

    work_dir: Path
    captured: List[tuple] = field(default_factory=list)


@dataclass
class Outcome:
    """One run's outputs: the results whose tasks count as completed
    work, the checks made during the run, simulated counts for the
    per-layer metrics, and an optional replay that must reproduce the
    results. Digests are computed after the clock stops."""

    results: list
    checks: Dict[str, bool]
    counts: Dict[str, int] = field(default_factory=dict)
    replay: Optional[list] = None

    @property
    def tasks(self) -> int:
        return sum(job.num_tasks for result in self.results for job in result.jobs)

    @cached_property
    def digest(self) -> str:
        return results_digest(self.results)

    def verify(self) -> Dict[str, bool]:
        """Every check, including those too costly for the timed run."""
        checks = dict(self.checks)
        if self.replay is not None:
            same = results_digest(self.replay) == self.digest
            checks["replay digest equals first pass"] = same
        return checks

    def sim_counts(self) -> Dict[str, float]:
        results = self.results
        counts = {
            "spec.copies": sum(r.speculative_copies for r in results),
            "spec.wins": sum(r.speculative_wins for r in results),
            "slot.wasted": sum(r.wasted_slot_time for r in results),
            "slot.useful": sum(r.useful_slot_time for r in results),
        }
        counts.update(self.counts)
        return counts


def results_digest(results: list) -> str:
    """sha256 of the results' canonical ``result_to_dict`` JSON."""
    docs = [result_to_dict(result) for result in results]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_serve(plane: str) -> Callable[[dict, Context], Outcome]:
    def run(inputs: dict, ctx: Context) -> Outcome:
        result = driver.run_serving(
            _serve_spec(inputs["seeds"][0]),
            plane,
            "hopper",
            SERVE_REGIME,
            arrival_process="poisson",
            obs=None,
        )
        measured = result.serving["measured_jobs"]
        check = f"measured jobs >= {SERVE_MIN_MEASURED}"
        return Outcome([result], {check: measured >= SERVE_MIN_MEASURED})

    return run


def _resize_schedule(step: int) -> str:
    return ",".join(
        f"{RESIZE_INTERVAL * (i + 1):g}:{'-' if i % 2 == 0 else '+'}{step}"
        for i in range(RESIZES)
    )


def run_elastic(inputs: dict, ctx: Context) -> Outcome:
    spec = _elastic_spec(inputs["seeds"][0])
    trace = harness.build_trace(spec)
    # Both simulators exist before either runs; each plane resizes by 2%
    # of its fleet (25k machines, 100k workers).
    simulators = [
        harness.build_simulator(
            "hopper",
            trace,
            spec,
            plane=plane,
            autoscaler="schedule",
            resize_schedule=_resize_schedule(step),
            obs=None,
        )
        for plane, step in (("centralized", 500), ("decentralized", 2000))
    ]
    results = [simulator.run() for simulator in simulators]
    complete = all(len(result.jobs) == len(trace) for result in results)
    return Outcome(results, {"every job completes": complete})


def run_study(inputs: dict, ctx: Context) -> Outcome:
    seeds = ",".join(str(seed) for seed in inputs["seeds"])
    cache = str(ctx.work_dir / "cache")
    argv = ["study", STUDY, "--quick", "--seeds", seeds, "--serial"]
    argv += ["--cache", "--cache-dir", cache]
    codes = [cli.main(argv), cli.main(argv)]  # cold cache, then warm
    checks = {"exit codes 0": codes == [0, 0], "two sweeps": len(ctx.captured) == 2}
    if len(ctx.captured) != 2:
        return Outcome([], checks)
    (cold_runner, (specs,), cold), (warm_runner, _, warm) = ctx.captured
    cold_stats, warm_stats = cold_runner.stats, warm_runner.stats
    checks["every replayed job completes"] = all(
        result.num_jobs == spec.workload.num_jobs for spec, result in zip(specs, cold)
    )
    checks["warm pass executes 0"] = (
        warm_stats.executed == 0 and warm_stats.cache_hits == warm_stats.requested
    )
    counts = {
        "sweep.executed": cold_stats.executed + warm_stats.executed,
        "sweep.cache_hits": cold_stats.cache_hits + warm_stats.cache_hits,
    }
    return Outcome(list(cold), checks, counts, replay=list(warm))


@dataclass(frozen=True)
class Workload:
    """``entry`` is the (module, ``Class.method``) whose first call ends
    set-up; ``capture`` keeps every entry call for the checks."""

    name: str
    pick: Callable[[int], dict]
    run: Callable[[dict, Context], Outcome]
    entry: Tuple[str, str]
    capture: bool = False


_ENGINE = ("repro.simulation.engine", "Simulator.run")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("serve-central", pick_serve, _run_serve("centralized"), _ENGINE),
        Workload("serve-decentral", pick_serve, _run_serve("decentralized"), _ENGINE),
        Workload("elastic-100k", pick_elastic, run_elastic, _ENGINE),
        Workload(
            "study-fig5a",
            pick_study,
            run_study,
            ("repro.sweep.runner", "SweepRunner.run"),
            capture=True,
        ),
    )
}
