"""``python -m repro`` — list and run paper figures, studies and sweeps.

Subcommands
-----------
``list``
    Show every registered figure, study, system, policy, straggler
    model and workload profile (everything resolves through
    :mod:`repro.registry`).
``run FIG [FIG ...]``
    Regenerate figures and print paper-vs-measured tables. ``--quick``
    uses scaled-down parameters (CI smoke scale); ``--cache`` makes
    repeated invocations incremental via ``.repro-cache/``.
``study NAME [NAME ...]``
    Run registered studies with seed replication (``--seeds 1,2,3``)
    and print per-cell mean / p95 / bootstrap-CI tables.
``sweep``
    Run an ad-hoc (system x utilization x seed) grid and print mean job
    durations — the building block for custom scale-out studies.
``cache``
    Inspect (``stats``), prune (``prune [--older-than DAYS]``) or clear
    the on-disk result cache.
``workload preview PROFILE --rho 0.9``
    Print the calibrated open-loop arrival rate for a profile at a
    target utilization plus a per-window arrival-count table for every
    registered arrival process (the serving regime's traffic shapes).
``trace capture / trace export``
    Record a structured JSONL event trace of one instrumented run, and
    convert it to Chrome ``chrome://tracing`` / Perfetto JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro import registry
from repro.metrics.tables import print_table

if TYPE_CHECKING:
    from repro.sweep import Study, SweepRunner

# Each subcommand imports what it runs (the sweep, the figure catalogue,
# a plane), so a process pays only for the command it was given.


def _figures() -> Dict[str, Study]:
    """Registered studies that render a paper figure, by name."""
    return {
        entry.name: entry.factory
        for entry in registry.studies().entries()
        if entry.factory.render is not None
    }


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _build_runner(args: argparse.Namespace) -> SweepRunner:
    from repro.sweep import ResultCache, SweepRunner

    cache = None
    if getattr(args, "cache", False):
        cache = ResultCache(root=getattr(args, "cache_dir", None))
    parallel: Optional[bool] = None
    if getattr(args, "serial", False):
        parallel = False
    elif getattr(args, "jobs", None):
        parallel = True
    return SweepRunner(
        max_workers=getattr(args, "jobs", None),
        cache=cache,
        parallel=parallel,
    )


def _print_stats(runner: SweepRunner) -> None:
    stats = runner.stats
    if stats.requested:
        print(
            f"\n[sweep] {stats.requested} runs requested: "
            f"{stats.cache_hits} cache hit(s), {stats.deduplicated} "
            f"deduplicated, {stats.executed} executed"
            f"{' in parallel' if stats.parallel else ''}"
        )


def _print_entries(title: str, entries) -> None:
    print(f"\n{title}:")
    width = max((len(entry.name) for entry in entries), default=0)
    for entry in entries:
        print(f"  {entry.name.ljust(width)}  {entry.description}")


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    _print_entries(
        "Available figures (python -m repro run <name> [...])",
        list(_figures().values()),
    )
    _print_entries(
        "Studies (python -m repro study <name> --seeds 1,2,3)",
        registry.studies().entries(),
    )
    print("\nSystems (python -m repro sweep --kind <plane> ...):")
    systems = registry.SYSTEMS.entries()
    plane_width = max((len(e.plane) for e in systems), default=0)
    name_width = max((len(e.name) for e in systems), default=0)
    for entry in systems:
        print(
            f"  {entry.plane.ljust(plane_width)}  "
            f"{entry.name.ljust(name_width)}  {entry.description}"
        )
    for kind_entry in registry.SPEC_KINDS.entries():
        kind = kind_entry.factory
        if kind.knobs:
            knobs = ", ".join(
                f"{knob.name}:{registry.type_label(knob.type)}"
                for knob in kind.knobs.values()
            )
            print(f"\n{kind.name} knobs ({kind.description}):\n  {knobs}")
    _print_entries(
        "Speculation policies", registry.SPECULATION_POLICIES.entries()
    )
    _print_entries("Straggler models", registry.STRAGGLER_MODELS.entries())
    _print_entries(
        "Blacklist policies (mid-run machine eviction)",
        registry.BLACKLIST_POLICIES.entries(),
    )
    _print_entries(
        "Autoscaler policies (mid-run cluster resizes)",
        registry.AUTOSCALER_POLICIES.entries(),
    )
    _print_entries("Arrival processes (serving)", ARRIVAL_PROCESSES.entries())
    _print_entries("Workload profiles", registry.WORKLOAD_PROFILES.entries())
    print(
        "\nAll figures and studies accept --quick (CI smoke scale), "
        "--serial / --jobs N, and --cache / --cache-dir."
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    figures = _figures()
    unknown = [name for name in args.figures if name not in figures]
    if unknown:
        print(
            f"unknown figure(s): {', '.join(unknown)}; "
            f"try: python -m repro list",
            file=sys.stderr,
        )
        return 2
    runner = _build_runner(args)
    for name in args.figures:
        study = figures[name]
        study.render(study.figure(quick=args.quick, runner=runner))
    _print_stats(runner)
    return 0


def _parse_floats(text: str) -> List[float]:
    return [float(v) for v in text.split(",") if v]


def _parse_ints(text: str) -> List[int]:
    return [int(v) for v in text.split(",") if v]


def _cmd_sweep(args: argparse.Namespace) -> int:
    valid = [entry.name for entry in registry.SYSTEMS.entries(args.kind)]
    systems = [s for s in args.systems.split(",") if s]
    unknown = [s for s in systems if s not in valid]
    if unknown:
        print(
            f"unknown {args.kind} system(s): {', '.join(unknown)}; "
            f"expected one of {', '.join(valid)}",
            file=sys.stderr,
        )
        return 2
    from repro.sweep import RunSpec, WorkloadParams

    try:
        specs = [
            RunSpec(
                args.kind,
                system,
                WorkloadParams(
                    profile=args.profile,
                    num_jobs=args.num_jobs,
                    utilization=utilization,
                    total_slots=args.total_slots,
                    seed=seed,
                ),
                speculation=args.speculation,
            )
            for system in systems
            for utilization in _parse_floats(args.utilizations)
            for seed in _parse_ints(args.seeds)
        ]
    except ValueError as exc:
        print(f"invalid sweep parameters: {exc}", file=sys.stderr)
        return 2
    runner = _build_runner(args)
    results = runner.run(specs)
    print_table(
        f"Sweep: {args.kind} systems on {args.profile!r} "
        f"({args.num_jobs} jobs, {args.total_slots} slots)",
        ("system", "utilization", "seed", "jobs", "mean duration"),
        [
            (
                spec.system,
                spec.workload.utilization,
                spec.workload.seed,
                result.num_jobs,
                result.mean_job_duration,
            )
            for spec, result in zip(specs, results)
        ],
    )
    _print_stats(runner)
    return 0


def _print_profile(name: str, result) -> None:
    """Per-phase wall-time table aggregated over a study's runs.

    Only instrumented runs contribute (cache hits recorded without
    ``REPRO_OBS`` carry no report); with none, say so rather than
    printing an empty table.
    """
    from repro.obs import aggregate_counters, aggregate_timers

    reports = [
        r.obs
        for per_cell in result.results
        for r in per_cell
        if r.obs is not None
    ]
    timers = aggregate_timers(reports)
    if not timers:
        print(
            f"\n[profile] study {name}: no phase timings recorded "
            f"(runs may have been served from a cache written without "
            f"REPRO_OBS)"
        )
        return
    total = sum(cell["seconds"] for cell in timers.values())
    print_table(
        f"Profile {name}: wall seconds by phase "
        f"({len(reports)} instrumented run(s))",
        ("phase", "calls", "seconds", "share %"),
        [
            (
                phase,
                cell["calls"],
                round(cell["seconds"], 6),
                round(100.0 * cell["seconds"] / total, 1) if total else 0.0,
            )
            for phase, cell in timers.items()
        ],
    )
    counters = aggregate_counters(reports)
    if counters:
        print_table(
            f"Profile {name}: event counters",
            ("counter", "count"),
            sorted(counters.items()),
        )


def _cmd_study(args: argparse.Namespace) -> int:
    study_registry = registry.studies()
    unknown = [name for name in args.studies if name not in study_registry]
    if unknown:
        print(
            f"unknown study(s): {', '.join(unknown)}; "
            f"try: python -m repro list",
            file=sys.stderr,
        )
        return 2
    seeds: Optional[List[int]] = (
        _parse_ints(args.seeds) if args.seeds else None
    )
    if seeds is not None and not seeds:
        print("--seeds needs at least one integer", file=sys.stderr)
        return 2
    runner = _build_runner(args)
    ci_pct = round(args.confidence * 100)
    profile = getattr(args, "profile", False)
    saved_obs = None
    if profile:
        # The sweep layer enables observability out-of-band (REPRO_OBS
        # propagates into pool workers) so RunSpec digests stay pinned.
        from repro.obs import OBS_ENV

        saved_obs = os.environ.get(OBS_ENV)
        os.environ[OBS_ENV] = "1"
    try:
        for name in args.studies:
            study = study_registry.get(name).factory
            result = study.run(seeds=seeds, runner=runner, quick=args.quick)
            rows = result.aggregate(
                metric=study.metric,
                confidence=args.confidence,
                resamples=args.resamples,
            )
            axes = [key for key, _ in rows[0].labels]
            print_table(
                f"Study {name}: {study.description} "
                f"[{study.metric_name}; "
                f"seeds {','.join(str(s) for s in result.seeds)}]",
                tuple(axes)
                + ("n", "mean", "p95", f"ci{ci_pct:g} lo", f"ci{ci_pct:g} hi"),
                [
                    tuple(value for _, value in row.labels)
                    + (row.n, row.mean, row.p95, row.ci_lower, row.ci_upper)
                    for row in rows
                ],
            )
            if profile:
                _print_profile(name, result)
    finally:
        if profile:
            from repro.obs import OBS_ENV

            if saved_obs is None:
                os.environ.pop(OBS_ENV, None)
            else:
                os.environ[OBS_ENV] = saved_obs
    _print_stats(runner)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sweep import ResultCache

    cache = ResultCache(root=args.cache_dir)
    if args.clear and args.action != "info":
        print(
            f"--clear cannot be combined with 'cache {args.action}'; "
            f"use plain 'cache --clear'",
            file=sys.stderr,
        )
        return 2
    if args.older_than is not None and args.action != "prune":
        print(
            "--older-than only applies to 'cache prune'",
            file=sys.stderr,
        )
        return 2
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    if args.action == "stats":
        rows = cache.stats()
        print_table(
            f"Cache stats for {cache.root}",
            ("version", "entries", "bytes", "current"),
            [
                (
                    row["version_tag"],
                    row["entries"],
                    row["bytes"],
                    "*" if row["current"] else "",
                )
                for row in rows
            ],
        )
        total_entries = sum(row["entries"] for row in rows)
        total_bytes = sum(row["bytes"] for row in rows)
        print(f"\ntotal: {total_entries} entr(ies), {total_bytes} bytes")
        return 0
    if args.action == "prune":
        removed, freed = cache.prune(older_than_days=args.older_than)
        scope = (
            "stale version namespaces"
            if args.older_than is None
            else f"stale namespaces + entries older than "
            f"{args.older_than:g} day(s)"
        )
        print(
            f"pruned {removed} entr(ies), freed {freed} bytes "
            f"({scope}) from {cache.root}"
        )
        return 0
    print(f"cache directory : {cache.directory}")
    print(f"entries         : {cache.entry_count()}")
    print(f"size            : {cache.size_bytes()} bytes")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Obs, Tracer

    if args.action == "export":
        try:
            records = Tracer.read_jsonl(args.input)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {args.input!r}: {exc}", file=sys.stderr)
            return 2
        doc = Tracer.chrome_trace(records)
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.write("\n")
        print(
            f"wrote {len(doc['traceEvents'])} trace event(s) to "
            f"{args.output} (open in chrome://tracing or "
            f"https://ui.perfetto.dev)"
        )
        return 0

    # capture: one instrumented run, trace written as JSONL.
    valid = [entry.name for entry in registry.SYSTEMS.entries(args.kind)]
    if args.system not in valid:
        print(
            f"unknown {args.kind} system {args.system!r}; "
            f"expected one of {', '.join(valid)}",
            file=sys.stderr,
        )
        return 2
    from repro.experiments.harness import (
        WorkloadSpec,
        build_trace,
        run_simulator,
    )
    from repro.workload.generator import profile_by_name

    try:
        spec = WorkloadSpec(
            profile=profile_by_name(args.profile),
            num_jobs=args.num_jobs,
            utilization=args.utilization,
            total_slots=args.total_slots,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        print(f"invalid capture parameters: {exc}", file=sys.stderr)
        return 2
    obs = Obs(trace=True)
    result = run_simulator(
        args.system,
        build_trace(spec),
        spec,
        plane=args.kind,
        speculation=args.speculation,
        run_seed=args.run_seed,
        obs=obs,
    )
    count = obs.tracer.write_jsonl(args.output)
    print(
        f"wrote {count} trace record(s) to {args.output} "
        f"({args.kind} {args.system}, {result.num_jobs} jobs, "
        f"{obs.tracer.open_spans()} span(s) left open)"
    )
    print(
        f"next: python -m repro trace export {args.output} "
        f"--output trace.chrome.json"
    )
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.serving.arrivals import (
        ARRIVAL_PROCESSES,
        calibrate_arrival_rate,
        estimate_mean_job_work,
        make_arrival_process,
    )
    from repro.simulation.rng import RandomSource
    from repro.workload.generator import TraceGenerator, profile_by_name

    try:
        profile = profile_by_name(args.profile)
    except (KeyError, registry.UnknownEntryError):
        print(
            f"unknown workload profile {args.profile!r}; "
            f"try: python -m repro list",
            file=sys.stderr,
        )
        return 2
    if not 0.0 < args.rho < 1.0:
        print("--rho must be in (0, 1)", file=sys.stderr)
        return 2
    if args.windows < 1 or args.window <= 0:
        print("--windows must be >= 1 and --window positive", file=sys.stderr)
        return 2

    source = RandomSource(seed=args.seed)
    generator = TraceGenerator(profile, random_source=source)
    mean_work = estimate_mean_job_work(generator)
    rate = calibrate_arrival_rate(generator, args.total_slots, args.rho)
    print(f"profile              : {args.profile}")
    print(f"total slots          : {args.total_slots}")
    print(f"mean job work E[W]   : {mean_work:.2f} slot-seconds (probe)")
    print(f"target rho           : {args.rho:g}")
    print(
        f"calibrated rate      : {rate:.4f} jobs/s "
        f"(lambda = rho * slots / E[W])"
    )
    print(
        f"expected utilization : {args.rho:.0%} of {args.total_slots} slots"
    )
    print(f"expected per window  : {rate * args.window:.1f} arrivals")

    # One seeded realization of every registered arrival process,
    # bucketed into the preview windows. Same rate, independent child
    # streams -- the table shows *shape* (burstiness, swing), not noise.
    names = ARRIVAL_PROCESSES.names()
    horizon = args.window * args.windows
    counts: Dict[str, List[int]] = {}
    for name in names:
        process = make_arrival_process(
            name, rate, source.child(f"preview-{name}").rng
        )
        per_window = [0] * args.windows
        now = 0.0
        while True:
            now += process.next_interarrival(now)
            if now >= horizon:
                break
            per_window[int(now // args.window)] += 1
        counts[name] = per_window
    rows: List[tuple] = [
        (f"[{i * args.window:g}, {(i + 1) * args.window:g})",)
        + tuple(counts[name][i] for name in names)
        for i in range(args.windows)
    ]
    rows.append(("total",) + tuple(sum(counts[name]) for name in names))
    print_table(
        f"Arrival counts per {args.window:g}s window "
        f"(rho={args.rho:g}, seed={args.seed})",
        ("window",) + tuple(names),
        rows,
    )
    return 0


def _cmd_plane(args: argparse.Namespace) -> int:
    try:
        entry = registry.SYSTEMS.get(args.system, plane=args.plane)
    except registry.RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"system      : {entry.name}")
    print(f"plane       : {entry.plane}")
    print(f"qualified   : {entry.qualified}")
    print(f"description : {entry.description}")
    try:
        kind = registry.spec_kind(entry.plane)
    except registry.UnknownEntryError:
        kind = None
    if kind is not None and kind.knobs:
        print(f"\nknobs ({kind.description}):")
        for knob in kind.knobs.values():
            print(
                f"  {knob.name:<18} {registry.type_label(knob.type):<7} "
                f"default={knob.default}"
            )
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--serial",
        action="store_true",
        help="force in-process serial execution",
    )
    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    parser.add_argument(
        "--jobs",
        "-j",
        type=positive_int,
        default=None,
        metavar="N",
        help="worker processes for the sweep pool (default: cpu count)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse/persist results in the on-disk cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hopper (SIGCOMM 2015) reproduction: regenerate paper figures "
            "and run custom sweeps with parallel, cached orchestration."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list available figures"
    )
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run figures and print paper-vs-measured tables"
    )
    run_parser.add_argument("figures", nargs="+", metavar="FIG")
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down parameters (seconds, for smoke tests)",
    )
    _add_runner_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    study_parser = subparsers.add_parser(
        "study",
        help=(
            "run registered studies with seed replication and print "
            "mean/p95/bootstrap-CI tables"
        ),
    )
    study_parser.add_argument("studies", nargs="+", metavar="STUDY")
    study_parser.add_argument(
        "--seeds",
        default=None,
        metavar="S1,S2,...",
        help="comma-separated seeds (default: the study's own seed list)",
    )
    study_parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down grid parameters (seconds, for smoke tests)",
    )
    study_parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        metavar="C",
        help="bootstrap confidence level (default: 0.95)",
    )
    study_parser.add_argument(
        "--resamples",
        type=int,
        default=2000,
        metavar="N",
        help="bootstrap resamples (default: 2000)",
    )
    study_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run with REPRO_OBS=1 and print per-phase wall-time and "
            "counter tables after each study"
        ),
    )
    _add_runner_arguments(study_parser)
    study_parser.set_defaults(handler=_cmd_study)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run an ad-hoc (system x utilization x seed) grid"
    )
    sweep_parser.add_argument(
        "--kind",
        choices=("centralized", "decentralized", "batch"),
        default="decentralized",
    )
    sweep_parser.add_argument(
        "--systems",
        default="hopper,sparrow-srpt",
        help="comma-separated systems (default: hopper,sparrow-srpt)",
    )
    sweep_parser.add_argument(
        "--profile",
        default="spark-facebook",
        help="workload profile name (default: spark-facebook)",
    )
    sweep_parser.add_argument(
        "--utilizations",
        default="0.6,0.8",
        help="comma-separated target utilizations (default: 0.6,0.8)",
    )
    sweep_parser.add_argument(
        "--seeds",
        default="42",
        help="comma-separated trace seeds (default: 42)",
    )
    sweep_parser.add_argument("--num-jobs", type=int, default=100)
    sweep_parser.add_argument("--total-slots", type=int, default=300)
    sweep_parser.add_argument(
        "--speculation",
        choices=("late", "mantri", "grass", "none"),
        default="late",
    )
    _add_runner_arguments(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, prune or clear the result cache"
    )
    cache_parser.add_argument(
        "action",
        nargs="?",
        choices=("info", "stats", "prune"),
        default="info",
        help=(
            "info: current-version summary (default); stats: per-version "
            "digest-count/bytes table; prune: drop stale entries"
        ),
    )
    cache_parser.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help=(
            "with prune: also drop current-version entries older than "
            "DAYS days"
        ),
    )
    cache_parser.add_argument(
        "--clear", action="store_true", help="delete all cached results"
    )
    cache_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    cache_parser.set_defaults(handler=_cmd_cache)

    trace_parser = subparsers.add_parser(
        "trace",
        help="capture a structured event trace / export it for Perfetto",
    )
    trace_sub = trace_parser.add_subparsers(dest="action", required=True)
    capture_parser = trace_sub.add_parser(
        "capture",
        help="run one instrumented simulation and write a JSONL trace",
    )
    capture_parser.add_argument(
        "--kind",
        choices=("centralized", "decentralized", "batch"),
        default="decentralized",
    )
    capture_parser.add_argument(
        "--system",
        default="hopper",
        help="system / policy name for the chosen kind (default: hopper)",
    )
    capture_parser.add_argument(
        "--profile",
        default="spark-facebook",
        help="workload profile name (default: spark-facebook)",
    )
    capture_parser.add_argument("--num-jobs", type=int, default=50)
    capture_parser.add_argument("--total-slots", type=int, default=200)
    capture_parser.add_argument("--utilization", type=float, default=0.7)
    capture_parser.add_argument("--seed", type=int, default=42)
    capture_parser.add_argument("--run-seed", type=int, default=7)
    capture_parser.add_argument(
        "--speculation",
        choices=("late", "mantri", "grass", "none"),
        default="late",
    )
    capture_parser.add_argument(
        "--output",
        default="trace.jsonl",
        metavar="PATH",
        help="JSONL trace destination (default: trace.jsonl)",
    )
    capture_parser.set_defaults(handler=_cmd_trace)
    export_parser = trace_sub.add_parser(
        "export",
        help=(
            "convert a JSONL trace to Chrome chrome://tracing / Perfetto "
            "JSON"
        ),
    )
    export_parser.add_argument("input", metavar="TRACE.jsonl")
    export_parser.add_argument(
        "--output",
        default="trace.chrome.json",
        metavar="PATH",
        help="Chrome trace destination (default: trace.chrome.json)",
    )
    export_parser.set_defaults(handler=_cmd_trace)

    plane_parser = subparsers.add_parser(
        "plane", help="inspect the plane-tagged systems registry"
    )
    plane_sub = plane_parser.add_subparsers(dest="action", required=True)
    info_parser = plane_sub.add_parser(
        "info",
        help=(
            "resolve a system (bare or plane-qualified like batch/hopper) "
            "and print its plane, description and spec-kind knobs"
        ),
    )
    info_parser.add_argument(
        "system", help="system name, optionally qualified as plane/name"
    )
    info_parser.add_argument(
        "--plane",
        default=None,
        help="disambiguate a bare name registered on several planes",
    )
    info_parser.set_defaults(handler=_cmd_plane)

    workload_parser = subparsers.add_parser(
        "workload", help="workload / arrival-stream inspection helpers"
    )
    workload_sub = workload_parser.add_subparsers(dest="action", required=True)
    preview_parser = workload_sub.add_parser(
        "preview",
        help=(
            "print the calibrated open-loop arrival rate for a profile "
            "and a per-window arrival-count table for every registered "
            "arrival process"
        ),
    )
    preview_parser.add_argument("profile", metavar="PROFILE")
    preview_parser.add_argument(
        "--rho",
        type=float,
        default=0.9,
        help="target utilization in (0, 1) (default: 0.9)",
    )
    preview_parser.add_argument("--total-slots", type=int, default=400)
    preview_parser.add_argument("--seed", type=int, default=42)
    preview_parser.add_argument(
        "--windows",
        type=int,
        default=10,
        metavar="N",
        help="number of preview windows (default: 10)",
    )
    preview_parser.add_argument(
        "--window",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="window length in virtual seconds (default: 20)",
    )
    preview_parser.set_defaults(handler=_cmd_workload)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro list | head -1``). Point
        # stdout at devnull so the interpreter's exit-time flush cannot
        # raise again, and fail without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
