"""Smoke tests for the ``python -m repro`` CLI."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser, main


def test_list_prints_every_figure(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3", "fig6", "fig12", "headline"):
        assert name in out


def test_run_rejects_unknown_figure(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_run_fig7_prints_bins_in_size_order(capsys):
    assert main(["run", "fig7", "--quick", "--serial"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("job bin"))
    rows = [line.split()[0] for line in lines[start + 1 :] if line.strip()]
    assert rows[:4] == ["1-50", "51-150", "151-500", "overall"]


def test_run_quick_figure_with_cache(tmp_path, capsys):
    args = [
        "run",
        "fig7",
        "--quick",
        "--serial",
        "--cache",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "Fig 7" in first
    assert "2 executed" in first

    assert main(args) == 0
    second = capsys.readouterr().out
    assert "2 cache hit(s)" in second
    assert "0 executed" in second
    # The measured table itself is identical across cached re-runs.
    assert [l for l in first.splitlines() if "===" in l or "." in l][:5] == [
        l for l in second.splitlines() if "===" in l or "." in l
    ][:5]


def test_sweep_command(tmp_path, capsys):
    assert (
        main(
            [
                "sweep",
                "--systems",
                "hopper",
                "--utilizations",
                "0.6",
                "--seeds",
                "42",
                "--num-jobs",
                "10",
                "--total-slots",
                "40",
                "--serial",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "hopper" in out and "1 runs requested" in out


def test_sweep_rejects_unknown_system(capsys):
    assert main(["sweep", "--systems", "bogus"]) == 2
    assert "unknown decentralized system" in capsys.readouterr().err


def test_cache_stats_and_prune_commands(tmp_path, capsys):
    cache_dir = str(tmp_path)
    main(
        [
            "run",
            "fig7",
            "--quick",
            "--serial",
            "--cache",
            "--cache-dir",
            cache_dir,
        ]
    )
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "Cache stats" in out
    assert "2 entr(ies)" in out

    # A stale version namespace appears in stats and prune removes it.
    from repro.sweep import ResultCache, RunSpec, WorkloadParams

    stale = ResultCache(root=cache_dir, version_tag="v0.0.0-stale")
    spec = RunSpec(
        "decentralized",
        "hopper",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=10,
            utilization=0.6,
            total_slots=40,
            max_phase_tasks=20,
        ),
    )
    stale.put(spec, spec.execute())
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "v0.0.0-stale" in capsys.readouterr().out

    assert main(["cache", "prune", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 entr(ies)" in out
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries         : 2" in capsys.readouterr().out

    assert (
        main(
            [
                "cache",
                "prune",
                "--older-than",
                "0",
                "--cache-dir",
                cache_dir,
            ]
        )
        == 0
    )
    assert "pruned 2 entr(ies)" in capsys.readouterr().out


def test_cache_rejects_conflicting_flags(tmp_path, capsys):
    cache_dir = str(tmp_path)
    assert main(["cache", "stats", "--clear", "--cache-dir", cache_dir]) == 2
    assert "--clear" in capsys.readouterr().err
    assert main(["cache", "prune", "--clear", "--cache-dir", cache_dir]) == 2
    capsys.readouterr()
    assert (
        main(["cache", "--older-than", "30", "--cache-dir", cache_dir]) == 2
    )
    assert "--older-than" in capsys.readouterr().err


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path)
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries         : 0" in capsys.readouterr().out
    main(
        [
            "run",
            "fig7",
            "--quick",
            "--serial",
            "--cache",
            "--cache-dir",
            cache_dir,
        ]
    )
    capsys.readouterr()
    assert main(["cache", "--cache-dir", cache_dir]) == 0
    assert "entries         : 2" in capsys.readouterr().out
    assert main(["cache", "--clear", "--cache-dir", cache_dir]) == 0
    assert "removed 2" in capsys.readouterr().out


def test_trace_capture_and_export(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.jsonl")
    chrome_path = str(tmp_path / "trace.chrome.json")
    assert main(
        [
            "trace", "capture",
            "--num-jobs", "8",
            "--total-slots", "40",
            "--output", trace_path,
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "trace record(s)" in out

    assert main(
        ["trace", "export", trace_path, "--output", chrome_path]
    ) == 0
    out = capsys.readouterr().out
    assert "trace event(s)" in out
    import json

    doc = json.loads(open(chrome_path).read())
    assert doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i"}


def test_trace_capture_rejects_unknown_system(capsys):
    assert main(["trace", "capture", "--system", "bogus"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_trace_export_rejects_missing_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    assert main(["trace", "export", missing]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_study_profile_prints_phase_table(capsys, monkeypatch):
    import os

    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert main(
        ["study", "fig6", "--quick", "--serial", "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "engine.dispatch" in out
    assert "msg.sent" in out
    # The env toggle must not leak past the command.
    assert "REPRO_OBS" not in os.environ


def test_batch_study_profile_reports_allocation_phases(capsys, monkeypatch):
    # The batch plane rides the incremental allocation engine; its
    # profile must break out the per-round allocation cost (state
    # refresh + policy solve) so regressions there are visible.
    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert main(
        ["study", "batch_rounds", "--quick", "--serial", "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "policy.allocate" in out
    assert "alloc.refresh" in out


def test_elastic_study_profile_reports_resize_counters(capsys, monkeypatch):
    # --profile turns on counters without a tracer; resizes must count
    # instead of dereferencing the missing tracer.
    monkeypatch.delenv("REPRO_OBS", raising=False)
    assert main(["study", "elastic", "--quick", "--serial", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "elastic.machines_removed" in out
    assert "elastic.add_machine_events" in out


def test_workload_preview_prints_calibration_and_arrival_table(capsys):
    assert main(
        [
            "workload",
            "preview",
            "spark-facebook",
            "--rho",
            "0.85",
            "--total-slots",
            "80",
            "--windows",
            "4",
            "--window",
            "5",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "calibrated rate" in out
    assert "expected utilization : 85%" in out
    for name in ("poisson", "diurnal", "bursty"):
        assert name in out
    # 4 preview windows plus the totals row.
    assert "[15, 20)" in out
    assert "total" in out


def test_workload_preview_is_deterministic(capsys):
    args = ["workload", "preview", "spark-facebook", "--rho", "0.9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_workload_preview_rejects_bad_inputs(capsys):
    assert main(["workload", "preview", "no-such-profile"]) == 2
    assert "unknown workload profile" in capsys.readouterr().err
    assert main(
        ["workload", "preview", "spark-facebook", "--rho", "1.5"]
    ) == 2
    assert "--rho must be in (0, 1)" in capsys.readouterr().err


def _readme_commands():
    """Every ``python -m repro ...`` command line in README.md's fenced
    code blocks, as an argument list: continuation lines are joined, and
    environment assignments, a leading ``#`` (a command quoted in a code
    comment) and trailing shell comments are dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme.read_text(), re.M | re.S)
    command = re.compile(r"^\s*(?:#\s*)?(?:\w+=\S+\s+)*python3? -m repro\b(.*)$")
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            match = command.match(line)
            if match:
                commands.append(shlex.split(match.group(1), comments=True))
    return commands


def test_every_readme_command_parses():
    commands = _readme_commands()
    assert len(commands) > 20  # the extraction found the examples
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0], argv


def test_every_readme_study_names_a_registered_study():
    """A README ``repro study NAME`` (a command or prose) must name a
    study a fresh ``repro`` process knows: one that a user script
    registers exists only inside that script's process."""
    from repro.registry import studies

    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = re.findall(r"\brepro study (\w[\w-]*)", readme.read_text())
    assert len(names) > 5  # the extraction found the examples
    known = set(studies().names())
    assert [name for name in names if name not in known] == []


def test_closed_stdout_exits_without_traceback():
    """``python -m repro list | head -1``: a reader that closes the pipe
    after one line must not make the CLI print a traceback. A reader
    that closed it before the first write makes every write fail, so
    that run must also exit non-zero."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "repro", "list"]

    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as process:
        process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.wait(timeout=60)
    assert "Traceback" not in stderr, stderr

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(
            command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    stderr = closed.stderr.decode()
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert closed.returncode != 0
