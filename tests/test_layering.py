"""Start-up imports follow use: a run loads only the plane it runs.

Each check starts a fresh interpreter, runs a snippet, and lists the
``repro`` modules it left in ``sys.modules``. The entry points a serving
run imports must not pull in the other planes, the sweep or the figure
catalogue, and a run on one plane must not load another plane's
simulator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

#: What ``benchmarks/e2e/workloads.py`` imports before any run.
ENTRY_POINTS = (
    "import repro.cli, repro.registry, repro.experiments.harness, "
    "repro.serving, repro.metrics.serialize\n"
)

#: The figure catalogue: every module ``repro.registry.studies`` loads,
#: and the §3 worked example.
FIGURE_MODULES = (
    "repro.experiments.batch",
    "repro.experiments.blacklist",
    "repro.experiments.blacklist_policy",
    "repro.experiments.elastic",
    "repro.experiments.figures",
    "repro.experiments.motivating",
    "repro.experiments.scale",
    "repro.experiments.serving",
)

SMALL_SPEC = (
    "from repro.experiments.harness import WorkloadSpec, build_trace\n"
    "from repro.workload.generator import profile_by_name\n"
    "spec = WorkloadSpec(profile=profile_by_name('spark-facebook'),"
    " num_jobs=20, utilization=0.6, total_slots=40, seed=3)\n"
)


def _loaded(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    code += (
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_OBS", None)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def _within(loaded: set, packages) -> list:
    """The modules of ``loaded`` that are one of ``packages`` or inside
    one of them."""
    return sorted(
        name
        for name in loaded
        for package in packages
        if name == package or name.startswith(package + ".")
    )


#: Nothing a centralized serving run needs.
NOT_CENTRALIZED_SERVING = (
    "repro.decentralized",
    "repro.batch",
    "repro.sweep",
) + FIGURE_MODULES


def test_entry_points_load_no_plane_sweep_or_figure():
    loaded = _loaded(ENTRY_POINTS)
    assert _within(loaded, NOT_CENTRALIZED_SERVING) == []
    assert _within(loaded, ("repro.centralized", "repro.core")) == []


def test_centralized_serving_run_loads_no_other_plane():
    loaded = _loaded(
        ENTRY_POINTS
        + SMALL_SPEC
        + "from repro.serving import ServingRegime, run_serving\n"
        "result = run_serving(spec, 'centralized', 'hopper',"
        " ServingRegime(warmup=1.0, horizon=20.0, cooldown=5.0, window=5.0),"
        " obs=None)\n"
        "assert result.serving['measured_jobs'] > 0\n"
    )
    assert "repro.centralized.simulator" in loaded
    assert _within(loaded, NOT_CENTRALIZED_SERVING) == []


@pytest.mark.parametrize("serving", [False, True], ids=["replay", "serving"])
def test_decentralized_run_loads_no_centralized_plane(serving):
    if serving:
        run = (
            "from repro.serving import ServingRegime, run_serving\n"
            "result = run_serving(spec, 'decentralized', 'hopper',"
            " ServingRegime(warmup=1.0, horizon=20.0, cooldown=5.0,"
            " window=5.0))\n"
        )
    else:
        run = (
            "from repro.experiments.harness import run_simulator\n"
            "result = run_simulator('decentralized/hopper',"
            " build_trace(spec), spec)\n"
        )
    loaded = _loaded(
        ENTRY_POINTS + SMALL_SPEC + run + "assert result.jobs\n"
    )
    assert "repro.decentralized.simulator" in loaded
    assert _within(
        loaded,
        (
            "repro.centralized",
            "repro.core.incremental",
            "repro.batch",
            "repro.sweep",
        )
        + FIGURE_MODULES,
    ) == []


def test_figures_still_import_by_name():
    """Dropping the re-exports keeps ``from repro.experiments import
    figures`` working, and the package names resolve on first use."""
    loaded = _loaded(
        "from repro.experiments import figures, motivating\n"
        "from repro.centralized import CentralizedSimulator\n"
        "from repro import hopper_allocation\n"
        "import repro.cluster as cluster\n"
        "assert cluster.Cluster.__module__ == 'repro.cluster.cluster'\n"
    )
    assert {"repro.experiments.figures", "repro.core.incremental"} <= loaded
