"""Experiment harness: one study per paper table/figure.

Each paper figure in :mod:`repro.experiments.figures` is one registered
:class:`repro.sweep.Study` holding its grid of cells, a ``reduce`` that
turns the study result into the figure's rows/series, and a ``render``
that prints them; adding a figure means writing those three in one
``Study``. ``figN_*`` names are aliases of ``FIGN_STUDY.figure``, and
``benchmarks/`` wraps them in pytest-benchmark targets that print
paper-vs-measured tables.
"""

from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)
from repro.experiments import figures
from repro.experiments.motivating import (
    MotivatingExampleResult,
    run_motivating_example,
)

__all__ = [
    "WorkloadSpec",
    "build_trace",
    "run_simulator",
    "figures",
    "MotivatingExampleResult",
    "run_motivating_example",
]
