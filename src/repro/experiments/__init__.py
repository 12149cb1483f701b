"""Experiment harness: one study per paper table/figure.

Each paper figure in :mod:`repro.experiments.figures` is one registered
:class:`repro.sweep.Study` holding its grid of cells, a ``reduce`` that
turns the study result into the figure's rows/series, and a ``render``
that prints them; adding a figure means writing those three in one
``Study``. ``figN_*`` names are aliases of ``FIGN_STUDY.figure``, and
``tests/test_paper_shapes.py`` checks what each figure must show.

Importing this package loads only :mod:`repro.experiments.harness`, the
trace and simulator builders every run goes through. The figure
catalogue (:mod:`repro.experiments.figures`, loaded by
:func:`repro.registry.studies`) and the §3 worked example
(:mod:`repro.experiments.motivating`) are submodules a caller imports
by name, e.g. ``from repro.experiments import figures``.
"""

from repro.experiments.harness import (
    WorkloadSpec,
    build_trace,
    run_simulator,
)

__all__ = [
    "WorkloadSpec",
    "build_trace",
    "run_simulator",
]
