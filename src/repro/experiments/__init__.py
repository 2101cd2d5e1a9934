"""Per-table/figure experiment modules.

Each table module's ``run`` computes one artefact of the paper and
returns a result with a ``table()``.  Figs. 5-9 are five readings of one
grid of runs, :func:`~repro.experiments.sweep.run_sweep`, whose
:class:`~repro.experiments.sweep.SweepResult` holds their tables and the
values computed from several reports.  The ``paper``-tagged
:mod:`repro.bench` entries under ``benchmarks/`` are their only callers
outside the tests.
"""

from . import (
    fig10,
    ilp_quality,
    sweep,
    table1,
    table2,
    table3,
    table4,
    thread_scaling,
)
from .common import SCALES, Scale, suite_circuits

__all__ = [
    "SCALES",
    "Scale",
    "suite_circuits",
    "sweep",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig10",
    "ilp_quality",
    "thread_scaling",
]
