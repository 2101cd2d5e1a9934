"""Per-table/figure experiment modules.

Each ``run`` computes one artefact of the paper and returns a result with
a ``table()``; the ``paper``-tagged :mod:`repro.bench` entries under
``benchmarks/`` are their only callers outside the tests.
"""

from . import (
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
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
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ilp_quality",
    "thread_scaling",
]
