"""Shared plumbing for the pytest benchmark harness.

Kept outside ``conftest.py`` so the ``bench_*`` scripts can import it
under a module name that never collides with ``tests/conftest.py``
(``repro.bench.load_benchmarks`` imports every script in-process, also
under pytest).  The registry itself lives in :mod:`repro.bench`; this
module only carries the pytest-benchmark glue.
"""

from __future__ import annotations

import os

from repro.config import env


def run_once(benchmark, fn):
    """Benchmark an experiment end-to-end exactly once.

    Experiment regenerations are end-to-end timings, not
    micro-benchmarks: ``pedantic`` with a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def save_result_text(name: str, text: str) -> str:
    """Persist a regenerated table under results/ and return its path."""
    results_dir = env("REPRO_RESULTS_DIR")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
