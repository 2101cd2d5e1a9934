"""Benchmark registry for the paper's exact model metrics.

A paper artefact (Tables I–IV, Figs. 5–10) or an acceptance bar is one
entry registered with :func:`register` from a script under
``benchmarks/`` — the only way to run it.  The runner calls each
selected entry once and serialises :class:`BenchSuite` JSON;
:func:`compare_suites` is the CI gate (model metrics exact, parameters
and coverage checked).  Nothing in this package reads a clock —
``benchmarks/perf`` is the stopwatch.

Typical flow::

    repro bench list
    repro bench run table1 --set scale=paper     # prints Table I
    repro bench run --tag paper --json BENCH_paper.json
    repro bench compare BENCH_paper.json benchmarks/baselines/paper.json

From a benchmark script::

    from repro import bench

    @bench.register("fusion", tags=("smoke",), params={"qubits": 20},
                    smoke={"qubits": 12})
    def run_bench(params):
        ...
        return bench.payload(metrics={"parts": 7}, info={"max_err": 0.0},
                             ok={"states agree to 1e-10": True})

See ``docs/benchmarks.md`` for the benchmark → paper-figure map and the
baseline-refresh workflow.
"""

from .compare import (
    ComparisonReport,
    ComparisonRow,
    compare_suites,
    metrics_equal,
)
from .registry import (
    REGISTRY,
    Benchmark,
    BenchError,
    find_bench_dir,
    load_benchmarks,
    payload,
    register,
    select,
)
from .runner import (
    render_suite,
    run_benchmark,
    run_suite,
    save_per_benchmark,
)
from .schema import (
    SCHEMA_VERSION,
    BenchResult,
    BenchSuite,
    EnvironmentFingerprint,
    SchemaError,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "BenchSuite",
    "Benchmark",
    "BenchError",
    "ComparisonReport",
    "ComparisonRow",
    "EnvironmentFingerprint",
    "REGISTRY",
    "SchemaError",
    "compare_suites",
    "find_bench_dir",
    "load_benchmarks",
    "metrics_equal",
    "payload",
    "register",
    "render_suite",
    "run_benchmark",
    "run_suite",
    "save_per_benchmark",
    "select",
]
