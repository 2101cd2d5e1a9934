"""Benchmark registry for the paper's exact model metrics.

Every script under ``benchmarks/`` registers one entry point with
:func:`register`; the runner calls each selected benchmark once and
serialises :class:`BenchSuite` JSON; :func:`compare_suites` is the CI
gate (model metrics exact, parameters and coverage checked).  Nothing
in this package reads a clock — ``benchmarks/perf`` is the stopwatch.

Typical flow::

    repro bench list
    repro bench run --tag smoke --json BENCH_smoke.json
    repro bench compare BENCH_smoke.json benchmarks/baselines/smoke.json

From a benchmark script::

    from repro import bench

    @bench.register("fusion", tags=("smoke",), params={"qubits": 20},
                    smoke={"qubits": 12})
    def run_bench(params):
        ...
        return bench.payload(metrics={"parts": 7}, info={"max_err": 0.0})

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
    script_main,
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
    "script_main",
    "select",
]
