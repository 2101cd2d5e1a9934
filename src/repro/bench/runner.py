"""Shared benchmark execution: one call per registered benchmark.

:func:`run_benchmark` calls a registered benchmark once with its merged
parameters and packages the outcome as a
:class:`~repro.bench.schema.BenchResult`; :func:`run_suite` executes a
selection and yields the ``BENCH_*.json``-shaped
:class:`~repro.bench.schema.BenchSuite`.  Nothing is timed here: the
results are the exact model metrics the paper's claims rest on, and two
runs on one host serialise identically apart from ``created``.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
from typing import Any, Callable, Dict, Iterable, Optional

from ..analysis.tables import save_text
from ..config import env
from .registry import Benchmark, BenchError, select
from .schema import BenchResult, BenchSuite, EnvironmentFingerprint

__all__ = [
    "run_benchmark",
    "run_suite",
    "save_per_benchmark",
]


def run_benchmark(
    bench: Benchmark,
    overrides: Optional[Dict[str, Any]] = None,
    smoke: bool = False,
) -> BenchResult:
    """Execute one registered benchmark, once.

    A payload whose ``ok`` does not hold (a failed correctness check or
    paper claim) raises :class:`BenchError` naming what failed instead
    of returning a result.
    """
    params = bench.merged_params(overrides, smoke=smoke)
    out = bench.fn(dict(params))
    if not isinstance(out, dict) or "metrics" not in out:
        raise BenchError(
            f"benchmark {bench.name!r} must return bench.payload(...)"
        )
    if not out.get("ok", True):
        info = {k: v for k, v in out.get("info", {}).items() if k != "table"}
        raise BenchError(
            f"benchmark {bench.name!r} failed its correctness check — "
            f"not held: {'; '.join(out.get('failed', ()))} — "
            f"metrics={out['metrics']} info={info}"
        )
    return BenchResult(
        name=bench.name,
        tags=bench.tags,
        params=params,
        metrics=dict(out["metrics"]),
        info=dict(out.get("info", {})),
    )


def run_suite(
    names: Optional[Iterable[str]] = None,
    tag: Optional[str] = None,
    overrides: Optional[Dict[str, Any]] = None,
    smoke: Optional[bool] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchSuite:
    """Run a selection of registered benchmarks into one suite.

    ``smoke`` defaults to True exactly when the selection is the
    ``smoke`` tag, so ``repro bench run --tag smoke`` sizes every
    benchmark with its registered smoke parameters.
    """
    benches = select(names, tag)
    if smoke is None:
        smoke = tag == "smoke"
    suite = BenchSuite(
        suite=tag or ("custom" if names else "all"),
        created=_dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        environment=EnvironmentFingerprint.capture(),
    )
    for bench in benches:
        if progress is not None:
            progress(bench.name)
        suite.results.append(
            run_benchmark(bench, overrides=overrides, smoke=smoke)
        )
    return suite


def save_per_benchmark(suite: BenchSuite, results_dir: Optional[str] = None) -> str:
    """Write one ``<name>.json`` per result under ``results_dir``/bench,
    and ``<name>.txt`` next to it for a result that carries a table.

    Complements the single suite file: per-benchmark entries are what
    longitudinal tooling (one file per metric trajectory) consumes.
    """
    if results_dir is None:
        results_dir = env("REPRO_RESULTS_DIR")
    out_dir = os.path.join(results_dir, "bench")
    os.makedirs(out_dir, exist_ok=True)
    for result in suite.results:
        path = os.path.join(out_dir, f"{result.name}.json")
        entry = dict(result.to_dict())
        entry["suite"] = suite.suite
        entry["created"] = suite.created
        entry["environment"] = suite.environment.to_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2)
            fh.write("\n")
        if "table" in result.info:
            save_text(
                os.path.join(out_dir, f"{result.name}.txt"),
                result.info["table"],
            )
    return out_dir


def _parse_set(pairs: Iterable[str]) -> Dict[str, Any]:
    """Parse ``--set key=value`` overrides with JSON-ish coercion."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise BenchError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        value: Any = raw
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
        out[key.strip()] = value
    return out


def render_suite(suite: BenchSuite) -> str:
    """Human-readable one-line-per-benchmark summary."""
    lines = [
        f"suite={suite.suite} backend={suite.environment.backend} "
        f"python={suite.environment.python} numpy={suite.environment.numpy} "
        f"cpus={suite.environment.cpu_count}",
        f"{'benchmark':>16}  metrics",
    ]
    for r in suite.results:
        shown = ", ".join(f"{k}={v}" for k, v in list(r.metrics.items())[:4])
        if len(r.metrics) > 4:
            shown += ", …"
        lines.append(f"{r.name:>16}  {shown}")
    return "\n".join(lines)
