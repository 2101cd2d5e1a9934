"""Suite comparison: the model-metric gate.

``repro bench compare run.json baseline.json`` diffs two
:class:`~repro.bench.schema.BenchSuite` files:

* **model metrics** must match exactly (integers, strings and booleans
  bit-for-bit; floats up to IEEE/libm noise, rel 1e-9) — partition
  sizes, kernel sweeps and exchanged bytes are deterministic, so any
  drift is a behaviour change, not noise;
* **parameters** must match — comparing a 12-qubit run against a
  20-qubit baseline is meaningless and fails loudly;
* benchmarks present in the baseline but missing from the run fail
  (coverage must not silently shrink); new benchmarks only note.

No seconds are compared: ``benchmarks/perf`` is the only timing gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List

from .schema import BenchSuite

__all__ = [
    "ComparisonRow",
    "ComparisonReport",
    "metrics_equal",
    "compare_suites",
]

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def metrics_equal(a: Any, b: Any) -> bool:
    """Exact model-metric equality (floats up to libm noise).

    Ints/bools/strings compare exactly; floats within rel 1e-9 (model
    metrics are deterministic arithmetic, but ``exp``/``log`` results
    may differ in the last ulp across libm builds).  Containers recurse.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b or a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            metrics_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            metrics_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


@dataclass
class ComparisonRow:
    name: str
    ok: bool
    notes: List[str] = field(default_factory=list)


@dataclass
class ComparisonReport:
    rows: List[ComparisonRow] = field(default_factory=list)
    environment_drift: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def render(self) -> str:
        lines = ["model-metric gate: metrics exact, params, coverage"]
        for drift in self.environment_drift:
            lines.append(f"note: environment drift — {drift}")
        for row in self.rows:
            status = "ok  " if row.ok else "FAIL"
            lines.append(f"  [{status}] {row.name}")
            for note in row.notes:
                lines.append(f"         - {note}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"model-metric gate {verdict}: "
            f"{sum(r.ok for r in self.rows)}/{len(self.rows)} benchmarks ok"
        )
        return "\n".join(lines)


def compare_suites(run: BenchSuite, baseline: BenchSuite) -> ComparisonReport:
    """Gate ``run`` against ``baseline``; see the module docstring."""
    report = ComparisonReport()

    env_run, env_base = run.environment, baseline.environment
    for field_name in ("python", "numpy", "platform", "backend", "cpu_count"):
        a, b = getattr(env_run, field_name), getattr(env_base, field_name)
        if a != b:
            report.environment_drift.append(
                f"{field_name}: run={a!r} baseline={b!r}"
            )

    run_names = set(run.names())
    for base_result in baseline.results:
        row = ComparisonRow(name=base_result.name, ok=True)
        report.rows.append(row)
        if base_result.name not in run_names:
            row.ok = False
            row.notes.append("missing from the run (coverage shrank)")
            continue
        res = run.result(base_result.name)

        if res.params != base_result.params:
            row.ok = False
            row.notes.append(
                f"params differ: run={res.params} "
                f"baseline={base_result.params}"
            )
            continue

        for key in sorted(set(res.metrics) | set(base_result.metrics)):
            if key not in res.metrics:
                row.ok = False
                row.notes.append(f"metric {key!r} missing from the run")
            elif key not in base_result.metrics:
                row.ok = False
                row.notes.append(f"metric {key!r} missing from the baseline")
            elif not metrics_equal(res.metrics[key], base_result.metrics[key]):
                row.ok = False
                row.notes.append(
                    f"metric {key!r}: run={res.metrics[key]!r} != "
                    f"baseline={base_result.metrics[key]!r}"
                )

    for name in sorted(run_names - {r.name for r in baseline.results}):
        report.rows.append(
            ComparisonRow(
                name=name, ok=True, notes=["new benchmark (not in baseline)"]
            )
        )
    return report
