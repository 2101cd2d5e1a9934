"""Machine-readable benchmark results.

Every benchmark run produces a :class:`BenchResult` — deterministic
*model metrics* (sweeps, parts, bytes: gated for exact equality by the
comparator) and free-form *info* (verification errors, labels: never
gated); neither holds a wall-clock measurement.  A :class:`BenchSuite`
bundles the results of one ``repro bench run`` invocation together with
an :class:`EnvironmentFingerprint`, and serialises to the
``BENCH_*.json`` files CI archives and gates on.

Example::

    >>> result = BenchResult(
    ...     name="fusion", tags=("smoke",), params={"qubits": 12},
    ...     metrics={"parts": 4}, info={},
    ... )
    >>> BenchResult.from_dict(result.to_dict()) == result
    True
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import env

__all__ = [
    "SCHEMA_VERSION",
    "EnvironmentFingerprint",
    "BenchResult",
    "BenchSuite",
    "SchemaError",
]

#: Bump when the JSON layout changes incompatibly; the comparator
#: refuses to diff suites with differing schema versions.
SCHEMA_VERSION = 2


class SchemaError(ValueError):
    """A JSON document does not match the benchmark-suite schema."""


def _require(mapping: Dict[str, Any], keys: Sequence[str], where: str) -> None:
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")


@dataclass(frozen=True)
class EnvironmentFingerprint:
    """Where a suite ran.

    Model metrics must not depend on any of these fields, which is why
    the comparator only *notes* fingerprint drift.
    """

    python: str
    numpy: str
    platform: str
    cpu_count: int
    backend: str
    threads: Optional[int]

    @classmethod
    def capture(cls) -> "EnvironmentFingerprint":
        """Fingerprint the current interpreter/host/backend selection."""
        import numpy

        return cls(
            python=platform.python_version(),
            numpy=numpy.__version__,
            platform=sys.platform,
            cpu_count=os.cpu_count() or 1,
            backend=env("REPRO_BACKEND"),
            threads=env("REPRO_THREADS"),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "python": self.python,
            "numpy": self.numpy,
            "platform": self.platform,
            "cpu_count": self.cpu_count,
            "backend": self.backend,
            "threads": self.threads,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "EnvironmentFingerprint":
        _require(d, ("python", "numpy", "platform", "cpu_count", "backend"),
                 "environment")
        return cls(
            python=d["python"],
            numpy=d["numpy"],
            platform=d["platform"],
            cpu_count=int(d["cpu_count"]),
            backend=d["backend"],
            threads=d.get("threads"),
        )


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome.

    ``metrics`` are the deterministic model quantities (part counts,
    kernel sweeps, exchanged bytes, gate counts…) the gate compares
    for exact equality; ``info`` carries everything else (verification
    errors, labels) and is never gated.
    """

    name: str
    tags: Tuple[str, ...]
    params: Dict[str, Any]
    metrics: Dict[str, Any]
    info: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tags": list(self.tags),
            "params": dict(self.params),
            "metrics": dict(self.metrics),
            "info": dict(self.info),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BenchResult":
        _require(d, ("name", "params", "metrics"), "result")
        return cls(
            name=d["name"],
            tags=tuple(d.get("tags", ())),
            params=dict(d["params"]),
            metrics=dict(d["metrics"]),
            info=dict(d.get("info", {})),
        )


@dataclass
class BenchSuite:
    """Results of one runner invocation, as serialised to ``BENCH_*.json``."""

    suite: str
    created: str
    environment: EnvironmentFingerprint
    results: List[BenchResult] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def names(self) -> List[str]:
        return [r.name for r in self.results]

    def result(self, name: str) -> BenchResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "created": self.created,
            "environment": self.environment.to_dict(),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BenchSuite":
        _require(d, ("schema", "suite", "environment", "results"), "suite")
        if int(d["schema"]) != SCHEMA_VERSION:
            raise SchemaError(
                f"schema version {d['schema']} != supported {SCHEMA_VERSION}"
            )
        return cls(
            suite=d["suite"],
            created=d.get("created", ""),
            environment=EnvironmentFingerprint.from_dict(d["environment"]),
            results=[BenchResult.from_dict(r) for r in d["results"]],
            schema=int(d["schema"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def write(self, path: str) -> None:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "BenchSuite":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise SchemaError(f"{path}: expected a JSON object")
        return cls.from_dict(data)
