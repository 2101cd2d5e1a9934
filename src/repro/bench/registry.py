"""Benchmark registry and discovery.

A registered entry is the one definition of a paper artefact or an
acceptance bar; scripts under ``benchmarks/`` hold nothing else but the
helpers an entry calls::

    from repro import bench

    @bench.register(
        "fusion",
        tags=("smoke", "accept"),
        params={"qubits": 20, "max_fused": 5},
        smoke={"qubits": 12, "max_fused": 4},
    )
    def run_bench(params):
        ...
        return bench.payload(metrics={"parts": 7}, info={"max_err": 0.0},
                             ok={"states agree to 1e-10": True})

The registered function receives the merged parameter dict and returns a
payload (:func:`payload`): ``metrics`` must be deterministic model
quantities — the gate compares them for exact equality — ``info`` is
free-form but holds no wall-clock measurement (``info["table"]`` is the
paper-shaped table, printed by ``repro bench run``), and ``ok`` holds
the claims the entry makes about its own numbers.
:func:`load_benchmarks` imports every ``benchmarks/bench_*.py`` so their
registrations run, which is how the CLI runner sees the full registry
without a hand-maintained list.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union,
)

from ..config import env

__all__ = [
    "Benchmark",
    "REGISTRY",
    "register",
    "payload",
    "select",
    "find_bench_dir",
    "load_benchmarks",
    "BenchError",
]


class BenchError(RuntimeError):
    """A benchmark could not be located, loaded, or executed."""


@dataclass
class Benchmark:
    """One registered benchmark entry point."""

    name: str
    fn: Callable[[Dict[str, Any]], Dict[str, Any]]
    tags: Tuple[str, ...]
    params: Dict[str, Any] = field(default_factory=dict)
    smoke: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def merged_params(
        self,
        overrides: Optional[Dict[str, Any]] = None,
        smoke: bool = False,
    ) -> Dict[str, Any]:
        """Default params, optionally shrunk to the smoke sizes, with
        known-key overrides applied (unknown keys are ignored so one
        ``--set`` can target a multi-benchmark selection).  An override
        for a list-valued parameter is comma-split (``--set
        circuits=qft,qaoa``) so the CLI can express every declared
        parameter."""
        merged = dict(self.params)
        if smoke:
            merged.update(self.smoke)
        for key, value in (overrides or {}).items():
            if key not in merged:
                continue
            if isinstance(merged[key], list) and not isinstance(value, list):
                if isinstance(value, str):
                    value = [v.strip() for v in value.split(",") if v.strip()]
                else:
                    value = [value]
            merged[key] = value
        return merged


#: The process-wide registry, filled by :func:`register` at import time
#: of the benchmark scripts.
REGISTRY: Dict[str, Benchmark] = {}


def register(
    name: str,
    tags: Iterable[str] = (),
    params: Optional[Dict[str, Any]] = None,
    smoke: Optional[Dict[str, Any]] = None,
) -> Callable:
    """Decorator registering ``fn`` as benchmark ``name``.

    ``params`` are the full-size defaults, ``smoke`` the overrides
    applied for smoke runs (``--tag smoke`` / ``--smoke``).
    Re-registration under the same name replaces the entry.
    """

    def deco(fn: Callable) -> Callable:
        doc = (fn.__doc__ or "").strip().splitlines()
        REGISTRY[name] = Benchmark(
            name=name,
            fn=fn,
            tags=tuple(tags),
            params=dict(params or {}),
            smoke=dict(smoke or {}),
            description=doc[0] if doc else "",
        )
        return fn

    return deco


def payload(
    metrics: Dict[str, Any],
    info: Optional[Dict[str, Any]] = None,
    ok: Union[bool, Mapping[str, bool]] = True,
) -> Dict[str, Any]:
    """Standard return value of a benchmark function.

    ``ok`` is the entry's own verdict: a bool, or a mapping from each
    claim it checks (state agreement, ``dagP <= DFS <= Nat`` parts, a
    halved sweep count) to whether it held.  Anything false fails the
    run — the runner raises naming the failed claims and the CLI exits
    2 — so a paper claim can fail ``repro bench run`` even after a
    baseline refresh moved the numbers it is stated over.
    """
    claims = ok if isinstance(ok, Mapping) else {"payload ok=False": ok}
    failed = [claim for claim, held in claims.items() if not held]
    return {"metrics": dict(metrics), "info": dict(info or {}),
            "ok": not failed, "failed": failed}


def select(
    names: Optional[Iterable[str]] = None,
    tag: Optional[str] = None,
    registry: Optional[Dict[str, Benchmark]] = None,
) -> List[Benchmark]:
    """Resolve a runner selection: explicit names, a tag, or everything.

    Returns benchmarks in registration order; unknown names raise
    :class:`BenchError` with the available names listed.
    """
    registry = REGISTRY if registry is None else registry
    if names:
        out = []
        for name in names:
            if name not in registry:
                raise BenchError(
                    f"unknown benchmark {name!r}; known: "
                    f"{', '.join(sorted(registry))}"
                )
            out.append(registry[name])
        return out
    benches = list(registry.values())
    if tag is not None:
        benches = [b for b in benches if tag in b.tags]
        if not benches:
            raise BenchError(f"no benchmark carries tag {tag!r}")
    return benches


def find_bench_dir() -> str:
    """Locate the ``benchmarks/`` script directory.

    Order: ``REPRO_BENCH_DIR``, the repo root inferred from this file's
    src-layout location, then ``./benchmarks`` relative to the cwd.
    """
    path = env("REPRO_BENCH_DIR")
    if path:
        if not os.path.isdir(path):
            raise BenchError(f"REPRO_BENCH_DIR={path!r} is not a directory")
        return path
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro/bench -> repo root is three levels up.
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(repo_root, "benchmarks")
    if os.path.isdir(candidate):
        return candidate
    if os.path.isdir("benchmarks"):
        return os.path.abspath("benchmarks")
    raise BenchError(
        "cannot locate the benchmarks/ directory; set REPRO_BENCH_DIR"
    )


def load_benchmarks(bench_dir: Optional[str] = None) -> Dict[str, Benchmark]:
    """Import every ``bench_*.py`` under ``bench_dir`` and return the
    registry.

    Modules are cached under ``repro_benchmarks.<stem>`` so repeated
    discovery is idempotent.
    """
    bench_dir = bench_dir or find_bench_dir()
    stems = sorted(
        name[:-3]
        for name in os.listdir(bench_dir)
        if name.startswith("bench_") and name.endswith(".py")
    )
    if not stems:
        raise BenchError(f"no bench_*.py scripts under {bench_dir}")
    for stem in stems:
        module_name = f"repro_benchmarks.{stem}"
        if module_name in sys.modules:
            continue
        path = os.path.join(bench_dir, f"{stem}.py")
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        except Exception as exc:
            del sys.modules[module_name]
            raise BenchError(f"failed to import {path}: {exc}") from exc
    return REGISTRY
