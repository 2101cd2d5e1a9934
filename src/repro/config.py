"""Execution options and ``REPRO_*`` environment variables, declared once.

Two declarations every front end (CLI, batch runner, daemon, cutter)
shares:

* :data:`ENV` — every environment variable the package reads, with its
  cast, default and effect, behind :func:`env`.  This is the only module
  under ``src/repro`` that touches the process environment.
* :class:`RunOptions` — the seven execution options (the paper's two
  dials, ``strategy`` and ``limit``, plus this repo's five) with their
  defaults.

Precedence is stated in ``docs/configuration.md``; its environment step
applies to ``backend`` / ``threads`` / ``method`` left at ``None`` and
happens where they are resolved (``resolve_backend`` /
``resolve_method``).  Standard library only: ``repro.sv``,
``repro.serve`` and ``repro.cut`` import this module, never the reverse.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional

__all__ = [
    "ENV",
    "env",
    "RunOptions",
    "RUN_OPTION_FIELDS",
    "DEFAULT_MAX_FUSED_QUBITS",
]


class EnvVar(NamedTuple):
    """One :data:`ENV` entry: how to parse it, its default, what it does."""

    cast: Callable[[str], Any]
    default: Any
    effect: str


#: Every ``REPRO_*`` variable the repository reads; a test keeps
#: ``docs/configuration.md``'s table in step.
ENV: Dict[str, EnvVar] = {
    "REPRO_BACKEND": EnvVar(str, "serial", "backend when backend=None"),
    "REPRO_THREADS": EnvVar(int, None, "workers of a backend named by string"),
    "REPRO_METHOD": EnvVar(str, "auto", "method when method=None"),
    "REPRO_RESULTS_DIR": EnvVar(str, "results", "where tables are saved"),
    "REPRO_BENCH_DIR": EnvVar(str, None, "where the bench_*.py scripts live"),
    "REPRO_SERVE_HOST": EnvVar(str, "127.0.0.1", "daemon bind address"),
    "REPRO_SERVE_PORT": EnvVar(int, 8035, "daemon port (0 = ephemeral)"),
    "REPRO_SERVE_QUEUE_LIMIT": EnvVar(int, 256, "admission-queue capacity"),
    "REPRO_SERVE_WORKERS": EnvVar(int, 2, "threads draining the queue"),
    "REPRO_SERVE_MAX_BATCH": EnvVar(int, 16, "max jobs per worker dispatch"),
    "REPRO_SERVE_TTL": EnvVar(float, 600.0, "seconds results are kept"),
    "REPRO_SERVE_RETRY_AFTER": EnvVar(float, 1.0, "Retry-After on 429, s"),
    "REPRO_SERVE_DRAIN_GRACE": EnvVar(float, 30.0, "seconds drain waits"),
    "REPRO_SERVE_MAX_BODY": EnvVar(int, 8_000_000, "request-body ceiling"),
    "REPRO_DIST_HOST": EnvVar(str, "127.0.0.1", "rendezvous interface"),
    "REPRO_DIST_PORT": EnvVar(int, 29500, "rank-0 rendezvous port"),
    "REPRO_DIST_TIMEOUT": EnvVar(float, 30.0, "socket-operation timeout, s"),
    "REPRO_DIST_RETRIES": EnvVar(int, 5, "extra connect attempts"),
    "REPRO_DIST_BACKOFF": EnvVar(float, 0.05, "base connect-retry delay, s"),
    "REPRO_CUT_DENSE_WIDTH": EnvVar(
        int, 26, "widest circuit recombined through a dense state"),
}


def env(name: str) -> Any:
    """The current value of a registered variable, read on every call.

    One rule for every variable: unset or empty yields the registered
    default, and a value its cast rejects raises a :class:`ValueError`
    naming the variable.

    >>> env("REPRO_DIST_RETRIES")       # unset in the test run
    5
    >>> env("REPRO_NOT_A_KNOB")
    Traceback (most recent call last):
        ...
    KeyError: 'REPRO_NOT_A_KNOB'
    """
    var = ENV[name]
    raw = os.environ.get(name, "")
    if raw == "":
        return var.default
    try:
        return var.cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {name}={raw!r}: {exc}") from None


#: Arity cap for fused dense unitaries (re-exported by ``repro.sv.fusion``).
DEFAULT_MAX_FUSED_QUBITS = 5


@dataclass(frozen=True)
class RunOptions:
    """How a circuit is partitioned and executed.

    ``strategy`` and ``limit`` are the paper's dials (partitioner name;
    working-set limit, ``None`` — and only ``None`` — derives
    ``max(3, n - 3)`` per circuit).  ``fuse`` / ``max_fused_qubits``
    shape the compiled plans; ``backend`` (a name, an
    ``ExecutionBackend`` instance, or ``None`` for ``REPRO_BACKEND``),
    ``threads`` (``None`` for ``REPRO_THREADS``) and ``method``
    (``None`` for ``REPRO_METHOD``) choose where and how parts run.

    Names are checked where they are resolved — ``get_partitioner``,
    ``resolve_backend`` and ``resolve_method`` own those errors, each a
    :class:`ValueError` naming the choices; only the ranges of
    ``limit``, ``max_fused_qubits`` and ``threads`` are checked here.

    >>> RunOptions(strategy="DFS").limit is None
    True
    >>> RunOptions(limit=0)
    Traceback (most recent call last):
        ...
    ValueError: limit must be >= 1 (got 0); pass None to derive the per-circuit default
    """

    strategy: str = "dagP"
    limit: Optional[int] = None
    fuse: bool = True
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS
    backend: Any = None
    threads: Optional[int] = None
    method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 1:
            raise ValueError(
                f"limit must be >= 1 (got {self.limit}); pass None to "
                f"derive the per-circuit default"
            )
        if self.max_fused_qubits < 1:
            raise ValueError(
                f"max_fused_qubits must be >= 1 (got {self.max_fused_qubits})"
            )
        if self.threads is not None and self.threads < 1:
            raise ValueError(
                f"threads must be >= 1 (got {self.threads}); pass None "
                f"for REPRO_THREADS, else the core count"
            )

    def executor_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``HierarchicalExecutor``: every option
        but the two partitioning dials.

        >>> sorted(RunOptions().executor_kwargs())
        ['backend', 'fuse', 'max_fused_qubits', 'method', 'threads']
        """
        return {
            name: getattr(self, name)
            for name in RUN_OPTION_FIELDS
            if name not in ("strategy", "limit")
        }


#: The option names, in declaration order.
RUN_OPTION_FIELDS = tuple(RunOptions.__dataclass_fields__)
