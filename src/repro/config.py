"""Execution options and ``REPRO_*`` environment variables, declared once.

Two declarations every front end (CLI, batch runner, daemon, cutter)
shares:

* :data:`ENV` — every environment variable the package reads, with its
  cast, default and effect, behind :func:`env`.  This is the only module
  under ``src/repro`` that touches the process environment.
* :class:`RunOptions` — the seven execution options (the paper's two
  dials, ``strategy`` and ``limit``, plus this repo's five) with their
  defaults and checks; every engine takes one.

Precedence is stated in ``docs/configuration.md``; its environment step
applies to ``backend`` / ``threads`` / ``method`` left at ``None`` and
happens where they are resolved (``resolve_backend`` /
``resolve_method``).  Standard library only: ``repro.sv``,
``repro.serve`` and ``repro.cut`` import this module, never the reverse.
"""

from __future__ import annotations

import numbers
import os
import reprlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

__all__ = [
    "ENV",
    "env",
    "RunOptions",
    "RUN_OPTION_FIELDS",
    "check_count",
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


def check_count(name: str, value: Any, hint: str = "") -> None:
    """The one integer rule of an option or argument that counts
    something: an ``int`` (not a ``bool``) of at least 1, else a
    :class:`ValueError` naming ``name`` (and ending in ``hint``).

    >>> check_count("limit", 2.5)
    Traceback (most recent call last):
        ...
    ValueError: limit must be an int (got 2.5)
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int (got {reprlib.repr(value)})")
    if value < 1:
        raise ValueError(f"{name} must be >= 1 (got {value}){hint}")


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

    Each field's type and range is checked here and nowhere else (a
    ``bool`` or ``2.5`` is no integer); names are checked where they are
    resolved — ``get_partitioner``, ``resolve_backend`` and
    ``resolve_method`` each raise a :class:`ValueError` naming the
    choices.  The engines take a ``RunOptions`` (:meth:`fold`).

    >>> RunOptions(strategy="DFS").limit is None
    True
    >>> RunOptions(limit=0)
    Traceback (most recent call last):
        ...
    ValueError: limit must be >= 1 (got 0); leave it unset to derive the per-circuit default
    """

    strategy: str = "dagP"
    limit: Optional[int] = None
    fuse: bool = True
    max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS
    backend: Any = None
    threads: Optional[int] = None
    method: Optional[str] = None

    def __post_init__(self) -> None:
        for name, ok, expected in (
            ("strategy", isinstance(self.strategy, str), "a str"),
            ("fuse", isinstance(self.fuse, bool), "a bool"),
            # A backend is a block mapper (repro.sv imports this module).
            ("backend", self.backend is None or isinstance(self.backend, str)
             or hasattr(self.backend, "map_blocks"), "a name or a backend"),
            ("method", self.method is None or isinstance(self.method, str),
             "a str or None"),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {expected} "
                    f"(got {reprlib.repr(getattr(self, name))})"
                )
        for name, hint in (
            ("limit", "; leave it unset to derive the per-circuit default"),
            ("max_fused_qubits", ""),
            ("threads",
             "; leave it unset for REPRO_THREADS, else the core count"),
        ):
            value = getattr(self, name)
            if value is None and name != "max_fused_qubits":
                continue
            check_count(name, value, hint)

    @classmethod
    def fold(cls, options: Optional["RunOptions"], overrides: Dict[str, Any],
             owner: str, unread: Tuple[str, ...] = ()) -> "RunOptions":
        """``options`` (``None``: the defaults) with an engine's keyword
        ``overrides`` folded in; one the engine ``owner`` does not read
        (``unread``, or no field) is a :class:`TypeError` naming it."""
        for name in overrides:
            if name not in RUN_OPTION_FIELDS or name in unread:
                raise TypeError(
                    f"{owner}() got an unexpected keyword argument {name!r}"
                )
        return replace(options or cls(), **overrides)


#: The option names, in declaration order.
RUN_OPTION_FIELDS = tuple(RunOptions.__dataclass_fields__)
