"""Batched multi-circuit serving runtime and the resident daemon.

The entry point for workloads that simulate *many* circuits — parameter
sweeps, benchmark families, request queues — instead of one.  Jobs
(:class:`SimJob`) are canonicalised to structural fingerprints
(:func:`structural_fingerprint`) and routed through shared partition
and plan caches, so structurally identical circuits pay partitioning,
fusion grouping and gather-table construction exactly once
(:class:`BatchRunner`); :func:`circuit_fingerprint` is the *identity*
key on results, which additionally separates wire-cut boundary
variants (``cut_boundary`` tags) that are structurally identical on
purpose.  A job carrying a ``cut`` spec routes through
:mod:`repro.cut` instead of simulating its full width.  ``repro batch`` drives one manifest end to
end; ``repro serve`` (:class:`ServeDaemon`) keeps the same runner
resident behind an asyncio HTTP/JSON API — bounded admission
(:class:`AdmissionQueue`), fingerprint-affine dispatch, a TTL'd
:class:`ResultStore`, and graceful drain.  See ``docs/serving.md`` for
the manifest/API schemas and the amortisation model.
"""

from .daemon import ServeConfig, ServeDaemon
from .jobs import (
    JobResult,
    SimJob,
    circuit_fingerprint,
    load_manifest,
    results_to_manifest,
    structural_fingerprint,
)
from .queue import AdmissionQueue, QueueClosed, QueuedJob, QueueFull
from .runner import (
    BatchReport,
    BatchRunner,
    BatchStats,
    default_limit,
    order_jobs,
)
from .store import JobRecord, ResultStore

__all__ = [
    "SimJob",
    "JobResult",
    "circuit_fingerprint",
    "structural_fingerprint",
    "load_manifest",
    "results_to_manifest",
    "BatchRunner",
    "BatchReport",
    "BatchStats",
    "default_limit",
    "order_jobs",
    "AdmissionQueue",
    "QueuedJob",
    "QueueFull",
    "QueueClosed",
    "ResultStore",
    "JobRecord",
    "ServeConfig",
    "ServeDaemon",
]
