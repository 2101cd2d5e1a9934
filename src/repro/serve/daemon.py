"""The resident serving daemon: ``repro serve``.

A long-running asyncio HTTP/JSON front end over the batch runtime.  One
shared :class:`~repro.serve.runner.BatchRunner` keeps the partition and
plan-structure caches continuously warm across requests, so a parameter
sweep submitted job-by-job over hours amortises compilation exactly like
a one-shot ``repro batch`` manifest does.

Architecture (stdlib only):

* the **event loop** owns the listening socket and parses requests; job
  admission is all-or-nothing against a bounded
  :class:`~repro.serve.queue.AdmissionQueue` (full → ``429`` with
  ``Retry-After``; a batch larger than the whole queue → ``413``);
* **worker threads** pull fingerprint-affine batches from the queue,
  execute them through the shared runner (per-job failures isolate into
  ``error`` results — one tenant's bad job never discards a batch), and
  publish results into a TTL'd :class:`~repro.serve.store.ResultStore`;
* **SIGTERM/SIGINT drain**: stop admitting, finish everything queued,
  answer ``GET`` polls throughout, then exit cleanly.

Endpoints::

    POST /jobs           one job object or a manifest-shaped batch
    GET  /jobs/{handle}  status + result of one job
    GET  /batches/{id}   aggregate status + results manifest of a batch
    GET  /healthz        liveness (+ drain state)
    GET  /metrics        queue/store/runner counters (JSON)

See ``docs/serving.md`` for the request/response schemas and
``docs/configuration.md`` for the ``REPRO_SERVE_*`` knobs.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from ..config import ENV, RunOptions, env
from .jobs import (
    load_manifest,
    results_to_manifest,
    structural_fingerprint,
)
from .queue import AdmissionQueue, QueueClosed, QueuedJob, QueueFull
from .runner import BatchRunner, BatchStats
from .store import ResultStore

__all__ = ["ServeConfig", "ServeDaemon"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServeConfig:
    """Configuration for :class:`ServeDaemon`.

    Each server field ``x`` takes its default from the
    ``REPRO_SERVE_X`` entry of :data:`repro.config.ENV`, and
    :meth:`from_env` reads that variable (table in
    ``docs/configuration.md``).  ``run`` is the daemon-wide
    :class:`~repro.config.RunOptions` — submitted manifests may restate
    its options only with the values the daemon resolved.

    >>> ServeConfig().port
    8035
    >>> ServeConfig(run=RunOptions(strategy="DFS")).run.strategy
    'DFS'
    """

    host: str = ENV["REPRO_SERVE_HOST"].default
    port: int = ENV["REPRO_SERVE_PORT"].default
    queue_limit: int = ENV["REPRO_SERVE_QUEUE_LIMIT"].default
    workers: int = ENV["REPRO_SERVE_WORKERS"].default
    max_batch: int = ENV["REPRO_SERVE_MAX_BATCH"].default
    ttl: float = ENV["REPRO_SERVE_TTL"].default
    retry_after: float = ENV["REPRO_SERVE_RETRY_AFTER"].default
    drain_grace: float = ENV["REPRO_SERVE_DRAIN_GRACE"].default
    max_body: int = ENV["REPRO_SERVE_MAX_BODY"].default
    run: RunOptions = RunOptions()

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = admission only)")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")

    @classmethod
    def from_env(cls, **overrides) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` plus explicit overrides.

        Precedence: explicit keyword (when not ``None``) → environment
        variable → dataclass default.

        >>> ServeConfig.from_env(port=0, workers=1).workers
        1
        """
        values: Dict[str, Any] = {
            f.name: env(f"REPRO_SERVE_{f.name.upper()}")
            for f in fields(cls)
            if f.name != "run"
        }
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
        return cls(**values)


class ServeDaemon:
    """The resident async serving daemon (see module docstring).

    ``run()`` blocks in the calling thread until drain completes (the
    normal CLI mode); ``start()`` / ``stop()`` run the daemon on a
    background thread for embedding and tests.  ``port`` carries the
    bound port once ready — pass ``port=0`` for an ephemeral one.

    >>> daemon = ServeDaemon(ServeConfig(port=0, workers=0))
    >>> daemon.config.workers, daemon.port is None
    (0, True)
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else ServeConfig.from_env()
        # workers=1: daemon concurrency = worker threads, not pools.
        self._runner = BatchRunner(self.config.run, workers=1)
        self._queue = AdmissionQueue(
            self.config.queue_limit, retry_after=self.config.retry_after
        )
        self._store = ResultStore(ttl=self.config.ttl)
        self._batches: Dict[str, List[str]] = {}
        self._admission_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._batch_seq = 0
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._errored = 0
        self._in_flight = 0
        self._totals = BatchStats()  # every finished batch, summed
        self._draining = False
        self._started_at: Optional[float] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._drain_started = False
        self._worker_threads: List[threading.Thread] = []
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._run_error: Optional[BaseException] = None

    # -- public lifecycle --------------------------------------------------

    @property
    def base_url(self) -> str:
        """``http://host:port`` once the daemon is listening."""
        if self.port is None:
            raise RuntimeError("daemon is not listening yet")
        return f"http://{self.config.host}:{self.port}"

    def run(self, *, quiet: bool = False) -> None:
        """Serve until drained (blocking).  SIGTERM/SIGINT start drain."""
        try:
            asyncio.run(self._main(quiet=quiet))
        except BaseException as exc:
            self._run_error = exc
            raise
        finally:
            self._ready.set()  # unblock start() even on bind failure

    def start(self, timeout: float = 10.0) -> "ServeDaemon":
        """Run on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("daemon already started")
        self._thread = threading.Thread(
            target=self._run_captured, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("daemon did not become ready in time")
        if self._run_error is not None:
            raise RuntimeError(
                f"daemon failed to start: {self._run_error}"
            ) from self._run_error
        return self

    def _run_captured(self) -> None:
        try:
            self.run(quiet=True)
        except BaseException:  # surfaced via start()/stop()
            pass

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and wait for a daemon started with :meth:`start`."""
        self.request_drain()
        if self._thread is not None:
            self._thread.join(timeout)

    def request_drain(self) -> None:
        """Begin graceful drain (thread-safe, idempotent)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._drain_soon)
            except RuntimeError:  # loop already shut down
                pass

    # -- event-loop internals ----------------------------------------------

    async def _main(self, *, quiet: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        for k in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{k}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._drain_soon)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or unsupported platform
        purger = asyncio.ensure_future(self._purge_loop())
        if not quiet:
            print(
                f"repro serve listening on {self.base_url} "
                f"(workers={self.config.workers}, "
                f"queue={self.config.queue_limit}, "
                f"ttl={self.config.ttl:g}s)",
                flush=True,
            )
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            purger.cancel()
            server.close()
            await server.wait_closed()

    def _drain_soon(self) -> None:
        if self._drain_started:
            return
        self._drain_started = True
        assert self._loop is not None
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        """Stop admitting, finish queued work, then stop the loop."""
        self._draining = True
        self._queue.close()
        await asyncio.to_thread(self._join_workers)
        self._abandon_queued()
        assert self._stop_event is not None
        self._stop_event.set()

    def _join_workers(self) -> None:
        """Wait for worker threads within one *total* ``drain_grace``.

        The deadline is computed once, before the first join, and every
        join waits only for whatever remains of it — ``drain_grace`` is
        a budget for the whole drain, not per thread.  Joins past the
        deadline use a 0 timeout (never a negative one, which
        ``Thread.join`` would treat as "no timeout" on some paths), so
        a wedged worker cannot stall the drain beyond the grace.
        """
        deadline = time.monotonic() + self.config.drain_grace
        for thread in self._worker_threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def _abandon_queued(self) -> None:
        """Error out jobs still queued when drain gave up waiting."""
        while True:
            batch = self._queue.get_batch(self.config.max_batch, timeout=0)
            if not batch:
                return
            for entry in batch:
                self._store.finish(
                    entry.handle,
                    error="daemon drained before the job was executed",
                )
            with self._metrics_lock:
                self._errored += len(batch)

    async def _purge_loop(self) -> None:
        interval = max(1.0, min(30.0, self.config.ttl / 2 or 30.0))
        while True:
            await asyncio.sleep(interval)
            self._store.purge()
            self._purge_batches()

    def _purge_batches(self) -> None:
        """Drop batch indexes whose member records have all expired."""
        with self._admission_lock:
            stale = [
                batch_id
                for batch_id, handles in self._batches.items()
                if all(self._store.get(h) is None for h in handles)
            ]
            for batch_id in stale:
                del self._batches[batch_id]

    # -- HTTP --------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader), timeout=30.0
                )
            except _BodyTooLarge:
                await self._respond(writer, 413, {
                    "error": "request body exceeds "
                             f"{self.config.max_body} bytes",
                })
                return
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    ValueError, ConnectionError):
                return  # malformed or abandoned request: just close
            method, target, _headers, body = request
            try:
                status, payload, extra = await self._route(
                    method, target, body
                )
            except Exception as exc:  # never kill the server on a request
                status, payload, extra = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }, []
            await self._respond(writer, status, payload, extra)
        except (ConnectionError, asyncio.TimeoutError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split()
        if len(parts) < 2:
            raise ValueError(f"bad request line {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body:
            raise _BodyTooLarge()
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[List[str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ] + list(extra_headers or [])
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], List[str]]:
        target = target.split("?", 1)[0]
        if method == "POST" and target == "/jobs":
            if self._draining:
                return 503, {"error": "daemon is draining"}, []
            # Parsing builds circuits (CPU work) — keep it off the loop.
            return await asyncio.to_thread(self._admit, body)
        if method != "GET":
            return 405, {"error": f"method {method} not allowed"}, []
        if target == "/healthz":
            return 200, self._healthz(), []
        if target == "/metrics":
            return 200, self.metrics(), []
        if target.startswith("/jobs/"):
            return self._job_status(target[len("/jobs/"):])
        if target.startswith("/batches/"):
            return self._batch_status(target[len("/batches/"):])
        return 404, {"error": f"no such endpoint {target!r}"}, []

    # -- admission ---------------------------------------------------------

    def _check_options(self, options: Dict[str, Any]) -> Optional[str]:
        """Manifest runner options must match the daemon's configuration.

        The daemon executes every request through one shared runner;
        silently honouring a conflicting per-request option would either
        lie or fork the caches, so mismatches are rejected explicitly.
        Options are compared against what the runner *resolved*, so a
        manifest naming an effective default (``backend: "serial"``,
        ``method: "auto"``) is accepted.  ``workers`` is a dispatch knob
        with no meaning per request here (the queue orders, threads
        execute) — it is accepted only at the runner's value too, for
        symmetry.
        """
        configured = {
            **vars(self._runner.resolved),
            "workers": self._runner.workers,
        }
        for key, value in options.items():
            if value != configured[key]:
                return (
                    f"manifest option {key}={value!r} conflicts with the "
                    f"daemon's configuration ({key}="
                    f"{configured[key]!r}); configure it on `repro serve`"
                )
        return None

    def _admit(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], List[str]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, []
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}, []
        manifest = payload if "jobs" in payload else {"jobs": [payload]}
        try:
            jobs, options = load_manifest(manifest)
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": str(exc)}, []
        if not jobs:
            return 400, {"error": "batch contains no jobs"}, []
        conflict = self._check_options(options)
        if conflict is not None:
            return 400, {"error": conflict}, []
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            return 400, {"error": "job ids within a batch must be unique"}, []
        with self._admission_lock:
            self._batch_seq += 1
            batch_id = f"b{self._batch_seq}"
            handles = [f"{batch_id}.{job.job_id}" for job in jobs]
            entries = [
                # Affinity buckets key on *structure*: boundary variants
                # of one cut fragment batch together and share caches.
                QueuedJob(handle, job, structural_fingerprint(job.circuit))
                for handle, job in zip(handles, jobs)
            ]
            for handle, job in zip(handles, jobs):
                self._store.add(handle, batch=batch_id, client_id=job.job_id)
            # Count the submission *before* the queue accepts it (rolled
            # back on rejection): once submit() returns, a worker may
            # finish the batch immediately, and counting afterwards
            # would let a concurrent /metrics read observe
            # completed + errored + in_flight > submitted.
            with self._metrics_lock:
                self._submitted += len(entries)
            try:
                self._queue.submit(entries)
            except QueueFull as exc:
                for handle in handles:
                    self._store.discard(handle)
                with self._metrics_lock:
                    self._submitted -= len(entries)
                    self._rejected += len(entries)
                return 429, {
                    "error": str(exc),
                    "retry_after": exc.retry_after,
                }, [f"Retry-After: {max(1, round(exc.retry_after))}"]
            except (QueueClosed, ValueError) as exc:
                # Draining, or a batch no drained queue could ever hold:
                # neither is backpressure, so nothing counts as rejected.
                for handle in handles:
                    self._store.discard(handle)
                with self._metrics_lock:
                    self._submitted -= len(entries)
                if isinstance(exc, ValueError):
                    return 413, {"error": str(exc)}, []
                return 503, {"error": "daemon is draining"}, []
            self._batches[batch_id] = handles
        return 202, {
            "batch": batch_id,
            "status_url": f"/batches/{batch_id}",
            "jobs": [
                {"id": job.job_id, "handle": handle,
                 "url": f"/jobs/{handle}"}
                for job, handle in zip(jobs, handles)
            ],
        }, []

    # -- status endpoints --------------------------------------------------

    def _job_status(
        self, handle: str
    ) -> Tuple[int, Dict[str, Any], List[str]]:
        record = self._store.get(handle)
        if record is None:
            return 404, {"error": f"unknown or expired job {handle!r}"}, []
        return 200, record.to_json(), []

    def _batch_status(
        self, batch_id: str
    ) -> Tuple[int, Dict[str, Any], List[str]]:
        handles = self._batches.get(batch_id)
        if handles is None:
            return 404, {"error": f"unknown batch {batch_id!r}"}, []
        records = self._store.get_many(handles)
        if all(r is None for r in records):
            with self._admission_lock:
                self._batches.pop(batch_id, None)
            return 404, {"error": f"batch {batch_id!r} has expired"}, []
        finished = [r for r in records if r is not None and r.finished]
        # An expired record was finished by definition, so a partially
        # expired batch still reports done (with the surviving results).
        done = all(r is None or r.finished for r in records)
        payload: Dict[str, Any] = {
            "batch": batch_id,
            "status": "done" if done else "pending",
            "total": len(records),
            "finished": len(finished),
            "errors": sum(1 for r in finished if r.status == "error"),
            "jobs": [
                {"handle": h, "status": r.status if r is not None
                 else "expired"}
                for h, r in zip(handles, records)
            ],
        }
        if done:
            payload["results"] = {
                "jobs": [r.result for r in records if r is not None]
            }
        return 200, payload, []

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "method": self._runner.method,
            "uptime_seconds": (
                0.0 if self._started_at is None
                else time.monotonic() - self._started_at
            ),
        }

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` payload (also usable in-process).

        The job counts and the runner block are one snapshot, read under
        the lock a worker holds while it folds a finished batch in; the
        runner block is the sum of the finished batches' stats.
        """
        with self._metrics_lock:
            jobs = {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "completed": self._completed,
                "errored": self._errored,
                "in_flight": self._in_flight,
            }
            totals = self._totals
            runner = {
                "partitions_computed": totals.partitions_computed,
                "partition_hits": totals.partition_hits,
                "plan_hits": totals.plan_hits,
                "plan_misses": totals.plans_bound,
                "structures_compiled": totals.structures_compiled,
                "structure_hits": totals.structure_hits,
                "method": self._runner.method,
                "parts_routed_dense": totals.parts_routed_dense,
                "parts_routed_stabilizer": totals.parts_routed_stabilizer,
            }
        return {
            "uptime_seconds": (
                0.0 if self._started_at is None
                else time.monotonic() - self._started_at
            ),
            "draining": self._draining,
            "workers": self.config.workers,
            "queue": {
                "depth": self._queue.depth,
                "capacity": self._queue.capacity,
            },
            "jobs": jobs,
            "store": {
                "records": len(self._store),
                "expired": self._store.expired,
                "ttl_seconds": self.config.ttl,
            },
            "runner": runner,
        }

    # -- worker threads ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.get_batch(self.config.max_batch)
            if batch is None:
                return
            for entry in batch:
                self._store.mark_running(entry.handle)
            with self._metrics_lock:
                self._in_flight += len(batch)
            try:
                report = self._runner.run([e.job for e in batch])
                entries = results_to_manifest(report.results)["jobs"]
                outcomes = [
                    {"result": entry, "error": result.error}
                    for result, entry in zip(report.results, entries)
                ]
                errored = sum(1 for r in report.results if r.error)
                stats = report.stats
            except Exception as exc:  # runner.run isolates job errors;
                # this guards daemon liveness against anything else.
                message = f"{type(exc).__name__}: {exc}"
                outcomes = [{"error": message}] * len(batch)
                errored, stats = len(batch), BatchStats()
            # Count the batch before publishing it, so a client that has
            # seen its results reads metrics that include it.
            with self._metrics_lock:
                self._in_flight -= len(batch)
                self._completed += len(batch) - errored
                self._errored += errored
                self._totals.absorb(stats)
            for entry, outcome in zip(batch, outcomes):
                self._store.finish(entry.handle, **outcome)
            self._store.purge()


class _BodyTooLarge(Exception):
    """Request body exceeded ``ServeConfig.max_body``."""
