"""Bounded admission queue with fingerprint-affinity dispatch.

The daemon's front door: HTTP handlers :meth:`AdmissionQueue.submit`
jobs (all-or-nothing per batch — a batch either fits under the capacity
or is rejected whole with :class:`QueueFull`, which the HTTP layer turns
into ``429 Retry-After``; a batch larger than the capacity itself is a
``ValueError``, answered ``413``), and worker threads
:meth:`AdmissionQueue.get_batch` them back out.

Dispatch is **fingerprint-affine**: pending jobs are bucketed by
structural fingerprint, a worker drains one bucket at a time, and the
queue prefers handing a worker the bucket it (or any worker) touched
last while jobs for it keep arriving.  A parameter sweep trickling in
over many requests therefore keeps hitting one resident partition and
one compiled plan structure — the serving-time analogue of the batch
runner's ``grouped`` schedule.  Buckets are otherwise served oldest
first, and the bounded capacity caps how long affinity can defer another
structure's jobs.

The queue is thread-safe and built for the daemon's split world: the
asyncio event loop submits without blocking; worker threads block in
``get_batch``.  :meth:`AdmissionQueue.close` starts drain — submission
stops, waiting workers are woken, and ``get_batch`` keeps returning
batches until the queue is empty, then returns ``None`` forever.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from .jobs import SimJob

__all__ = ["AdmissionQueue", "QueuedJob", "QueueFull", "QueueClosed"]


class QueueFull(RuntimeError):
    """Raised by :meth:`AdmissionQueue.submit` when a batch does not fit.

    ``retry_after`` is the server's backpressure hint in seconds — the
    HTTP layer forwards it as the ``Retry-After`` header of the 429
    response.

    >>> try:
    ...     raise QueueFull(retry_after=2.0)
    ... except QueueFull as exc:
    ...     exc.retry_after
    2.0
    """

    def __init__(self, retry_after: float = 1.0) -> None:
        super().__init__(
            f"admission queue is full; retry after {retry_after:g}s"
        )
        self.retry_after = retry_after


class QueueClosed(RuntimeError):
    """Raised by :meth:`AdmissionQueue.submit` once drain has begun.

    >>> q = AdmissionQueue(capacity=4)
    >>> q.close()
    >>> try:
    ...     q.submit([])
    ... except QueueClosed:
    ...     print("draining")
    draining
    """


@dataclass(frozen=True)
class QueuedJob:
    """One admitted job: the daemon handle, the job, and its fingerprint.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.serve import SimJob, circuit_fingerprint
    >>> qc = QuantumCircuit(2).h(0)
    >>> entry = QueuedJob("b1.j0", SimJob("j0", qc),
    ...                   circuit_fingerprint(qc))
    >>> entry.handle
    'b1.j0'
    """

    handle: str
    job: SimJob
    fingerprint: str


class AdmissionQueue:
    """Thread-safe bounded job queue, dispatched by structural affinity.

    Parameters
    ----------
    capacity:
        Maximum number of queued jobs.  A :meth:`submit` that would
        exceed it raises :class:`QueueFull` without admitting anything
        (a :class:`ValueError` if the batch alone exceeds it).
    retry_after:
        Backpressure hint attached to :class:`QueueFull` (seconds).

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> from repro.serve import SimJob, circuit_fingerprint
    >>> def entry(handle, qc):
    ...     return QueuedJob(handle, SimJob(handle, qc),
    ...                      circuit_fingerprint(qc))
    >>> a, b = QuantumCircuit(2).h(0), QuantumCircuit(2).h(0).h(1)
    >>> q = AdmissionQueue(capacity=8)
    >>> q.submit([entry("a0", a), entry("b0", b), entry("a1", a)])
    >>> [e.handle for e in q.get_batch(4, timeout=0)]  # affinity groups a*
    ['a0', 'a1']
    >>> [e.handle for e in q.get_batch(4, timeout=0)]
    ['b0']
    >>> q.depth
    0
    """

    def __init__(
        self, capacity: int, *, retry_after: float = 1.0
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.retry_after = float(retry_after)
        self._buckets: "OrderedDict[str, Deque[QueuedJob]]" = OrderedDict()
        self._size = 0
        self._cv = threading.Condition()
        self._closed = False
        self._last_fingerprint: Optional[str] = None

    # -- producer side -----------------------------------------------------

    def submit(self, entries: List[QueuedJob]) -> None:
        """Admit a batch whole, or raise.

        Raises :class:`QueueClosed` during drain and :class:`QueueFull`
        when ``len(entries)`` jobs do not fit beside the queued ones —
        nothing is admitted in either case, so a rejected batch can be
        retried verbatim.  A batch larger than ``capacity`` never fits:
        that is a :class:`ValueError`, not backpressure.

        >>> AdmissionQueue(capacity=1).submit([None, None])
        Traceback (most recent call last):
        ...
        ValueError: batch of 2 jobs exceeds the queue capacity of 1; split it
        """
        with self._cv:
            if self._closed:
                raise QueueClosed("queue is draining; not accepting jobs")
            if len(entries) > self.capacity:
                raise ValueError(
                    f"batch of {len(entries)} jobs exceeds the queue "
                    f"capacity of {self.capacity}; split it"
                )
            if self._size + len(entries) > self.capacity:
                raise QueueFull(retry_after=self.retry_after)
            for entry in entries:
                bucket = self._buckets.get(entry.fingerprint)
                if bucket is None:
                    bucket = deque()
                    self._buckets[entry.fingerprint] = bucket
                bucket.append(entry)
            self._size += len(entries)
            self._cv.notify_all()

    # -- consumer side -----------------------------------------------------

    def get_batch(
        self, max_jobs: int, timeout: Optional[float] = None
    ) -> Optional[List[QueuedJob]]:
        """Take up to ``max_jobs`` entries sharing one fingerprint.

        Blocks until jobs are available (or ``timeout`` elapses —
        returning ``[]``).  Returns ``None`` exactly when the queue is
        closed *and* drained, which is the worker's signal to exit.
        Bucket choice: the last-dispatched fingerprint while it still
        has pending jobs (cache affinity), else the oldest bucket.
        """
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        with self._cv:
            while not self._buckets:
                if self._closed:
                    return None
                if not self._cv.wait(timeout=timeout):
                    if not self._buckets:
                        return None if self._closed else []
            if (
                self._last_fingerprint is not None
                and self._last_fingerprint in self._buckets
            ):
                fingerprint = self._last_fingerprint
            else:
                fingerprint = next(iter(self._buckets))
            bucket = self._buckets[fingerprint]
            batch = [
                bucket.popleft()
                for _ in range(min(max_jobs, len(bucket)))
            ]
            if not bucket:
                del self._buckets[fingerprint]
            self._size -= len(batch)
            self._last_fingerprint = fingerprint
            return batch

    # -- lifecycle and introspection ---------------------------------------

    def close(self) -> None:
        """Begin drain: reject new submissions, wake blocked workers."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._cv:
            return self._closed

    @property
    def depth(self) -> int:
        """Jobs currently queued (admitted, not yet dispatched)."""
        with self._cv:
            return self._size
