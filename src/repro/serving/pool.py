"""Shared bounded worker pool: the serving layer's concurrency core.

PR 9's ``Session.submit`` spawned one daemon thread per in-flight query,
so N sessions × M submissions meant N×M threads — unbounded fan-out the
moment clients misbehave.  This module replaces that with one
:class:`WorkerPool` owned by the :class:`~repro.serving.database.Database`:

* **Bounded.**  At most ``size`` worker threads exist, ever; they are
  spawned on demand (a Database that never sees a ``submit`` starts no
  threads) and joined by :meth:`close`.
* **FIFO admission.**  Tasks run in submission order.  The queue sits
  *ahead* of the :class:`~repro.exec.governor.MemoryGovernor` lease: a
  queued query holds no memory lease, no snapshot pin and no spill
  directory — it is just an entry in a deque — so a saturated pool
  degrades into queueing latency instead of resource exhaustion.
* **Cancellation-aware.**  Tasks expose ``run()`` and ``abandon()``;
  cancelling a *queued* task completes it immediately via ``abandon()``
  without waiting for a worker (see
  :class:`~repro.serving.database.PendingQuery`), so ``Session.close()``
  never blocks behind other sessions' work.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Protocol

from repro.errors import SessionClosed

__all__ = ["DEFAULT_WORKERS", "PoolTask", "WorkerPool"]

#: Default worker count: enough to overlap I/O-ish queries on small boxes
#: without oversubscribing CI runners; serving deployments size it via
#: ``Database(workers=...)``.
DEFAULT_WORKERS = 4


class PoolTask(Protocol):
    """What the pool runs: a unit of work that can also be refused."""

    def run(self) -> None:  # pragma: no cover - protocol
        """Execute on a worker thread; must not raise (tasks capture their
        own errors — a future that let an exception escape would kill the
        shared worker's usefulness for attribution)."""

    def abandon(self, reason: str) -> None:  # pragma: no cover - protocol
        """Complete the task without running it (queue drained at close)."""


class WorkerPool:
    """A fixed-size FIFO thread pool with deterministic shutdown.

    Threads are named ``repro-pool-<n>`` and spawned lazily: the first
    ``submit`` starts worker 0, and a new worker starts whenever a task is
    queued with no idle worker and the pool is below ``size``.  ``close``
    drains still-queued tasks through ``abandon`` and joins every worker —
    after it returns, the pool owns zero threads.
    """

    def __init__(self, size: int | None = None, name: str = "repro-pool"):
        if size is not None and size < 1:
            raise ValueError(f"worker pool size must be >= 1, got {size}")
        self.size = DEFAULT_WORKERS if size is None else size
        self.name = name
        self._cond = threading.Condition()
        self._queue: deque[PoolTask] = deque()
        self._workers: list[threading.Thread] = []
        self._idle = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, task: PoolTask) -> None:
        """Queue ``task`` (FIFO).  Raises ``SessionClosed`` after close."""
        with self._cond:
            if self._closed:
                raise SessionClosed("worker pool is closed")
            self._queue.append(task)
            if self._idle == 0 and len(self._workers) < self.size:
                worker = threading.Thread(
                    target=self._work,
                    name=f"{self.name}-{len(self._workers)}",
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()
            else:
                self._cond.notify()

    # ------------------------------------------------------------------ #
    # worker loop
    # ------------------------------------------------------------------ #

    def _work(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._idle += 1
                    try:
                        self._cond.wait()
                    finally:
                        self._idle -= 1
                if not self._queue:  # closed and drained
                    return
                task = self._queue.popleft()
            task.run()

    # ------------------------------------------------------------------ #
    # lifecycle / observability
    # ------------------------------------------------------------------ #

    def close(self, timeout: float | None = None) -> None:
        """Refuse new work, abandon queued tasks, join every worker.

        Running tasks are *not* interrupted here — cancellation flows
        through each query's :class:`~repro.exec.context.QueryHandle`
        (the Database cancels sessions before closing the pool), so a
        worker finishes its current task cooperatively and exits.
        """
        with self._cond:
            if self._closed:
                workers = list(self._workers)
            else:
                self._closed = True
                drained = list(self._queue)
                self._queue.clear()
                workers = list(self._workers)
                self._cond.notify_all()
            abandoned = locals().get("drained", [])
        for task in abandoned:
            task.abandon("worker pool closed")
        for worker in workers:
            worker.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def worker_count(self) -> int:
        """Workers ever started (bounded by ``size``; daemons until close)."""
        with self._cond:
            return len(self._workers)

    @property
    def queued_tasks(self) -> int:
        with self._cond:
            return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(size={self.size}, workers={self.worker_count}, "
            f"queued={self.queued_tasks}, closed={self._closed})"
        )
