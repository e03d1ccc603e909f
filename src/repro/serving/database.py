"""The serving layer: Database / Session / PendingQuery.

Everything below this module already exists — the SQL/PGQ frontend, the
converged optimizer, the streaming executor with its governor, handles,
deadlines and spill.  This module is the *stateful shell* a long-lived
process needs around them:

* :class:`Database` — owns one catalog, one :class:`RelGoConfig`, one
  :class:`~repro.exec.governor.MemoryGovernor` (admission control shared by
  every session), one :class:`~repro.serving.plan_cache.PlanCache`
  (optimized plans shared by every session) and one
  :class:`~repro.serving.pool.WorkerPool` (a bounded set of query worker
  threads shared by every session — ``submit`` queues FIFO instead of
  spawning a thread per query).
* :class:`Session` — a connection.  ``execute(sql)`` runs SQL / SQL-PGQ
  text synchronously; ``submit(sql)`` returns a :class:`PendingQuery`
  queued on the shared pool; ``prepare(sql)`` returns a
  :class:`~repro.serving.prepared.PreparedStatement`.  Every query gets a
  :class:`~repro.exec.context.QueryHandle`, so anything in flight is
  cancellable, and ``close()`` cancels + drains everything the session
  started — no leaked threads, leases or spill directories.
* :class:`PendingQuery` — a cancellable future over one submitted query.

Consistency model (MVCC-lite, PR 9): the executor pins every table the
plan touches to one epoch at query start, so queries see an immutable
snapshot while writers append freely.  The serving layer adds nothing on
top — it just guarantees each ``execute`` call goes through
``execute_plan`` and therefore through snapshot pinning.  A *queued*
PendingQuery holds nothing: no snapshot pin, no memory lease, no spill
directory — admission to the pool comes strictly before the governor
lease, so a saturated pool degrades into queueing latency.

Plan-cache flow per ``execute``::

    fingerprint(sql, params)               (regex scan over literals only,
      │                                     no parsing)
      ├─ hit  -> template.bind(values)     (rebuild the recorded sites only;
      │          -> execute                 no lexer/parser/binder/optimizer,
      │                                     no plan walk: the pins are the
      │                                     template's, resolved once)
      └─ miss -> parse(parameterize=True) -> bind -> optimize
                 -> safety valve + sites (one walk) -> cache.store
                 -> execute (resolves and memoizes the plan's pins)

``params`` (DB-API ``?`` placeholders) merge into the same slot order the
scan assigns inline literals, so ``age = ?`` with ``params=[28]`` and
``age = 28`` share one cache entry.  Precedence: explicit ``params`` bind
placeholders *only* — inline literals in the same statement are still
normalized by the fingerprint scan and rebound per-execution like always;
the two mechanisms compose rather than conflict.

DDL (``CREATE PROPERTY GRAPH``) bypasses the cache and bumps the
catalog version, which invalidates every cached plan optimized under the
old schema (and every prepared statement compiled under it).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Sequence

from repro import settings
from repro.core.framework import RelGoConfig, RelGoFramework
from repro.core.sqlpgq.binder import execute_ddl
from repro.errors import QueryCancelled, SessionClosed
from repro.exec.context import QueryHandle, QueryResult, execute_plan, resolve_timeout
from repro.exec.governor import MemoryGovernor, resolve_governor
from repro.relational.catalog import Catalog
from repro.serving.plan_cache import DEFAULT_CAPACITY, PlanCache, cached_optimize
from repro.serving.pool import WorkerPool
from repro.serving.prepared import PreparedStatement

#: Result returned for DDL statements (no rows to stream; the side effect
#: already happened when this is built).
def _ddl_result() -> QueryResult:
    return QueryResult(
        columns=["status"], rows=[("ok",)], execution_time=0.0, rows_produced=1
    )


class Database:
    """One catalog + config + governor + plan cache + worker pool.

    The Database owns no query state — that lives in sessions — so it is
    safe to share across threads.  ``close()`` closes every open session,
    then shuts the worker pool down (joining its threads).

    ``workers`` bounds the shared pool (default 4); pool threads are
    spawned lazily on the first ``submit``, so a Database used only for
    synchronous ``execute`` owns zero threads.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        config: RelGoConfig | None = None,
        governor: MemoryGovernor | None = None,
        cache_capacity: int = DEFAULT_CAPACITY,
        workers: int | None = None,
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self.config = config if config is not None else RelGoConfig()
        # None -> the process-global governor (unbounded by default), same
        # resolution rule as execute_plan, but pinned once so every session
        # of this Database shares one admission domain.
        self.governor = resolve_governor(governor)
        self.plan_cache = PlanCache(cache_capacity).bind_catalog(self.catalog)
        self.pool = WorkerPool(workers)
        self._lock = threading.Lock()
        self._sessions: dict[int, "Session"] = {}
        self._session_ids = itertools.count(1)
        self._framework: RelGoFramework | None = None
        self._framework_version = -1
        self._wire_server = None  # lazily started under REPRO_WIRE=1
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def connect(self):
        """Open a session.

        With ``REPRO_WIRE=1`` in the environment this transparently starts
        an in-process :class:`~repro.serving.wire.Server` (once) and
        returns a socket-backed :class:`~repro.serving.client.Client`
        instead of an in-process :class:`Session` — same surface, so the
        whole serving suite runs through a real network boundary.
        """
        if settings.current().wire:
            return self._wire_connect()
        return self._local_connect()

    def _local_connect(self) -> "Session":
        """The in-process session path (what the wire server itself uses —
        a server-side connection must never recurse into the swap-in)."""
        with self._lock:
            if self._closed:
                raise SessionClosed("database is closed")
            session = Session(self, next(self._session_ids))
            self._sessions[session.session_id] = session
        return session

    def _wire_connect(self):
        from repro.serving.client import Client

        return Client(self.serve().address)

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Start (or return) the wire server for this database."""
        from repro.serving.wire import Server

        with self._lock:
            if self._closed:
                raise SessionClosed("database is closed")
            if self._wire_server is None:
                self._wire_server = Server(self, host=host, port=port)
            return self._wire_server

    def close(self) -> None:
        """Close the wire server (if any), every session, then the pool.

        Session close cancels in-flight queries and waits them out, so by
        the time the pool is closed its queue is empty and its workers are
        idle — ``pool.close`` just joins them.  After ``close()`` returns
        the Database owns zero threads.
        """
        with self._lock:
            self._closed = True
            sessions = list(self._sessions.values())
            server = self._wire_server
            self._wire_server = None
        if server is not None:
            server.close()
        for session in sessions:
            session.close()
        self.pool.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _forget(self, session: "Session") -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    @property
    def open_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------ #
    # optimization plumbing (shared by all sessions)
    # ------------------------------------------------------------------ #

    def warmup(self) -> None:
        """Offline warm-up: graph index, statistics, GLogue.

        Bumps the catalog version (DDL-equivalent), then re-anchors the
        cached framework to the *post*-warmup version so the warmed GLogue
        survives until the next real schema/statistics change.
        """
        framework = self.framework()
        framework.prepare()
        with self._lock:
            self._framework_version = self.catalog.version

    def framework(self) -> RelGoFramework:
        """The optimizer bound to the current catalog version.

        Rebuilt whenever the version moved (new graph, new statistics), so
        cached estimator state can never leak across schema changes —
        mirroring how the plan cache invalidates its entries.
        """
        with self._lock:
            version = self.catalog.version
            if self._framework is None or self._framework_version != version:
                self._framework = RelGoFramework(self.catalog, config=self.config)
                self._framework_version = version
            return self._framework

    def _prepare_plan(self, sql: str, params: Sequence[Any] | None = None):
        """Resolve SQL text to an executable physical plan; None for DDL
        statements (already applied as a side effect).  ``params`` bind
        ``?`` placeholders positionally."""
        optimized, _ = cached_optimize(
            self.plan_cache,
            sql,
            self.catalog,
            lambda query: self.framework().optimize(query),
            on_ddl=lambda statement: execute_ddl(statement, self.catalog),
            params=params,
        )
        return None if optimized is None else optimized.physical


class Session:
    """One connection: ``execute``, asynchronous ``submit``, ``prepare``.

    A session is *not* a thread-confined object — ``submit`` runs queries
    on the database's shared worker pool against the same session — but
    its bookkeeping is lock-protected, and ``close()`` is a barrier: it
    cancels every in-flight handle, waits out every pending query (queued
    ones complete immediately as cancelled, without occupying a worker),
    and only then returns.
    """

    def __init__(self, database: Database, session_id: int):
        self.database = database
        self.session_id = session_id
        self._lock = threading.Lock()
        self._handles: set[QueryHandle] = set()
        self._pending: list[PendingQuery] = []
        self._statements: list[PreparedStatement] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    # query execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        sql: str,
        timeout: float | None = None,
        params: Sequence[Any] | None = None,
    ) -> QueryResult:
        """Parse/bind/optimize (or cache-hit) and run ``sql`` to completion.

        ``timeout`` overrides the config deadline for this query only.
        ``params`` bind DB-API ``?`` placeholders positionally (int/float/
        str), reusing the prepared-statement binding path — a
        placeholder-bound query shares its cached plan template with the
        literal-spliced form of the same shape.  DDL returns an empty
        result with a ``status`` column.
        """
        return self._execute(lambda: self.database._prepare_plan(sql, params), timeout)

    def _execute(self, resolve: Callable[[], Any], timeout: float | None) -> QueryResult:
        """Run the plan ``resolve()`` returns (None = DDL, already applied)
        under a registered handle — shared with prepared statements."""
        handle = self._register_handle(timeout)
        try:
            plan = resolve()
            return _ddl_result() if plan is None else self._run(plan, handle)
        finally:
            self._unregister_handle(handle)

    def submit(
        self,
        sql: str,
        timeout: float | None = None,
        params: Sequence[Any] | None = None,
    ) -> "PendingQuery":
        """Queue ``sql`` on the shared worker pool; returns a future.

        FIFO across all sessions of the database.  A queued query holds no
        resources (no lease, no snapshot pin); its deadline clock starts
        at ``submit`` — time spent queued counts against the timeout, so a
        saturated pool surfaces as :class:`~repro.errors.QueryTimeout`
        rather than invisible latency.
        """
        return self._enqueue(
            sql, timeout, lambda: self.database._prepare_plan(sql, params)
        )

    def _enqueue(
        self, sql: str, timeout: float | None, resolver: Callable[[], Any]
    ) -> "PendingQuery":
        """Register a handle, queue a :class:`PendingQuery` whose plan
        ``resolver()`` produces on the worker, and roll both back if the
        pool refuses — shared with prepared statements."""
        handle = self._register_handle(timeout)
        pending = PendingQuery(self, sql, handle, resolver)
        with self._lock:
            self._pending.append(pending)
        try:
            self.database.pool.submit(pending)
        except SessionClosed:
            self._forget_pending(pending)
            self._unregister_handle(handle)
            raise
        return pending

    def prepare(self, sql: str) -> PreparedStatement:
        """Compile ``sql`` once; execute it many times with bound params.

        The returned :class:`PreparedStatement` scans the text a single
        time at prepare; each ``execute(params)`` binds directly into the
        shared cache's plan template — no fingerprint scan, no literal
        re-splice.  DDL bumping the catalog version transparently
        re-compiles on the next execute.
        """
        with self._lock:
            if self._closed:
                raise SessionClosed(f"session {self.session_id} is closed")
            statement = PreparedStatement(self, sql)
            self._statements.append(statement)
        return statement

    def _run(self, plan, handle: QueryHandle) -> QueryResult:
        return execute_plan(
            plan,
            handle=handle,
            governor=self.database.governor,
            **self.database.config.execution_settings(),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Cancel everything in flight, drain it, detach from the db.

        Idempotent; after it returns no pool task, memory lease or spill
        directory started by this session remains live.  Queued (not yet
        running) queries complete immediately as cancelled; running ones
        stop cooperatively at their next batch boundary.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            pending = list(self._pending)
            statements = list(self._statements)
        for statement in statements:
            statement.close()
        for p in pending:
            p.cancel("session closed")
        for handle in handles:
            handle.cancel("session closed")
        for p in pending:
            p._await_done()
        with self._lock:
            self._pending.clear()
            self._handles.clear()
            self._statements.clear()
        self.database._forget(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # handle bookkeeping
    # ------------------------------------------------------------------ #

    def _register_handle(self, timeout: float | None) -> QueryHandle:
        deadline = resolve_timeout(
            timeout if timeout is not None else self.database.config.query_timeout
        )
        handle = QueryHandle(deadline)
        with self._lock:
            if self._closed:
                raise SessionClosed(f"session {self.session_id} is closed")
            self._handles.add(handle)
        return handle

    def _unregister_handle(self, handle: QueryHandle) -> None:
        with self._lock:
            self._handles.discard(handle)

    def _forget_pending(self, pending: "PendingQuery") -> None:
        with self._lock:
            try:
                self._pending.remove(pending)
            except ValueError:
                pass

    def _forget_statement(self, statement: PreparedStatement) -> None:
        with self._lock:
            try:
                self._statements.remove(statement)
            except ValueError:
                pass


class PendingQuery:
    """A cancellable future over one submitted query.

    Runs on the database's shared :class:`~repro.serving.pool.WorkerPool`
    (it *is* the pool task: the pool calls :meth:`run`).  Three states:

    * **queued** — in the pool's FIFO, holding no resources.  ``cancel``
      here completes the future immediately with
      :class:`~repro.errors.QueryCancelled`; no worker is consumed.
    * **running** — a worker is executing it; ``cancel`` flows through the
      :class:`~repro.exec.context.QueryHandle` and takes effect at the
      next batch boundary.
    * **done** — ``result()`` returns the :class:`QueryResult` or
      re-raises the query's error with the originating query text and
      session id attached as an exception note.
    """

    def __init__(
        self,
        session: Session,
        sql: str,
        handle: QueryHandle,
        resolver: Callable[[], Any],
    ):
        self.session = session
        self.sql = sql
        self.handle = handle
        self._resolver = resolver
        self._result: QueryResult | None = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._started = False
        self._done = threading.Event()
        self._callbacks: list[Callable[["PendingQuery"], None]] = []

    # -- pool task protocol --------------------------------------------- #

    def run(self) -> None:
        """Execute on a pool worker (no-op if cancelled while queued)."""
        with self._lock:
            if self._done.is_set():
                return  # cancelled (or abandoned) before a worker got here
            self._started = True
        try:
            plan = self._resolver()
            result = _ddl_result() if plan is None else self.session._run(
                plan, self.handle
            )
            self._finish(result=result)
        except BaseException as exc:  # noqa: BLE001 - rethrown in result()
            self._finish(error=exc)

    def abandon(self, reason: str) -> None:
        """Complete as cancelled without running (pool drained at close)."""
        with self._lock:
            if self._done.is_set() or self._started:
                return
        self._finish(error=QueryCancelled(reason))

    # -- consumer API --------------------------------------------------- #

    def cancel(self, reason: str = "query cancelled") -> None:
        """Request cancellation (idempotent, any thread).

        A queued query completes immediately — it never reaches a worker;
        a running query stops cooperatively at its next batch boundary.
        """
        with self._lock:
            if self._done.is_set():
                return
            queued = not self._started
        if queued:
            # Benign race with a worker picking the task up right now:
            # _finish is first-write-wins, and run() rechecks done-ness
            # under the lock before starting.
            self._finish(error=QueryCancelled(reason))
        self.handle.cancel(reason)

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block up to ``timeout`` for completion; True when finished."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> QueryResult:
        """The query's result (blocks; re-raises the query's error).

        A re-raised error carries ``while executing <sql> on session <id>``
        as an exception note, so a failure surfacing far from its
        ``submit`` call is still attributable.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"query still running after {timeout}s: {self.sql!r}")
        if self._error is not None:
            exc = self._error
            if not getattr(exc, "_repro_context_attached", False):
                try:
                    exc._repro_context_attached = True  # type: ignore[attr-defined]
                except Exception:
                    pass
                exc.add_note(
                    f"while executing {self.sql!r} on session "
                    f"{self.session.session_id}"
                )
            raise exc
        assert self._result is not None
        return self._result

    def add_done_callback(self, fn: Callable[["PendingQuery"], None]) -> None:
        """Call ``fn(self)`` when the query completes (immediately if it
        already has).  Callbacks run on the completing thread and must not
        block — the wire server uses this to resolve fetch waiters."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    # -- completion ------------------------------------------------------ #

    def _finish(
        self,
        result: QueryResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        with self._lock:
            if self._done.is_set():
                return  # first writer wins (cancel racing completion)
            self._result = result
            self._error = error
            callbacks = self._callbacks
            self._callbacks = []
            self._done.set()
        self.session._unregister_handle(self.handle)
        self.session._forget_pending(self)
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # pragma: no cover - callbacks must not break completion
                pass

    def _await_done(self) -> None:
        self._done.wait()
