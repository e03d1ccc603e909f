"""Explicit prepared statements: bind params without re-scanning the text.

``Session.execute(sql)`` already amortizes the frontend through the plan
cache, but every call still pays the *fingerprint scan* (a regex pass over
the text).  A :class:`PreparedStatement` hoists that to ``prepare`` time:

* **prepare** — one :func:`~repro.serving.plan_cache.scan_text` pass
  captures the normalized text and the inline-literal/placeholder slot
  layout.  Nothing is parsed or optimized yet (the first ``execute``
  compiles, because compilation needs bound parameter values — a ``?`` in
  a structural position like ``LIMIT ?`` is baked into the plan shape).
* **execute(params)** — merges ``params`` into the captured slots, builds
  the :class:`~repro.serving.plan_cache.Fingerprint` from them (no regex
  scan, no literal re-splice) and probes the database's shared
  :class:`~repro.serving.plan_cache.PlanCache`: a hit rebinds the cached
  template copy-on-write, a miss compiles and stores it.

The statement holds no plans of its own, so the shared cache's rules are
the only rules: a template evicted at capacity or invalidated by a
catalog-version bump recompiles transparently on the next ``execute``,
and a statement prepared after identical ad-hoc traffic starts hot.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.sqlpgq.binder import execute_ddl
from repro.errors import SessionClosed
from repro.exec.context import QueryResult
from repro.serving.plan_cache import (
    Fingerprint,
    compile_template,
    merge_params,
    scan_text,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (database imports us)
    from repro.serving.database import PendingQuery, Session

__all__ = ["PreparedStatement"]


class PreparedStatement:
    """A reusable handle for one SQL/PGQ statement (from ``Session.prepare``).

    Thread-safe: concurrent ``execute`` calls on one handle are allowed
    (each gets its own :class:`~repro.exec.context.QueryHandle`, snapshot
    pin and lease; the handle itself is immutable after ``prepare``).
    ``close()`` releases the handle; the session closes any statements
    still open when it closes.
    """

    def __init__(self, session: "Session", sql: str):
        self.session = session
        self.sql = sql
        self._normalized, self._raw_values = scan_text(sql)
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Bind ``params`` and run the statement to completion.

        Raises :class:`~repro.errors.ParameterError` when ``params`` does
        not match the statement's ``?`` placeholders (count or type).
        """
        self._check_open()
        return self.session._execute(lambda: self._resolve_plan(params), timeout)

    def submit(
        self,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> "PendingQuery":
        """Queue an execution on the shared worker pool (async twin of
        :meth:`execute`); plan resolution happens on the worker."""
        self._check_open()
        return self.session._enqueue(
            self.sql, timeout, lambda: self._resolve_plan(params)
        )

    # ------------------------------------------------------------------ #
    # plan resolution (the no-scan hot path)
    # ------------------------------------------------------------------ #

    def _resolve_plan(self, params: Sequence[Any] | None):
        """Executable physical plan for ``params`` (None for DDL): the
        shared cache's template rebound, or a full parse/bind/optimize
        via ``compile_template`` on a miss."""
        database = self.session.database
        merged = merge_params(self._raw_values, params)
        fp = Fingerprint(
            self._normalized, merged, tuple(type(v).__name__ for v in merged)
        )
        entry = database.plan_cache.lookup(fp)
        if entry is not None:
            return entry.bind(merged)
        optimized, _ = compile_template(
            database.plan_cache,
            fp,
            self.sql,
            database.catalog,
            lambda query: database.framework().optimize(query),
            params=params,
            on_ddl=lambda statement: execute_ddl(statement, database.catalog),
        )
        # Uncacheable (safety valve) plans execute directly, uncached.
        return None if optimized is None else optimized.physical

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the handle (idempotent); further ``execute`` raises."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.session._forget_statement(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosed(f"prepared statement is closed: {self.sql!r}")
        if self.session.closed:
            raise SessionClosed(f"session {self.session.session_id} is closed")

    def __enter__(self) -> "PreparedStatement":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"PreparedStatement({self.sql!r}, {state})"
