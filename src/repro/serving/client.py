"""Blocking wire client: a drop-in ``Session`` over a socket.

:class:`Client` speaks the :mod:`repro.serving.wire` protocol and exposes
the same surface as :class:`~repro.serving.database.Session` — ``execute``
/ ``submit`` / ``prepare`` / ``close`` — so the serving test suite passes
unchanged with a real network boundary in the middle (``REPRO_WIRE=1``
makes ``Database.connect()`` hand these out).

Each call maps onto its in-process twin.  ``execute`` is one hop: one
``execute`` frame, and the reply is the whole result as back-to-back
column-major ``rows`` chunks, appended column by column into the same
columnar :class:`~repro.exec.context.QueryResult` an in-process call
returns (rows are built on first access).
``submit`` returns a :class:`WirePendingQuery` whose ``result`` /
``cancel`` / ``done`` each issue their own correlated requests; its result
streams in bounded ``fetch`` chunks with a server-side long-poll, and a
chunk is only consumed when it arrives, so a client-side ``result``
timeout never loses data — the next call resumes where the stream left
off.

There is no background thread: the calling thread reads its own reply.
When several threads share one connection, whichever holds the read turn
reads frames off the socket and hands each to the thread whose ``seq`` it
carries; when its own reply arrives it passes the turn on through a
condition, so a waiting thread takes over without polling.

Typed errors round-trip: an ``error`` frame rebuilds the original
:class:`~repro.errors.ReproError` subclass (with its structured payload)
via :func:`repro.errors.error_from_wire`, and the query text is attached
as an exception note.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from typing import Any, Sequence

from repro.errors import (
    PROTOCOL_ERROR_CODE,
    QueryCancelled,
    SessionClosed,
    error_from_wire,
)
from repro.exec.context import QueryResult
from repro.exec.vector import ColumnarBatch
from repro.serving.wire import (
    DEFAULT_FETCH_ROWS,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
)

__all__ = ["Client", "WirePendingQuery", "WirePreparedStatement"]

#: Long-poll bound per fetch/poll round trip; short enough that close and
#: cancel stay responsive, long enough to avoid request churn.
DEFAULT_WAIT_S = 5.0


def _raise_wire_error(payload: dict, context: str | None = None):
    if payload.get("code") == PROTOCOL_ERROR_CODE:
        raise ProtocolError(payload.get("message", "protocol error"))
    exc = error_from_wire(payload)
    if context:
        exc.add_note(context)
    raise exc


class _Columns:
    """The column-major ``rows`` chunks of one reply, appended column by
    column as they arrive."""

    __slots__ = ("data", "n")

    def __init__(self):
        self.data: list[list] | None = None
        self.n = 0

    def add(self, frame: dict) -> QueryResult | None:
        """Append one chunk; the finished result on the final chunk."""
        if frame.get("type") != "rows":
            raise ProtocolError(f"unexpected reply: {frame.get('type')!r}")
        if self.data is None:
            self.data = [[] for _ in frame["data"]]
        for column, values in zip(self.data, frame["data"]):
            column.extend(values)
        self.n += frame["n"]
        if not frame["done"]:
            return None
        stats = frame.get("stats") or {}
        return QueryResult(
            frame["columns"],
            data=ColumnarBatch(self.data, self.n),
            execution_time=stats.get("execution_time", 0.0),
            rows_produced=stats.get("rows_produced", self.n),
            peak_buffered_rows=stats.get("peak_buffered_rows", 0),
        )


class Client:
    """A session over a socket (see module docstring).

    ``address`` is the ``(host, port)`` a :class:`~repro.serving.wire.Server`
    reports; the constructor connects and completes the ``hello``
    handshake (raising :class:`~repro.serving.wire.ProtocolError` on a
    version mismatch).
    """

    def __init__(
        self,
        address: tuple[str, int],
        connect_timeout: float | None = 10.0,
        fetch_rows: int = DEFAULT_FETCH_ROWS,
    ):
        self.address = address
        self.fetch_rows = fetch_rows
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        # Guards everything below; waiting threads sleep on it.
        self._cond = threading.Condition()
        self._inboxes: dict[int, deque] = {}  # seq -> replies not yet taken
        self._reading = False  # some thread holds the read turn
        self._seq = itertools.count(1)
        self._closed = False
        self._broken: BaseException | None = None
        try:
            hello = self.call("hello", protocol=PROTOCOL_VERSION)
        except BaseException:
            self._sock.close()
            raise
        self.session_id = hello.get("session_id")

    # ------------------------------------------------------------------ #
    # request/reply plumbing
    # ------------------------------------------------------------------ #

    def _failure(self) -> Exception:
        """The error a call raises once the connection is unusable."""
        if self._closed:
            return SessionClosed("client is closed")
        if isinstance(self._broken, SessionClosed):
            return SessionClosed(str(self._broken))
        return ConnectionError(str(self._broken or "connection lost"))

    def _request(self, kind: str, fields: dict) -> int:
        """Send one request frame; returns its ``seq``, whose replies
        collect in an inbox until :meth:`_forget`."""
        with self._cond:
            if self._closed or self._broken is not None:
                raise self._failure()
            seq = next(self._seq)
            self._inboxes[seq] = deque()
        try:
            with self._send_lock:
                send_frame(self._sock, {"seq": seq, "type": kind, **fields})
        except OSError as exc:
            self._forget(seq)
            raise ConnectionError(f"send failed: {exc}") from exc
        return seq

    def _forget(self, seq: int) -> None:
        with self._cond:
            self._inboxes.pop(seq, None)

    def _reply(self, seq: int) -> dict:
        """The next reply to ``seq``: from its inbox, or read off the
        socket by this thread while it holds the read turn."""
        with self._cond:
            while True:
                inbox = self._inboxes[seq]
                if inbox:
                    return inbox.popleft()
                if self._broken is not None:
                    raise self._failure()
                if not self._reading:
                    self._reading = True
                    break
                self._cond.wait()
        try:
            while True:
                frame = recv_frame(self._sock)
                if frame is None:
                    # Orderly EOF: the server (or our own close) ended the
                    # session, which is a lifecycle event, not a transport
                    # fault — this and later calls raise SessionClosed.
                    raise SessionClosed("connection closed by server")
                owner = frame.get("seq")
                if owner == seq:
                    return frame
                with self._cond:
                    # An unknown seq is a reply to an abandoned request.
                    inbox = self._inboxes.get(owner) if isinstance(owner, int) else None
                    if inbox is not None:
                        inbox.append(frame)
                        self._cond.notify_all()
        except (SessionClosed, ProtocolError, OSError) as exc:
            with self._cond:
                if self._broken is None:
                    self._broken = exc
            raise self._failure() from exc
        finally:
            with self._cond:
                self._reading = False
                self._cond.notify_all()

    def call(self, kind: str, *, note: str | None = None, **fields: Any) -> dict:
        """Send one request frame and return its one reply; an ``error``
        reply raises, with ``note`` (the query text) attached."""
        seq = self._request(kind, fields)
        try:
            frame = self._reply(seq)
        finally:
            self._forget(seq)
        if frame.get("type") == "error":
            _raise_wire_error(frame.get("error") or {}, note)
        return frame

    def _execute(self, note: str, **fields: Any) -> QueryResult:
        """One ``execute`` frame; the reply is every chunk of the result."""
        seq = self._request("execute", {**fields, "max_rows": self.fetch_rows})
        columns = _Columns()
        try:
            while True:
                frame = self._reply(seq)
                if frame.get("type") == "error":
                    _raise_wire_error(frame.get("error") or {}, note)
                result = columns.add(frame)
                if result is not None:
                    return result
        finally:
            self._forget(seq)

    # ------------------------------------------------------------------ #
    # the Session surface
    # ------------------------------------------------------------------ #

    def execute(
        self,
        sql: str,
        timeout: float | None = None,
        params: Sequence[Any] | None = None,
    ) -> QueryResult:
        """Run ``sql`` to completion over the wire, in one round trip."""
        return self._execute(
            sql,
            sql=sql,
            params=list(params) if params is not None else None,
            timeout=timeout,
        )

    def submit(
        self,
        sql: str,
        timeout: float | None = None,
        params: Sequence[Any] | None = None,
    ) -> "WirePendingQuery":
        """Queue ``sql`` on the server's worker pool; returns a future."""
        accepted = self.call(
            "submit",
            note=sql,
            sql=sql,
            params=list(params) if params is not None else None,
            timeout=timeout,
        )
        return WirePendingQuery(self, accepted["query_id"], sql)

    def prepare(self, sql: str) -> "WirePreparedStatement":
        """Server-side prepared statement; params bind per execute."""
        prepared = self.call("prepare", note=sql, sql=sql)
        return WirePreparedStatement(self, prepared["stmt_id"], sql)

    # ------------------------------------------------------------------ #
    # result streaming of a submitted query (WirePendingQuery.result)
    # ------------------------------------------------------------------ #

    def _collect(
        self, query_id: int, sql: str, timeout: float | None
    ) -> QueryResult:
        deadline = None if timeout is None else time.monotonic() + timeout
        columns = _Columns()
        while True:
            wait_s = DEFAULT_WAIT_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"query still running after {timeout}s: {sql!r}"
                    )
                wait_s = min(wait_s, remaining)
            frame = self.call(
                "fetch",
                note=sql,
                query_id=query_id,
                wait_s=wait_s,
                max_rows=self.fetch_rows,
            )
            if frame.get("type") == "pending":
                continue
            result = columns.add(frame)
            if result is not None:
                return result

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the session (server side cancels anything in flight)."""
        with self._cond:
            if self._closed:
                return
        try:
            self.call("close")
        except (ConnectionError, SessionClosed, ProtocolError):
            pass  # server may already be gone; the socket close below suffices
        with self._cond:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class WirePendingQuery:
    """Client-side future over a server query (mirror of
    :class:`~repro.serving.database.PendingQuery`)."""

    def __init__(self, client: Client, query_id: int, sql: str):
        self.client = client
        self.query_id = query_id
        self.sql = sql
        self._result: QueryResult | None = None
        self._error: BaseException | None = None
        self._finished = False

    def cancel(self, reason: str = "query cancelled") -> None:
        """Ask the server to cancel (idempotent; may race completion)."""
        try:
            self.client.call("cancel", query_id=self.query_id, reason=reason)
        except (ConnectionError, SessionClosed):
            pass  # a dead connection cancels server-side via disconnect

    def done(self) -> bool:
        if self._finished:
            return True
        if self.client.closed:
            return True  # session close cancelled + drained server-side
        frame = self.client.call("poll", query_id=self.query_id)
        return bool(frame.get("done"))

    def wait(self, timeout: float | None = None) -> bool:
        """Block (long-polling) up to ``timeout``; True when finished."""
        if self._finished:
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait_s = DEFAULT_WAIT_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                wait_s = min(wait_s, remaining)
            frame = self.client.call(
                "poll", query_id=self.query_id, wait_s=wait_s
            )
            if frame.get("done"):
                return True

    def result(self, timeout: float | None = None) -> QueryResult:
        """Stream the result (blocks; re-raises the query's typed error).

        A client-side timeout is loss-free: chunks fetched so far were
        consumed, the rest stay buffered server-side for the next call.
        """
        if self._finished:
            if self._error is not None:
                raise self._error
            assert self._result is not None
            return self._result
        if self.client.closed:
            # Mirrors the in-process future: closing the session cancelled
            # anything in flight, so an unfetched result is a cancellation.
            raise QueryCancelled("session closed before the result was fetched")
        try:
            result = self.client._collect(self.query_id, self.sql, timeout)
        except TimeoutError:
            raise  # loss-free: retryable, so the future is not finished
        except Exception as exc:
            if isinstance(exc, (ConnectionError, ProtocolError)):
                raise  # transport fault, not the query's outcome
            self._error = exc
            self._finished = True
            raise
        self._result = result
        self._finished = True
        return result


class WirePreparedStatement:
    """Client handle for a server-side prepared statement."""

    def __init__(self, client: Client, stmt_id: int, sql: str):
        self.client = client
        self.stmt_id = stmt_id
        self.sql = sql
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosed(f"prepared statement is closed: {self.sql!r}")

    def execute(
        self,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        self._check_open()
        return self.client._execute(
            self.sql,
            stmt_id=self.stmt_id,
            params=list(params) if params is not None else None,
            timeout=timeout,
        )

    def submit(
        self,
        params: Sequence[Any] | None = None,
        timeout: float | None = None,
    ) -> WirePendingQuery:
        self._check_open()
        accepted = self.client.call(
            "submit",
            note=self.sql,
            stmt_id=self.stmt_id,
            params=list(params) if params is not None else None,
            timeout=timeout,
        )
        return WirePendingQuery(self.client, accepted["query_id"], self.sql)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.client.call("close_stmt", stmt_id=self.stmt_id)
        except (ConnectionError, SessionClosed):
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WirePreparedStatement":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
