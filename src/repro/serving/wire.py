"""Wire front-end: a length-prefixed JSON-framed socket protocol.

The serving layer so far is in-process: callers hold a
:class:`~repro.serving.database.Database` and connect sessions directly.
This module puts a socket in front of it so the engine can serve clients
in other processes — and so the test suite can exercise the full
session/pool/cache stack through a real network boundary
(``REPRO_WIRE=1`` swaps every ``Database.connect()`` for a socket-backed
:class:`~repro.serving.client.Client`).

**Framing.**  Every message is a *frame*: a 4-byte big-endian length
followed by that many bytes of UTF-8 JSON (one object).  Frames above
:data:`MAX_FRAME` bytes are a protocol violation.  Requests carry a
client-chosen ``seq``; every reply echoes it, so a client can pipeline
requests over one connection and demultiplex replies.

**Frame types** (protocol 2; request → replies).  Each wire call maps onto
its in-process twin: ``execute`` is ``Session.execute`` (one hop, the
whole result in the reply), ``submit`` is ``Session.submit`` (a future
read back with ``poll`` / ``fetch`` / ``cancel``):

====================  =====================================================
``hello``             version handshake → ``hello_ok`` (session id); any
                      other ``protocol`` than :data:`PROTOCOL_VERSION` →
                      ``PROTOCOL_ERROR`` and a disconnect
``execute``           run sql (or a prepared ``stmt_id``) with optional
                      ``params``/``timeout`` to completion on this
                      connection's thread → back-to-back ``rows`` chunks of
                      ≤ ``max_rows`` rows, the last flagged ``done`` with
                      the execution stats | ``error``
``submit``            queue the same on the shared worker pool
                      → ``accepted`` (query id); never blocks the
                      connection
``poll``              is the submitted query done?  optional bounded
                      ``wait_s`` long-poll → ``status``
``fetch``             consume the next ≤ ``max_rows`` rows of a submitted
                      query, long-polling up to ``wait_s``
                      → ``rows`` | ``pending`` | ``error``
``cancel``            cooperative cancel of a submitted query
                      → ``cancel_ok``
``prepare``           prepared statement → ``prepared`` (stmt id)
``close_stmt``        release a prepared statement → ``close_stmt_ok``
``close``             close the session → ``close_ok``, then disconnect
====================  =====================================================

A ``rows`` chunk is column-major: ``columns`` (names), ``data`` (one JSON
array per column, sliced from the result's columns), ``n`` (the chunk's row
count) and ``done``; the client appends each array to its column, so a wire
result holds columns like an in-process one.

**Errors.**  Query failures travel as ``error`` frames whose payload is
:func:`repro.errors.error_to_wire` — a stable code plus the structured
constructor data — so :class:`~repro.errors.QueryTimeout`,
:class:`~repro.errors.OutOfMemoryError` and
:class:`~repro.errors.AdmissionError` re-raise *typed* on the client.
Framing violations (oversized frame, malformed JSON, unknown frame type,
wrong protocol version) get :data:`~repro.errors.PROTOCOL_ERROR_CODE` and
the connection is closed: a peer that cannot frame correctly cannot be
trusted with a session.  A well-framed request with a bad field (wrong
type, unknown id) gets ``PROTOCOL_ERROR`` under its ``seq`` and the
connection stays open.

**Concurrency.**  One reader thread per connection.  Synchronous
``execute`` requests on one connection run one at a time on that thread,
like calls through one ``Session``; a connection's other requests wait
behind one.  The worker pool bounds asynchronous (``submit``) work and the
governor bounds memory.  ``poll``/``fetch`` long-polls never block the
reader: each is answered by the query's done-callback (on the pool worker
that finished it) or by the server's one expiry thread at its deadline,
whichever claims it first — which is why a ``cancel`` frame can always
race a completion and still get service.  :meth:`Server.close` cancels a
synchronous execute in progress through the session's handle registry, so
close stays a bounded barrier.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import socket
import struct
import threading
import time
from typing import Any, Callable

from repro.errors import (
    PROTOCOL_ERROR_CODE,
    ReproError,
    error_to_wire,
)

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Server",
    "recv_frame",
    "send_frame",
]

#: Wire protocol version; bumped on any incompatible frame change.
PROTOCOL_VERSION = 2

#: Hard per-frame byte limit (both directions).  Large results are
#: streamed in ``rows`` chunks, so no legitimate frame approaches this.
MAX_FRAME = 16 * 1024 * 1024

#: Server-side cap on one long-poll wait; clients re-issue to wait longer
#: (keeps every expiry entry short-lived).
MAX_WAIT_S = 30.0

#: Default chunk size when the client does not ask for one.
DEFAULT_FETCH_ROWS = 1024


class ProtocolError(ReproError):
    """The peer violated the framing protocol (oversized frame, malformed
    JSON, unknown frame type, bad handshake) or sent a request field of
    the wrong type.  Maps to :data:`~repro.errors.PROTOCOL_ERROR_CODE` on
    the wire."""


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #

_HEADER = struct.Struct(">I")


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Serialize ``payload`` and write one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None  # clean EOF between frames, or mid-frame truncation
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on EOF; :class:`ProtocolError` on garbage."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


def _json_column(values) -> list:
    """A column slice as a JSON array of plain Python values (ndarray,
    dictionary and typed-buffer slices convert through ``tolist``)."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


def _rows_frame(seq, result, start: int, max_rows: int) -> dict:
    """The column-major ``rows`` chunk of ``result`` from row ``start``:
    ``data`` holds one array per column, sliced from the result's columns,
    ``n`` the chunk's row count; the final chunk carries ``done`` and the
    execution stats."""
    stop = min(start + max_rows, len(result))
    done = stop >= len(result)
    frame: dict = {
        "seq": seq,
        "type": "rows",
        "columns": list(result.columns),
        "data": [_json_column(column[start:stop]) for column in result.data.columns],
        "n": stop - start,
        "done": done,
    }
    if done:
        frame["stats"] = {
            "execution_time": result.execution_time,
            "rows_produced": result.rows_produced,
            "peak_buffered_rows": result.peak_buffered_rows,
        }
    return frame


# ---------------------------------------------------------------------- #
# request fields (outside input: checked before use)
# ---------------------------------------------------------------------- #


def _field(frame: dict, name: str, kinds: tuple[type, ...], default: Any = None) -> Any:
    """``frame[name]`` when it is one of ``kinds`` (a bool is never a
    number), ``default`` when absent or null, else :class:`ProtocolError`."""
    value = frame.get(name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ProtocolError(f"{name} must be {names}, got {value!r}")
    return value


def _seconds(frame: dict, name: str) -> float | None:
    value = _field(frame, name, (int, float))
    if value is not None and math.isnan(value):
        raise ProtocolError(f"{name} must be a number of seconds, got NaN")
    return value


def _wait_s(frame: dict) -> float:
    return min(max(_seconds(frame, "wait_s") or 0.0, 0.0), MAX_WAIT_S)


def _max_rows(frame: dict) -> int:
    max_rows = _field(frame, "max_rows", (int,), DEFAULT_FETCH_ROWS)
    if max_rows < 1:
        raise ProtocolError(f"max_rows must be positive, got {max_rows}")
    return max_rows


# ---------------------------------------------------------------------- #
# long-poll expiry
# ---------------------------------------------------------------------- #


class _Waiter:
    """One outstanding long-poll (``fetch``/``poll``): exactly one of the
    query's done-callback and the expiry thread claims it and replies."""

    __slots__ = ("_lock", "_on_expiry")

    def __init__(self, on_expiry: Callable[[], None]):
        self._lock = threading.Lock()
        self._on_expiry: Callable[[], None] | None = on_expiry

    def claim(self) -> Callable[[], None] | None:
        """The expiry reply if this call won the claim, else None.  A
        claimed waiter drops its reply, so an entry left in the expiry
        heap holds nothing of the query."""
        with self._lock:
            on_expiry, self._on_expiry = self._on_expiry, None
        return on_expiry

    @property
    def claimed(self) -> bool:
        return self._on_expiry is None


class _Expiry:
    """One thread per :class:`Server` that expires long-polls: a deadline
    heap under a condition.  The thread starts with the first long-poll and
    stops at :meth:`close`; claimed entries are dropped when they surface
    at the top of the heap."""

    def __init__(self):
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int, _Waiter]] = []
        self._order = itertools.count()
        self._thread: threading.Thread | None = None
        self._closed = False

    def add(self, wait_s: float, waiter: _Waiter) -> None:
        entry = (time.monotonic() + wait_s, next(self._order), waiter)
        with self._cond:
            if self._closed:
                return  # server closing: its connections are gone
            heapq.heappush(self._heap, entry)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-wire-expiry", daemon=True
                )
                self._thread.start()
            elif self._heap[0] is entry:
                self._cond.notify()  # a new earliest deadline

    def _run(self) -> None:
        while True:
            with self._cond:
                due = self._wait_for_due()
            if due is None:
                return
            for waiter in due:
                on_expiry = waiter.claim()
                if on_expiry is not None:
                    on_expiry()

    def _wait_for_due(self) -> list[_Waiter] | None:
        """Block (holding the condition) until some deadline passes; the
        waiters due, or None once closed."""
        heap = self._heap
        while not self._closed:
            while heap and heap[0][2].claimed:
                heapq.heappop(heap)
            if not heap:
                self._cond.wait()
                continue
            now = time.monotonic()
            if heap[0][0] > now:
                self._cond.wait(heap[0][0] - now)
                continue
            due = []
            while heap and heap[0][0] <= now:
                due.append(heapq.heappop(heap)[2])
            return due
        return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._heap.clear()
            self._cond.notify()
            thread = self._thread
        if thread is not None:
            thread.join()


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #


class _WireQuery:
    """One submitted query on a connection: the future + a fetch cursor."""

    __slots__ = ("pending", "offset")

    def __init__(self, pending):
        self.pending = pending
        self.offset = 0


class _Connection:
    """Server side of one client socket: a session plus its reader thread."""

    def __init__(self, server: "Server", sock: socket.socket, conn_id: int):
        self.server = server
        self.sock = sock
        self.conn_id = conn_id
        # _local_connect, not connect(): under REPRO_WIRE=1 connect() is
        # swapped to return wire clients, and a server-side session built
        # through it would recurse into this very server.
        self.session = server.database._local_connect()
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._queries: dict[int, _WireQuery] = {}
        self._statements: dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._cleaned = False
        self.thread = threading.Thread(
            target=self._serve, name=f"repro-wire-conn-{conn_id}", daemon=True
        )

    # -- plumbing -------------------------------------------------------- #

    def _send(self, payload: dict) -> None:
        try:
            with self._send_lock:
                send_frame(self.sock, payload)
        except OSError:
            pass  # peer gone; the reader thread handles the disconnect

    def _send_error(self, seq, exc: BaseException) -> None:
        self._send({"seq": seq, "type": "error", "error": error_to_wire(exc)})

    def _protocol_error(self, seq, message: str) -> None:
        self._send(
            {
                "seq": seq,
                "type": "error",
                "error": {"code": PROTOCOL_ERROR_CODE, "message": message},
            }
        )

    # -- reader loop ----------------------------------------------------- #

    def _serve(self) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(self.sock)
                except ProtocolError as exc:
                    # Framing is broken; one best-effort error, then hang up.
                    self._protocol_error(None, str(exc))
                    return
                except OSError:
                    return
                if frame is None:  # EOF (including mid-stream disconnect)
                    return
                if not self._dispatch(frame):
                    return
        finally:
            self._cleanup()

    def _dispatch(self, frame: dict) -> bool:
        seq = frame.get("seq")
        kind = frame.get("type")
        handler = getattr(self, f"_on_{kind}", None) if isinstance(kind, str) else None
        if handler is None:
            self._protocol_error(seq, f"unknown frame type: {kind!r}")
            return False
        try:
            return handler(seq, frame)
        except ProtocolError as exc:  # a bad field: refuse the request only
            self._protocol_error(seq, str(exc))
            return True
        except Exception as exc:  # noqa: BLE001 - the query's error, shipped to the client
            self._send_error(seq, exc)
            return True

    # -- frame handlers --------------------------------------------------- #

    def _on_hello(self, seq, frame) -> bool:
        protocol = frame.get("protocol")
        if protocol != PROTOCOL_VERSION:
            self._protocol_error(
                seq,
                f"protocol version mismatch: client {protocol!r}, "
                f"server {PROTOCOL_VERSION}",
            )
            return False
        self._send(
            {
                "seq": seq,
                "type": "hello_ok",
                "protocol": PROTOCOL_VERSION,
                "session_id": self.session.session_id,
            }
        )
        return True

    def _on_execute(self, seq, frame) -> bool:
        """Run to completion here, as ``Session.execute`` runs on its
        caller's thread, and reply with every chunk back to back."""
        max_rows = _max_rows(frame)
        statement, sql, params, timeout = self._request(frame)
        if statement is not None:
            result = statement.execute(params, timeout=timeout)
        else:
            result = self.session.execute(sql, timeout=timeout, params=params)
        offset = 0
        while True:
            chunk = _rows_frame(seq, result, offset, max_rows)
            self._send(chunk)
            if chunk["done"]:
                return True
            offset += chunk["n"]

    def _on_submit(self, seq, frame) -> bool:
        statement, sql, params, timeout = self._request(frame)
        if statement is not None:
            pending = statement.submit(params, timeout=timeout)
        else:
            pending = self.session.submit(sql, timeout=timeout, params=params)
        with self._lock:
            query_id = next(self._ids)
            self._queries[query_id] = _WireQuery(pending)
        self._send({"seq": seq, "type": "accepted", "query_id": query_id})
        return True

    def _on_poll(self, seq, frame) -> bool:
        query = self._lookup(self._queries, frame, "query_id")

        def reply() -> None:
            self._send({"seq": seq, "type": "status", "done": query.pending.done()})

        self._longpoll(query, _wait_s(frame), on_done=reply, on_expiry=reply)
        return True

    def _on_fetch(self, seq, frame) -> bool:
        query = self._lookup(self._queries, frame, "query_id")
        query_id = frame["query_id"]
        max_rows = _max_rows(frame)
        self._longpoll(
            query,
            _wait_s(frame),
            on_done=lambda: self._reply_fetch(seq, query_id, query, max_rows),
            on_expiry=lambda: self._send({"seq": seq, "type": "pending"}),
        )
        return True

    def _on_cancel(self, seq, frame) -> bool:
        query_id = frame.get("query_id")
        with self._lock:
            query = self._queries.get(query_id) if _is_id(query_id) else None
        if query is not None:
            query.pending.cancel(str(frame.get("reason") or "cancelled by client"))
        # Idempotent: cancelling a finished/unknown query is not an error.
        self._send({"seq": seq, "type": "cancel_ok", "known": query is not None})
        return True

    def _on_prepare(self, seq, frame) -> bool:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError("prepare frame requires sql")
        statement = self.session.prepare(sql)
        with self._lock:
            stmt_id = next(self._ids)
            self._statements[stmt_id] = statement
        self._send({"seq": seq, "type": "prepared", "stmt_id": stmt_id})
        return True

    def _on_close_stmt(self, seq, frame) -> bool:
        stmt_id = frame.get("stmt_id")
        with self._lock:
            statement = self._statements.pop(stmt_id, None) if _is_id(stmt_id) else None
        if statement is not None:
            statement.close()
        self._send({"seq": seq, "type": "close_stmt_ok"})
        return True

    def _on_close(self, seq, frame) -> bool:
        self._send({"seq": seq, "type": "close_ok"})
        return False  # reader exits; _cleanup closes the session

    # -- request / long-poll / fetch internals ----------------------------- #

    def _lookup(self, table: dict, frame: dict, name: str):
        key = frame.get(name)
        with self._lock:
            found = table.get(key) if _is_id(key) else None
        if found is None:
            raise ProtocolError(f"unknown {name}: {key!r}")
        return found

    def _request(self, frame: dict):
        """``(statement, sql, params, timeout)`` of an execute/submit
        frame; ``statement`` is None when it names sql, not a stmt_id."""
        params = _field(frame, "params", (list,))
        timeout = _seconds(frame, "timeout")
        if frame.get("stmt_id") is not None:
            return self._lookup(self._statements, frame, "stmt_id"), None, params, timeout
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise ProtocolError(f"{frame['type']} frame requires sql or stmt_id")
        return None, sql, params, timeout

    def _longpoll(self, query: _WireQuery, wait_s: float, on_done, on_expiry) -> None:
        if query.pending.done():
            on_done()
            return
        if wait_s <= 0:
            on_expiry()
            return
        waiter = _Waiter(on_expiry)

        def done_cb(_pending) -> None:
            if waiter.claim() is not None:
                on_done()

        self.server._expiry.add(wait_s, waiter)
        query.pending.add_done_callback(done_cb)

    def _reply_fetch(self, seq, query_id, query: _WireQuery, max_rows: int) -> None:
        """Send the next chunk (or the error) of a *finished* query.

        The cursor is only advanced here, and a client awaits each fetch
        reply before issuing the next, so offsets never interleave."""
        try:
            result = query.pending.result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - the query's error, shipped to the client
            with self._lock:
                self._queries.pop(query_id, None)
            self._send_error(seq, exc)
            return
        frame = _rows_frame(seq, result, query.offset, max_rows)
        query.offset += frame["n"]
        if frame["done"]:
            with self._lock:
                self._queries.pop(query_id, None)
        self._send(frame)

    # -- teardown ---------------------------------------------------------- #

    def _cleanup(self) -> None:
        with self._lock:
            if self._cleaned:
                return
            self._cleaned = True
            queries = list(self._queries.values())
            self._queries.clear()
            self._statements.clear()
        for query in queries:
            query.pending.cancel("client disconnected")
        self.session.close()  # cancels + drains; releases leases and spill
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._forget(self)

    def shutdown(self) -> None:
        """Force-disconnect (server close): unblocks the reader thread, and
        closing the session cancels a synchronous execute it is running."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self.session.close()


def _is_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class Server:
    """Serve a :class:`~repro.serving.database.Database` over a socket.

    ``Server(db)`` binds ``127.0.0.1`` on an ephemeral port (see
    :attr:`address`), spawns an accept thread, and gives every accepted
    connection its own session and reader thread, which also runs that
    connection's synchronous executes.  Submitted queries run on the
    database's shared worker pool — a flood of connections cannot spawn
    unbounded query threads — and one expiry thread, started with the
    first long-poll, answers every long-poll that outlives its wait.

    ``close()`` is a barrier: it stops accepting, force-disconnects every
    connection (closing its session cancels a synchronous execute in
    progress and every submitted query, releasing leases and spill
    directories), and joins every server thread.
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0):
        self.database = database
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._conns: set[_Connection] = set()
        self._conn_ids = itertools.count(1)
        self._expiry = _Expiry()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-wire-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                conn = _Connection(self, sock, next(self._conn_ids))
                self._conns.add(conn)
            conn.thread.start()

    def _forget(self, conn: _Connection) -> None:
        with self._lock:
            self._conns.discard(conn)

    @property
    def connections(self) -> int:
        with self._lock:
            return len(self._conns)

    def close(self) -> None:
        """Stop accepting, disconnect every client, join all threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
        # A thread blocked in accept() does not reliably observe a close()
        # from another thread; a throwaway connection wakes it so it can
        # see the closed flag and exit.
        try:
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            conn.shutdown()
        for conn in conns:
            conn.thread.join()
        self._expiry.close()
        self._accept_thread.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
