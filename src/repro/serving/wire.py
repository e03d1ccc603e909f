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

**Frame types** (request → replies):

====================  =====================================================
``hello``             version handshake → ``hello_ok`` (session id)
``execute``           queue sql (or a prepared ``stmt_id``) with optional
                      ``params``/``timeout`` on the shared worker pool
                      → ``accepted`` (query id); never blocks the
                      connection
``poll``              is the query done?  optional bounded ``wait_s``
                      long-poll → ``status``
``fetch``             consume the next ≤ ``max_rows`` result rows,
                      long-polling up to ``wait_s``
                      → ``rows`` (``done`` flags the final chunk, which
                      carries the execution stats) | ``pending`` | ``error``
``cancel``            cooperative cancel → ``cancel_ok``
``prepare``           prepared statement → ``prepared`` (stmt id)
``close_stmt``        release a prepared statement → ``close_stmt_ok``
``close``             close the session → ``close_ok``, then disconnect
====================  =====================================================

**Errors.**  Query failures travel as ``error`` frames whose payload is
:func:`repro.errors.error_to_wire` — a stable code plus the structured
constructor data — so :class:`~repro.errors.QueryTimeout`,
:class:`~repro.errors.OutOfMemoryError` and
:class:`~repro.errors.AdmissionError` re-raise *typed* on the client.
Framing violations (oversized frame, malformed JSON, unknown frame type)
get :data:`~repro.errors.PROTOCOL_ERROR_CODE` and the connection is
closed: a peer that cannot frame correctly cannot be trusted with a
session.

**Blocking model.**  One reader thread per connection; it never blocks on
query progress.  ``fetch``/``poll`` long-polls are resolved by the
query's done-callback (running on the pool worker that finished it) or by
a daemon timer expiring the wait — which is why a ``cancel`` frame can
always race a completion and still get service.
"""

from __future__ import annotations

import itertools
import json
import socket
import struct
import threading
from typing import Any

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
PROTOCOL_VERSION = 1

#: Hard per-frame byte limit (both directions).  Large results are
#: streamed in ``fetch`` chunks, so no legitimate frame approaches this.
MAX_FRAME = 16 * 1024 * 1024

#: Server-side cap on one long-poll wait; clients re-issue to wait longer
#: (keeps every registered timer short-lived).
MAX_WAIT_S = 30.0

#: Default ``fetch`` chunk size when the client does not ask for one.
DEFAULT_FETCH_ROWS = 1024


class ProtocolError(ReproError):
    """The peer violated the framing protocol (oversized frame, malformed
    JSON, unknown frame type, bad handshake).  Maps to
    :data:`~repro.errors.PROTOCOL_ERROR_CODE` on the wire."""


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


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #


class _WireQuery:
    """One in-flight query on a connection: the future + a fetch cursor."""

    __slots__ = ("pending", "offset")

    def __init__(self, pending):
        self.pending = pending
        self.offset = 0


class _Waiter:
    """One outstanding long-poll (``fetch``/``poll``): exactly one of the
    done-callback or the expiry timer claims it and sends the reply."""

    __slots__ = ("_claimed", "_lock", "timer")

    def __init__(self):
        self._lock = threading.Lock()
        self._claimed = False
        self.timer: threading.Timer | None = None

    def claim(self) -> bool:
        with self._lock:
            if self._claimed:
                return False
            self._claimed = True
        if self.timer is not None:
            self.timer.cancel()
        return True


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
        except ReproError as exc:
            self._send_error(seq, exc)
            return True
        except Exception as exc:  # noqa: BLE001 - server bug, not a wire fault
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
        params = frame.get("params")
        timeout = frame.get("timeout")
        stmt_id = frame.get("stmt_id")
        if stmt_id is not None:
            with self._lock:
                statement = self._statements.get(stmt_id)
            if statement is None:
                self._protocol_error(seq, f"unknown stmt_id: {stmt_id}")
                return True
            pending = statement.submit(params, timeout=timeout)
        else:
            sql = frame.get("sql")
            if not isinstance(sql, str):
                self._protocol_error(seq, "execute frame requires sql or stmt_id")
                return True
            pending = self.session.submit(sql, timeout=timeout, params=params)
        with self._lock:
            query_id = next(self._ids)
            self._queries[query_id] = _WireQuery(pending)
        self._send({"seq": seq, "type": "accepted", "query_id": query_id})
        return True

    def _on_poll(self, seq, frame) -> bool:
        query = self._query(seq, frame)
        if query is None:
            return True
        wait_s = min(float(frame.get("wait_s") or 0.0), MAX_WAIT_S)

        def reply(_pending=None) -> None:
            self._send(
                {"seq": seq, "type": "status", "done": query.pending.done()}
            )

        if wait_s <= 0 or query.pending.done():
            reply()
            return True
        self._longpoll(query, wait_s, on_done=reply, on_expiry=reply)
        return True

    def _on_fetch(self, seq, frame) -> bool:
        query = self._query(seq, frame)
        if query is None:
            return True
        wait_s = min(float(frame.get("wait_s") or 0.0), MAX_WAIT_S)
        max_rows = int(frame.get("max_rows") or DEFAULT_FETCH_ROWS)
        if query.pending.done():
            self._reply_fetch(seq, frame.get("query_id"), query, max_rows)
            return True
        if wait_s <= 0:
            self._send({"seq": seq, "type": "pending"})
            return True
        self._longpoll(
            query,
            wait_s,
            on_done=lambda _p=None: self._reply_fetch(
                seq, frame.get("query_id"), query, max_rows
            ),
            on_expiry=lambda: self._send({"seq": seq, "type": "pending"}),
        )
        return True

    def _on_cancel(self, seq, frame) -> bool:
        query_id = frame.get("query_id")
        with self._lock:
            query = self._queries.get(query_id)
        if query is not None:
            query.pending.cancel(str(frame.get("reason") or "cancelled by client"))
        # Idempotent: cancelling a finished/unknown query is not an error.
        self._send({"seq": seq, "type": "cancel_ok", "known": query is not None})
        return True

    def _on_prepare(self, seq, frame) -> bool:
        sql = frame.get("sql")
        if not isinstance(sql, str):
            self._protocol_error(seq, "prepare frame requires sql")
            return True
        statement = self.session.prepare(sql)
        with self._lock:
            stmt_id = next(self._ids)
            self._statements[stmt_id] = statement
        self._send({"seq": seq, "type": "prepared", "stmt_id": stmt_id})
        return True

    def _on_close_stmt(self, seq, frame) -> bool:
        with self._lock:
            statement = self._statements.pop(frame.get("stmt_id"), None)
        if statement is not None:
            statement.close()
        self._send({"seq": seq, "type": "close_stmt_ok"})
        return True

    def _on_close(self, seq, frame) -> bool:
        self._send({"seq": seq, "type": "close_ok"})
        return False  # reader exits; _cleanup closes the session

    # -- long-poll / fetch internals -------------------------------------- #

    def _query(self, seq, frame) -> _WireQuery | None:
        query_id = frame.get("query_id")
        with self._lock:
            query = self._queries.get(query_id)
        if query is None:
            self._protocol_error(seq, f"unknown query_id: {query_id}")
        return query

    def _longpoll(self, query: _WireQuery, wait_s, on_done, on_expiry) -> None:
        waiter = _Waiter()

        def done_cb(_pending) -> None:
            if waiter.claim():
                on_done()

        def expire() -> None:
            if waiter.claim():
                on_expiry()

        timer = threading.Timer(wait_s, expire)
        timer.daemon = True
        waiter.timer = timer
        timer.start()
        query.pending.add_done_callback(done_cb)

    def _reply_fetch(self, seq, query_id, query: _WireQuery, max_rows: int) -> None:
        """Send the next chunk (or the error) of a *finished* query.

        Serialized per connection by ``_send_lock``-free design: the
        cursor is only advanced here, and a client awaits each fetch reply
        before issuing the next, so offsets never interleave."""
        try:
            result = query.pending.result(timeout=0)
        except TimeoutError:  # pragma: no cover - only called when done
            self._send({"seq": seq, "type": "pending"})
            return
        except BaseException as exc:  # noqa: BLE001 - shipped to the client
            with self._lock:
                self._queries.pop(query_id, None)
            self._send_error(seq, exc)
            return
        chunk = result.rows[query.offset : query.offset + max_rows]
        query.offset += len(chunk)
        done = query.offset >= len(result.rows)
        frame: dict = {
            "seq": seq,
            "type": "rows",
            "columns": list(result.columns),
            # Row tuples serialize as JSON arrays as they are.
            "rows": chunk,
            "done": done,
        }
        if done:
            frame["stats"] = {
                "execution_time": result.execution_time,
                "rows_produced": result.rows_produced,
                "peak_buffered_rows": result.peak_buffered_rows,
            }
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
        """Force-disconnect (server close): unblocks the reader thread."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class Server:
    """Serve a :class:`~repro.serving.database.Database` over a socket.

    ``Server(db)`` binds ``127.0.0.1`` on an ephemeral port (see
    :attr:`address`), spawns an accept thread, and gives every accepted
    connection its own session and reader thread.  Queries run on the
    database's shared worker pool — a flood of connections cannot spawn
    unbounded query threads.

    ``close()`` is a barrier: it stops accepting, force-disconnects every
    connection (whose cleanup cancels in-flight queries and closes its
    session, releasing leases and spill directories), and joins every
    server thread.
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0):
        self.database = database
        self._listener = socket.create_server((host, port))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._conns: set[_Connection] = set()
        self._conn_ids = itertools.count(1)
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
        self._accept_thread.join()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
