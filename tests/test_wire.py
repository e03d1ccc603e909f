"""Wire protocol: framing, typed error round-trips, adversarial clients.

The serving suite (``test_serving.py``) already exercises the full
session surface over the wire under ``REPRO_WIRE=1``; this module pins
the protocol itself:

1. **Framing** — length-prefixed JSON round-trips; oversized and
   malformed frames are refused with ``PROTOCOL_ERROR`` and the
   connection is dropped, without wedging the server.
2. **Typed errors** — ``QueryTimeout`` / ``OutOfMemoryError`` /
   ``AdmissionError`` / ``ParameterError`` cross the socket as stable
   codes and re-raise as the same class with their structured payload.
3. **Adversarial lifecycle** — mid-stream client disconnects, cancel
   racing completion, server close with queries in flight: nothing
   hangs, nothing leaks (threads, leases, spill files).
4. **One hop** — a synchronous ``execute`` is one client frame answered
   by column-major chunks, run on the connection's thread; values keep
   their Python types; callers sharing a connection read their own
   replies; one expiry thread answers every long-poll exactly once; a
   Hypothesis frame fuzzer never gets anything but a valid reply or
   ``PROTOCOL_ERROR`` plus a disconnect.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.serving.client as client_module
from repro.errors import (
    AdmissionError,
    OutOfMemoryError,
    ParameterError,
    QueryCancelled,
    QueryTimeout,
    SessionClosed,
    error_from_wire,
    error_to_wire,
)
from repro.exec import ColumnarBatch, execute_plan
from repro.exec.governor import MemoryGovernor
from repro.graph.index import build_graph_index
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.serving import Client, Database, Server
from repro.serving.wire import MAX_FRAME, PROTOCOL_VERSION, recv_frame, send_frame
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import ic_queries, qr_queries
from tests.test_lifecycle import assert_no_repro_threads

#: A 3-way self-join over 4000 rows: slow enough that cancellation and
#: disconnect tests reliably catch it mid-flight.
SLOW_SQL = (
    "SELECT COUNT(*) AS n FROM People p1, People p2, People p3 "
    "WHERE p1.age = p2.age AND p2.age = p3.age"
)


def _people_db(n=4, workers=None, **kwargs) -> Database:
    rows = (
        [(1, "Ann", 34), (2, "Bob", 28), (3, "Cid", 41), (4, "Dee", 28)]
        if n == 4
        else [(i, f"n{i}", i % 50) for i in range(n)]
    )
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "People",
            [
                Column("id", DataType.INT),
                Column("name", DataType.STRING),
                Column("age", DataType.INT),
            ],
            primary_key="id",
        ),
        rows=rows,
    )
    return Database(catalog=catalog, workers=workers, **kwargs)


def _assert_noted(exc: BaseException, sql: str) -> None:
    notes = getattr(exc, "__notes__", [])
    assert any(sql in note for note in notes), notes


@pytest.fixture()
def served():
    """A served people database; closed (and leak-checked) at teardown."""
    db = _people_db()
    server = Server(db)
    yield db, server
    server.close()
    db.close()
    assert_no_repro_threads()


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #


class TestFraming:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"seq": 1, "type": "hello", "protocol": 1})
            assert recv_frame(b) == {"seq": 1, "type": "hello", "protocol": 1}
        finally:
            a.close()
            b.close()

    def test_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_frame_refused(self, served):
        db, server = served
        with socket.create_connection(server.address, timeout=5) as sock:
            # A header claiming a frame bigger than MAX_FRAME: the server
            # must answer PROTOCOL_ERROR and hang up, not try to read it.
            sock.sendall(struct.pack(">I", MAX_FRAME + 1))
            reply = recv_frame(sock)
            assert reply is not None and reply["type"] == "error"
            assert reply["error"]["code"] == "PROTOCOL_ERROR"
            assert recv_frame(sock) is None  # connection dropped

    def test_malformed_json_refused(self, served):
        db, server = served
        with socket.create_connection(server.address, timeout=5) as sock:
            body = b"this is not json {"
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_frame(sock)
            assert reply is not None and reply["type"] == "error"
            assert reply["error"]["code"] == "PROTOCOL_ERROR"
            assert recv_frame(sock) is None

    def test_unknown_frame_type_refused(self, served):
        db, server = served
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, {"seq": 1, "type": "launch_missiles"})
            reply = recv_frame(sock)
            assert reply["error"]["code"] == "PROTOCOL_ERROR"
            assert recv_frame(sock) is None

    def test_protocol_version_mismatch_refused(self, served):
        db, server = served
        for protocol in (1, 999):  # 1: the pre-columnar protocol
            with socket.create_connection(server.address, timeout=5) as sock:
                send_frame(sock, {"seq": 1, "type": "hello", "protocol": protocol})
                reply = recv_frame(sock)
                assert reply["error"]["code"] == "PROTOCOL_ERROR"
                assert "version" in reply["error"]["message"]
                assert recv_frame(sock) is None

    def test_garbage_does_not_wedge_other_clients(self, served):
        db, server = served
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", 8) + b"\xff\xfe\x00\x01bad!")
            recv_frame(sock)  # PROTOCOL_ERROR
        # A well-behaved client connected after the abuse still works.
        with Client(server.address) as client:
            r = client.execute("SELECT name FROM People WHERE age = ?", params=[28])
            assert sorted(r.rows) == [("Bob",), ("Dee",)]


# ---------------------------------------------------------------------- #
# typed error round-trips
# ---------------------------------------------------------------------- #


class TestErrorRoundTrip:
    def test_wire_codes_cover_structured_errors(self):
        # Serialization unit check, no socket: each structured error
        # reconstructs through its real constructor.
        for exc in (
            QueryTimeout(1.5, 1.0),
            OutOfMemoryError(2_000, 1_000, "HASH_JOIN build"),
            AdmissionError(500, 1_000, 800),
        ):
            back = error_from_wire(error_to_wire(exc))
            assert type(back) is type(exc)
            assert str(back) == str(exc)
        oom = error_from_wire(error_to_wire(OutOfMemoryError(9, 5, "x")))
        assert (oom.rows, oom.budget, oom.label) == (9, 5, "x")

    def test_query_timeout_roundtrips(self, served):
        db, server = served
        db.catalog.table("People").extend(
            [(i, f"n{i}", i % 50) for i in range(10, 4000)]
        )
        with Client(server.address) as client:
            with pytest.raises(QueryTimeout) as info:
                client.execute(SLOW_SQL, timeout=0.02)
            assert info.value.deadline == 0.02
            assert info.value.elapsed >= 0.02
            assert getattr(info.value, "wire_code", None) == "QUERY_TIMEOUT"
            _assert_noted(info.value, SLOW_SQL)

    def test_out_of_memory_roundtrips(self, served):
        db, server = served
        db.catalog.table("People").extend(
            [(i, f"n{i}", i % 5) for i in range(10, 2000)]
        )
        db.config.memory_budget_rows = 100
        with Client(server.address) as client:
            with pytest.raises(OutOfMemoryError) as info:
                client.execute(SLOW_SQL)
            assert info.value.budget == 100
            assert info.value.rows > 100
            _assert_noted(info.value, SLOW_SQL)

    def test_admission_error_roundtrips(self, served):
        db, server = served
        db.governor = MemoryGovernor(total_rows=10, admission_timeout=0.0)
        db.config.memory_budget_rows = 100  # can never fit
        with Client(server.address) as client:
            with pytest.raises(AdmissionError) as info:
                client.execute("SELECT name FROM People")
            assert (info.value.requested, info.value.total) == (100, 10)

    def test_parameter_error_roundtrips(self, served):
        db, server = served
        sql = "SELECT name FROM People WHERE age = ?"
        with Client(server.address) as client:
            with pytest.raises(ParameterError) as info:
                client.execute(sql, params=[1, 2])
            _assert_noted(info.value, sql)
            stmt = client.prepare(sql)
            with pytest.raises(ParameterError) as info:
                stmt.execute([1, 2, 3])
            _assert_noted(info.value, sql)
            with pytest.raises(ParameterError) as info:
                stmt.submit([1, 2, 3]).result(timeout=30)
            _assert_noted(info.value, sql)
            stmt.close()

    def test_error_note_carries_query_text(self, served):
        db, server = served
        with Client(server.address) as client:
            with pytest.raises(Exception) as info:
                client.execute("SELECT nope FROM People")
            notes = getattr(info.value, "__notes__", [])
            assert any("SELECT nope FROM People" in n for n in notes)


# ---------------------------------------------------------------------- #
# adversarial lifecycle
# ---------------------------------------------------------------------- #


class TestAdversarialLifecycle:
    def test_mid_stream_disconnect_releases_resources(self):
        governor = MemoryGovernor(total_rows=1_000_000, admission_timeout=5.0)
        db = _people_db(n=4000)
        db.governor = governor
        server = Server(db)
        try:
            client = Client(server.address)
            pending = client.submit(SLOW_SQL)
            assert not pending.done() or True  # query is (likely) in flight
            # Rude disconnect: no close frame, just a dead socket.
            # (shutdown first: should any thread be blocked in recv on this
            # fd, the kernel defers the FIN past close() until the syscall
            # returns — shutdown pushes it out immediately.)
            client._sock.shutdown(socket.SHUT_RDWR)
            client._sock.close()
            # The server notices EOF, cancels the query, closes the
            # session, and releases every lease.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and server.connections:
                time.sleep(0.02)
            assert server.connections == 0
            assert governor.active_leases == 0
            assert governor.leased_rows == 0
        finally:
            server.close()
            db.close()
            assert_no_repro_threads()

    def test_cancel_racing_completion_is_benign(self, served):
        db, server = served
        with Client(server.address) as client:
            # Tiny queries: cancel lands before, during, or after each one.
            for i in range(20):
                pending = client.submit(
                    "SELECT name FROM People WHERE age = ?", params=[28]
                )
                pending.cancel("race probe")
                try:
                    rows = pending.result(timeout=30).rows
                    assert sorted(rows) == [("Bob",), ("Dee",)]
                except QueryCancelled:
                    pass  # the cancel won the race — equally correct

    def test_server_close_with_in_flight_queries(self):
        db = _people_db(n=4000, workers=2)
        server = Server(db)
        clients = [Client(server.address) for _ in range(3)]
        futures = [c.submit(SLOW_SQL) for c in clients]
        server.close()  # must not hang: cancels, drains, joins
        db.close()
        for f in futures:
            with pytest.raises(
                (QueryCancelled, SessionClosed, ConnectionError)
            ):
                f.result(timeout=10)
        for c in clients:
            c.close()
        assert_no_repro_threads()

    def test_chunked_fetch_streams_large_results(self, served):
        db, server = served
        db.catalog.table("People").extend(
            [(i, f"n{i}", i % 50) for i in range(10, 5000)]
        )
        client = Client(server.address, fetch_rows=128)
        try:
            r = client.execute("SELECT id FROM People")
            assert len(r.rows) == 4994  # 4 seed rows + 4990 appended
            assert r.rows_produced >= len(r.rows)
        finally:
            client.close()

    def test_eight_sessions_four_in_flight_pool_of_four(self):
        # The acceptance-criteria shape: 8 client sessions x 4 in-flight
        # queries on a worker pool of 4 — everything completes, the pool
        # never exceeds its bound, and close() leaks nothing.
        governor = MemoryGovernor(total_rows=10_000_000, admission_timeout=30.0)
        db = _people_db(n=2000, workers=4)
        db.governor = governor
        server = Server(db)
        try:
            clients = [Client(server.address) for _ in range(8)]
            futures = [
                c.submit(
                    "SELECT COUNT(*) AS n FROM People WHERE age = ?",
                    params=[i % 50],
                )
                for c in clients
                for i in range(4)
            ]
            for f in futures:
                assert f.result(timeout=60).rows[0][0] == 40
            assert db.pool.worker_count <= 4
            for c in clients:
                c.close()
            assert governor.active_leases == 0
            assert governor.leased_rows == 0
        finally:
            server.close()
            db.close()
            assert_no_repro_threads()

    def test_no_spill_files_leak_through_the_wire(self, tmp_path, repro_env):
        repro_env(spill_dir=tmp_path, spill_threshold=64)
        db = _people_db(n=3000)
        server = Server(db)
        try:
            with Client(server.address) as client:
                r = client.execute("SELECT id, name FROM People ORDER BY name, id")
                assert len(r.rows) == 3000
        finally:
            server.close()
            db.close()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_concurrent_requests_one_connection(self, served):
        # Many caller threads multiplexed over one client socket: seq
        # demultiplexing must never cross-deliver replies.
        db, server = served
        client = Client(server.address)
        errors: list[str] = []

        def worker(worker_id: int):
            want = {
                28: [("Bob",), ("Dee",)],
                34: [("Ann",)],
                41: [("Cid",)],
            }
            for i in range(10):
                age = (28, 34, 41)[(worker_id + i) % 3]
                got = sorted(
                    client.execute(
                        "SELECT name FROM People WHERE age = ?", params=[age]
                    ).rows
                )
                if got != want[age]:
                    errors.append(f"worker {worker_id}: {age} -> {got}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        assert errors == []

    def test_prepared_statement_over_wire_epoch_bump(self, served):
        db, server = served
        with Client(server.address) as client:
            stmt = client.prepare("SELECT name FROM People WHERE age = ?")
            assert sorted(stmt.execute([28]).rows) == [("Bob",), ("Dee",)]
            db.catalog.analyze()  # epoch bump behind the statement's back
            assert sorted(stmt.execute([28]).rows) == [("Bob",), ("Dee",)]
            stmt.close()
            with pytest.raises(SessionClosed):
                stmt.execute([28])


# ---------------------------------------------------------------------- #
# pending-query wait(), serve(), open_sessions
# ---------------------------------------------------------------------- #


class TestPendingWait:
    @pytest.mark.parametrize("over_wire", [False, True])
    def test_wait_times_out_then_completes(self, over_wire, monkeypatch):
        db = _people_db(n=4000, workers=1)
        try:
            if over_wire:
                connection = Client(db.serve().address)
            else:
                connection = db._local_connect()
            slow = connection.submit(SLOW_SQL)
            assert slow.wait(0.05) is False  # still running: the timeout expires
            assert not slow.done()
            slow.cancel("done probing")
            assert slow.wait(30) is True  # completion (here: as cancelled)
            with pytest.raises(QueryCancelled):
                slow.result(timeout=10)
            quick = connection.submit("SELECT name FROM People WHERE id = 7")
            assert quick.wait() is True  # no timeout: blocks until finished
            assert quick.result(timeout=10).rows == [("n7",)]

            def no_round_trip(*args, **kwargs):  # pragma: no cover
                raise AssertionError("wait() on a finished query polled")

            with monkeypatch.context() as patch:
                if over_wire:  # already finished: answered without a poll
                    patch.setattr(connection, "call", no_round_trip)
                assert quick.wait(0) is True
            connection.close()
        finally:
            db.close()
        assert_no_repro_threads()


class TestDatabaseSurface:
    def test_serve_is_idempotent_and_closed_with_the_database(self):
        db = _people_db()
        server = db.serve()
        assert db.serve() is server
        with Client(server.address) as client:
            assert client.execute("SELECT name FROM People WHERE id = 1").rows == [
                ("Ann",)
            ]
        db.close()
        with pytest.raises(SessionClosed):
            db.serve()
        with pytest.raises(ConnectionError):
            Client(server.address)
        assert_no_repro_threads()

    def test_open_sessions_counts_live_connections(self):
        db = _people_db()
        assert db.open_sessions == 0
        first, second = db._local_connect(), db._local_connect()
        assert db.open_sessions == 2
        first.close()
        assert db.open_sessions == 1
        db.close()  # closes the sessions still open
        assert second.closed and db.open_sessions == 0


# ---------------------------------------------------------------------- #
# one hop: column-major chunks, the connection's thread, shared sockets
# ---------------------------------------------------------------------- #


def _exact(rows) -> list[tuple]:
    """Rows as reprs: equal only when the values *and* their Python types
    are (``1`` is not ``1.0``; NaN equals NaN)."""
    return [tuple(map(repr, row)) for row in rows]


def _eventually(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _raw_session(address) -> socket.socket:
    """A socket past the v2 handshake, for frames no Client sends."""
    sock = socket.create_connection(address, timeout=30)
    send_frame(sock, {"seq": 0, "type": "hello", "protocol": PROTOCOL_VERSION})
    assert recv_frame(sock)["type"] == "hello_ok"
    return sock


def _slow_db(**kwargs) -> tuple[Database, MemoryGovernor]:
    governor = MemoryGovernor(total_rows=10_000_000, admission_timeout=5.0)
    db = _people_db(n=4000, **kwargs)
    db.governor = governor
    return db, governor


class TestColumnarChunks:
    def test_values_keep_their_python_types(self):
        catalog = Catalog()
        catalog.create_table(
            TableSchema(
                "Vals",
                [
                    Column("id", DataType.INT),
                    Column("i", DataType.INT),
                    Column("f", DataType.FLOAT),
                    Column("s", DataType.STRING),
                ],
                primary_key="id",
            ),
            rows=[
                (1, 2**53 + 1, float("nan"), "héllo ✓"),
                (2, 2**63 - 1, float("inf"), None),
                (3, None, float("-inf"), "日本語"),
                (4, -(2**53) - 3, -0.0, ""),
                (5, 0, 1e-300, 'quote " and \\ backslash'),
            ],
        )
        db = Database(catalog=catalog)
        server = Server(db)
        sql = "SELECT id, i, f, s FROM Vals ORDER BY id"
        try:
            with db._local_connect() as session, Client(server.address) as client:
                want = session.execute(sql).rows
                assert want[0][1] == 2**53 + 1 and want[1][3] is None
                assert want[2][1] is None and want[1][2] == float("inf")
                assert _exact(client.execute(sql).rows) == _exact(want)
                submitted = client.submit(sql).result(timeout=30).rows
                assert _exact(submitted) == _exact(want)
        finally:
            server.close()
            db.close()
        assert_no_repro_threads()

    @pytest.mark.parametrize("n_rows, chunk_sizes", [(0, [0]), (4, [4]), (5, [4, 1]), (12, [4, 4, 4])])
    def test_chunk_boundaries(self, served, monkeypatch, n_rows, chunk_sizes):
        db, server = served
        db.catalog.table("People").extend([(i, f"n{i}", 99) for i in range(10, 22)])
        sql = "SELECT id, name FROM People WHERE age = 99 AND id < ?"
        frames: list[dict] = []
        real_recv = client_module.recv_frame

        def recording(sock):
            frame = real_recv(sock)
            frames.append(frame)
            return frame

        monkeypatch.setattr(client_module, "recv_frame", recording)
        with Client(server.address, fetch_rows=4) as client:
            for run in (
                lambda: client.execute(sql, params=[10 + n_rows]),
                lambda: client.submit(sql, params=[10 + n_rows]).result(timeout=30),
            ):
                frames.clear()
                result = run()
                # A zero-row result still has its columns.
                assert result.columns == ["id", "name"]
                assert result.rows == [(i, f"n{i}") for i in range(10, 10 + n_rows)]
                chunks = [f for f in frames if f["type"] == "rows"]
                assert [f["n"] for f in chunks] == chunk_sizes
                assert [f["done"] for f in chunks] == [False] * (len(chunks) - 1) + [True]
                assert all(len(f["data"]) == 2 for f in chunks)

    def test_client_rows_equal_session_rows_on_every_ic_qr_statement(self):
        catalog, mapping = generate_ldbc(LdbcParams(persons=120, forums=12, seed=5))
        catalog.register_graph_index(build_graph_index(mapping))
        db = Database(catalog=catalog)
        server = Server(db)
        try:
            with db._local_connect() as session, Client(server.address, fetch_rows=64) as client:
                for name, sql in {**ic_queries(), **qr_queries()}.items():
                    want = session.execute(sql)
                    got = client.execute(sql)
                    assert got.columns == want.columns, name
                    assert _exact(got.rows) == _exact(want.rows), name
                    assert got.rows_produced == want.rows_produced, name
        finally:
            server.close()
            db.close()
        assert_no_repro_threads()


class TestOneHop:
    def test_wire_execute_is_one_hop(self, served, monkeypatch):
        """Architecture guard: a synchronous execute of a 3-chunk result is
        one client frame, no pool task and no new thread on either side."""
        db, server = served
        db.catalog.table("People").extend([(i, f"n{i}", i % 50) for i in range(10, 18)])
        sql = "SELECT id, name FROM People"
        sent: list[str] = []
        received: list[str] = []
        submitted: list = []
        started: list[str] = []
        real_send, real_recv = client_module.send_frame, client_module.recv_frame
        real_start = threading.Thread.start

        def send(sock, payload):
            sent.append(payload["type"])
            real_send(sock, payload)

        def recv(sock):
            frame = real_recv(sock)
            received.append(frame["type"])
            return frame

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        with Client(server.address, fetch_rows=5) as client:
            client.execute(sql)  # compile once; the connection thread runs
            with monkeypatch.context() as patch:
                patch.setattr(client_module, "send_frame", send)
                patch.setattr(client_module, "recv_frame", recv)
                patch.setattr(db.pool, "submit", submitted.append)
                patch.setattr(threading.Thread, "start", start)
                result = client.execute(sql)
        assert len(result.rows) == 12
        assert sent == ["execute"]
        assert received == ["rows"] * 3
        assert submitted == []
        assert started == []

    def test_execute_plan_builds_no_tuples(self, served, monkeypatch):
        """Architecture guard: a columnar ``execute_plan`` and a wire
        ``execute`` reply ship columns; row tuples are built once, when a
        caller first reads ``.rows``."""
        db, server = served
        db.catalog.table("People").extend([(i, f"n{i}", i % 50) for i in range(10, 18)])
        sql = "SELECT id, name FROM People WHERE age > 5"
        plan = db._prepare_plan(sql)
        calls: list[int] = []
        real_to_rows = ColumnarBatch.to_rows

        def counting(batch):
            calls.append(1)
            return real_to_rows(batch)

        with Client(server.address, fetch_rows=3) as client:
            monkeypatch.setattr(ColumnarBatch, "to_rows", counting)
            local = execute_plan(plan)
            remote = client.execute(sql)
            assert calls == []
            assert len(local) == len(remote) == 12
            assert remote.rows == local.rows
        assert len(calls) == 2

    def test_server_close_cancels_a_synchronous_execute(self, tmp_path, repro_env):
        repro_env(spill_dir=tmp_path, spill_threshold=64)
        db, governor = _slow_db()
        server = Server(db)
        client = Client(server.address)
        outcome: list[BaseException] = []

        def run() -> None:
            try:
                client.execute(SLOW_SQL)
            except Exception as exc:  # noqa: BLE001 - the outcome under test
                outcome.append(exc)

        caller = threading.Thread(target=run)
        caller.start()
        try:
            assert _eventually(lambda: governor.active_leases == 1)
            start = time.monotonic()
            server.close()  # a bounded barrier: cancel latency, not query length
            assert time.monotonic() - start < 5.0
            caller.join(10)
            assert not caller.is_alive()
            assert len(outcome) == 1
            assert isinstance(outcome[0], (SessionClosed, ConnectionError))
            assert governor.active_leases == 0 and governor.leased_rows == 0
            assert db.open_sessions == 0
        finally:
            server.close()
            client.close()
            db.close()
        assert list(tmp_path.iterdir()) == []
        assert_no_repro_threads()

    def test_disconnect_mid_execute_releases_the_lease(self):
        db, governor = _slow_db()
        server = Server(db)
        try:
            sock = _raw_session(server.address)
            send_frame(
                sock, {"seq": 1, "type": "execute", "sql": SLOW_SQL, "timeout": 0.5}
            )
            assert _eventually(lambda: governor.active_leases == 1)
            sock.shutdown(socket.SHUT_RDWR)
            sock.close()
            # The connection's thread is running the query; it sees the
            # disconnect once the query stops (here: at its deadline).
            assert _eventually(
                lambda: server.connections == 0 and governor.active_leases == 0
            )
            assert governor.leased_rows == 0
            assert db.open_sessions == 0
        finally:
            server.close()
            db.close()
        assert_no_repro_threads()

    def test_leader_hands_over_when_its_own_reply_arrives_first(self, served):
        db, server = served
        db.catalog.table("People").extend([(i, f"n{i}", i % 50) for i in range(10, 4000)])
        client = Client(server.address)
        outcome: dict = {}

        def slow() -> None:  # reads first; its reply is first, at its deadline
            try:
                client.execute(SLOW_SQL, timeout=0.3)
            except QueryTimeout as exc:
                outcome["slow"] = exc

        def quick() -> None:  # queued behind it; must take over the reading
            outcome["quick"] = client.execute("SELECT name FROM People WHERE id = 17").rows

        leader = threading.Thread(target=slow)
        leader.start()
        try:
            assert _eventually(lambda: client._reading)
            follower = threading.Thread(target=quick)
            follower.start()
            leader.join(30)
            follower.join(30)
            assert not leader.is_alive() and not follower.is_alive()
            assert isinstance(outcome["slow"], QueryTimeout)
            assert outcome["quick"] == [("n17",)]
        finally:
            client.close()

    def test_six_threads_share_one_client(self, served):
        # execute / submit / prepare / cancel interleaved on one socket,
        # with multi-chunk answers: every caller gets exactly its replies.
        db, server = served
        db.catalog.table("People").extend([(i, f"n{i}", 99) for i in range(10, 40)])
        want = {
            28: [("Bob",), ("Dee",)],
            34: [("Ann",)],
            41: [("Cid",)],
            99: sorted((f"n{i}",) for i in range(10, 40)),
        }
        sql = "SELECT name FROM People WHERE age = ?"
        client = Client(server.address, fetch_rows=8)  # age 99: 4 chunks
        errors: list[str] = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(12):
                    age = (28, 34, 41, 99)[(worker_id + i) % 4]
                    step = i % 4
                    if step == 0:
                        rows = client.execute(sql, params=[age]).rows
                    elif step == 1:
                        rows = client.submit(sql, params=[age]).result(timeout=30).rows
                    elif step == 2:
                        with client.prepare(sql) as stmt:
                            rows = stmt.execute([age]).rows
                    else:
                        pending = client.submit(sql, params=[age])
                        pending.cancel("race probe")
                        try:
                            rows = pending.result(timeout=30).rows
                        except QueryCancelled:
                            continue
                    if sorted(rows) != want[age]:
                        errors.append(f"worker {worker_id} step {step}: {age} -> {rows}")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the read turn over mid-frame often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        client.close()
        assert errors == []

    def test_client_close_leaves_no_thread(self, served):
        db, server = served
        before = set(threading.enumerate())
        with Client(server.address) as client:
            client.execute("SELECT name FROM People")
            with client.prepare("SELECT name FROM People WHERE age = ?") as stmt:
                stmt.execute([28])
            # The client has no thread; the server has one per connection.
            new = [t.name for t in threading.enumerate() if t not in before]
            assert len(new) == 1 and new[0].startswith("repro-wire-conn-")
        assert _eventually(lambda: set(threading.enumerate()) <= before)


class TestLongPollExpiry:
    def test_one_expiry_thread_answers_every_long_poll_once(self):
        db, _ = _slow_db(workers=1)
        server = Server(db)
        try:
            sock = _raw_session(server.address)
            send_frame(sock, {"seq": 1, "type": "submit", "sql": SLOW_SQL})
            query_id = recv_frame(sock)["query_id"]
            before = threading.active_count()
            polls = range(100, 300)
            for seq in polls:  # odd seqs expire; even ones outlive the query
                wait_s = 0.2 if seq % 2 else 30.0
                send_frame(
                    sock,
                    {"seq": seq, "type": "fetch", "query_id": query_id, "wait_s": wait_s},
                )
            replies = [recv_frame(sock) for _ in range(100)]
            assert sorted(r["seq"] for r in replies) == [s for s in polls if s % 2]
            assert {r["type"] for r in replies} == {"pending"}
            assert threading.active_count() <= before + 1  # the expiry thread
            send_frame(sock, {"seq": 2, "type": "cancel", "query_id": query_id})
            replies += [recv_frame(sock) for _ in range(101)]
            sock.settimeout(0.5)
            with pytest.raises(TimeoutError):
                recv_frame(sock)  # nothing is answered twice
            assert sorted(r["seq"] for r in replies) == sorted([2, *polls])
            completed = [r for r in replies if r["seq"] >= 100 and r["seq"] % 2 == 0]
            assert {r["error"]["code"] for r in completed} == {"QUERY_CANCELLED"}
            sock.close()
        finally:
            server.close()
            db.close()
        assert_no_repro_threads()


# ---------------------------------------------------------------------- #
# frame fuzzer
# ---------------------------------------------------------------------- #

_KINDS = ("hello", "execute", "submit", "poll", "fetch", "cancel", "prepare", "close_stmt", "close")
_REPLY_KINDS = {
    "hello_ok", "rows", "accepted", "status", "pending",
    "cancel_ok", "prepared", "close_stmt_ok", "close_ok", "error",
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_SQL = st.sampled_from([
    "SELECT name FROM People WHERE age = ?",
    "SELECT id, name FROM People",
    "SELECT nope FROM People",
    "not a statement",
])
_REQUEST = st.fixed_dictionaries(
    {"seq": _JSON, "type": st.sampled_from(_KINDS)},
    optional={
        "protocol": st.sampled_from([1, PROTOCOL_VERSION]) | _JSON,
        "sql": _SQL | _JSON,
        "params": st.lists(st.integers(0, 60), max_size=2) | _JSON,
        "timeout": st.floats(allow_nan=True) | _JSON,
        "stmt_id": st.integers(0, 4) | _JSON,
        "query_id": st.integers(0, 4) | _JSON,
        "max_rows": st.integers(-1, 3) | _JSON,
        "wait_s": st.floats(max_value=0.05) | st.just(float("nan")) | _JSON,
    },
)
#: A protocol-1 client's blocking execute: queue, then fetch query 1.
_V1_EXECUTE = _SQL.map(lambda sql: [
    {"seq": 1, "type": "execute", "sql": sql, "params": [28]},
    {"seq": 2, "type": "fetch", "query_id": 1, "wait_s": 0.05, "max_rows": 1024},
])
#: What may follow the requests: nothing, a framing violation, or a cut.
_TAIL = st.one_of(
    st.just(("end", b"")),
    st.integers(1, 64).map(lambda k: ("fatal", struct.pack(">I", MAX_FRAME + k))),
    st.just(("fatal", struct.pack(">I", 3) + b"\xff\xfe{")),
    _JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: ("fatal", _framed(v))),
    st.text(max_size=8).filter(lambda k: k not in _KINDS).map(
        lambda k: ("fatal", _framed({"seq": 9, "type": k}))
    ),
    st.binary(min_size=1, max_size=3).map(lambda b: ("end", b)),  # truncated header
)


def _framed(payload) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def _exchange(address, data: bytes) -> list[dict]:
    """Send ``data``, half-close, and read replies until the server hangs up."""
    replies = []
    with socket.create_connection(address, timeout=30) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server already hung up on a violation
        try:
            while (frame := recv_frame(sock)) is not None:
                replies.append(frame)
        except ConnectionResetError:
            pass  # it hung up with our later bytes unread
    return replies


def _served_before_end(requests: list[dict], tail: str) -> tuple[int, str | None]:
    """How many requests the server answers before the connection ends, and
    the reply that must end it (None: our own EOF ends it)."""
    for position, request in enumerate(requests):
        if request["type"] == "close":
            return position, "close_ok"
        if request["type"] == "hello" and request.get("protocol") != PROTOCOL_VERSION:
            return position, "PROTOCOL_ERROR"
    return len(requests), "PROTOCOL_ERROR" if tail == "fatal" else None


class TestFrameFuzzer:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        hello=st.booleans(),
        requests=st.lists(st.one_of(_REQUEST.map(lambda r: [r]), _V1_EXECUTE), max_size=5).map(
            lambda groups: [request for group in groups for request in group]
        ),
        tail=_TAIL,
    )
    @example(  # NaN long-poll wait on a running query
        hello=True,
        requests=[
            {"seq": 1, "type": "submit", "sql": "SELECT id, name FROM People"},
            {"seq": 2, "type": "poll", "query_id": 1, "wait_s": float("nan")},
        ],
        tail=("end", b""),
    )
    @example(  # wrong field types are refused per request
        hello=True,
        requests=[
            {"seq": [1], "type": "fetch", "query_id": [1], "max_rows": "x"},
            {"seq": {"a": 1}, "type": "execute", "sql": "SELECT id FROM People", "params": 3},
            {"seq": None, "type": "cancel", "query_id": {"x": 1}},
        ],
        tail=("end", b""),
    )
    def test_live_server_survives_any_byte_stream(self, hello, requests, tail):
        kind, garbage = tail
        prefix = [{"seq": 0, "type": "hello", "protocol": PROTOCOL_VERSION}] if hello else []
        data = b"".join(_framed(r) for r in prefix + requests) + garbage
        governor = MemoryGovernor(total_rows=10_000_000)
        db = _people_db(workers=2, governor=governor)
        server = Server(db)
        try:
            replies = _exchange(server.address, data)
        finally:
            server.close()
        try:
            assert all(r.get("type") in _REPLY_KINDS for r in replies), replies
            errors = [r["error"] for r in replies if r["type"] == "error"]
            assert all(isinstance(e.get("code"), str) for e in errors), errors
            served, ending = _served_before_end(requests, kind)
            assert len(replies) >= len(prefix) + served, (replies, requests)
            if ending == "close_ok":
                assert any(r["type"] == "close_ok" for r in replies), replies
            elif ending == "PROTOCOL_ERROR":
                assert any(e["code"] == "PROTOCOL_ERROR" for e in errors), replies
            assert db.open_sessions == 0
            assert governor.active_leases == 0 and governor.leased_rows == 0
            assert not [t for t in threading.enumerate() if t.name.startswith("repro-wire-")]
        finally:
            db.close()
