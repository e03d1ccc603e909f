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
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

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
from repro.exec.governor import MemoryGovernor
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.serving import Client, Database, Server
from repro.serving.wire import MAX_FRAME, PROTOCOL_VERSION, recv_frame, send_frame
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
        with socket.create_connection(server.address, timeout=5) as sock:
            send_frame(sock, {"seq": 1, "type": "hello", "protocol": 999})
            reply = recv_frame(sock)
            assert reply["error"]["code"] == "PROTOCOL_ERROR"
            assert "version" in reply["error"]["message"]

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
        with Client(server.address) as client:
            with pytest.raises(ParameterError):
                client.execute(
                    "SELECT name FROM People WHERE age = ?", params=[1, 2]
                )
            stmt = client.prepare("SELECT name FROM People WHERE age = ?")
            with pytest.raises(ParameterError):
                stmt.execute([1, 2, 3])
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
            # (shutdown, not close: with the reader thread blocked in recv
            # on this fd, the kernel defers the FIN past close() until the
            # syscall returns — shutdown pushes it out immediately.)
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
