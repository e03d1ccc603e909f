"""A query result is its columns; rows are built on first access.

* ``len()`` builds no rows, and rows are built exactly once, however many
  threads read ``.rows`` at the same time;
* a result shares no buffer with the table it was read from, so it reads
  the same after the table grows;
* an armed ``RESULT`` spool reads back as columnar batches, and the spooled
  result equals the in-memory one — same order, same Python types — with
  nothing left in the spill directory.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exec import ColumnarBatch, QueryResult, numpy_available
from repro.exec.spill import SpillFile
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.serving.database import Database


def _database(n: int) -> Database:
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "person",
            [
                Column("id", DataType.INT),
                Column("name", DataType.STRING),
                Column("score", DataType.FLOAT),
                Column("nick", DataType.STRING),
            ],
            primary_key="id",
        ),
        rows=[
            (i, f"p{i % 7}", i / 3, None if i % 5 == 0 else f"nick{i}")
            for i in range(n)
        ],
    )
    return Database(catalog=catalog)


def _exact(rows) -> list[tuple]:
    """Rows as reprs: equal only when the values *and* their Python types are."""
    return [tuple(map(repr, row)) for row in rows]


def test_len_builds_no_rows_and_rows_build_once_across_threads(monkeypatch):
    with _database(3000) as db, db.connect() as session:
        result = session.execute("SELECT id, name, nick FROM person WHERE score > 10.0")
    calls: list[int] = []
    real_to_rows = ColumnarBatch.to_rows

    def slow_to_rows(batch):
        calls.append(1)
        time.sleep(0.05)  # every reader arrives while the first one builds
        return real_to_rows(batch)

    monkeypatch.setattr(ColumnarBatch, "to_rows", slow_to_rows)
    assert len(result) == 3000 - 31
    assert calls == []
    seen: list = []
    start = threading.Barrier(8)

    def read() -> None:
        start.wait()
        seen.append(result.rows)

    threads = [threading.Thread(target=read) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == [1]
    assert len(seen) == 8 and all(rows is seen[0] for rows in seen)
    assert all(type(v) in (int, str, type(None)) for row in seen[0] for v in row)


def test_result_shares_no_memory_with_the_table():
    with _database(500) as db, db.connect() as session:
        table = db.catalog.table("person")
        result = session.execute("SELECT id FROM person")
        (column,) = result.data.columns
        assert column is not table.column("id")
        if numpy_available():
            import numpy as np

            assert not np.shares_memory(column, table.vector("id"))
        table.extend([(i, "late", 0.0, None) for i in range(500, 600)])
        assert len(result) == 500
        assert result.rows == [(i,) for i in range(500)]
        assert len(session.execute("SELECT id FROM person")) == 600


def test_a_result_takes_rows_or_columns_not_both():
    with pytest.raises(TypeError):
        QueryResult(["x"], [(1,)], data=ColumnarBatch([[1]], 1))
    with pytest.raises(TypeError):
        QueryResult(["x"])


def test_spooled_result_equals_the_in_memory_one(repro_env, tmp_path, monkeypatch):
    sql = "SELECT id, name, score, nick FROM person"
    with _database(1000) as db, db.connect() as session:
        in_memory = session.execute(sql)
        repro_env(spill_dir=tmp_path, spill_threshold=150)
        reads: list[str] = []
        for method in ("read_batches", "read_rows"):
            real = getattr(SpillFile, method)

            def counting(self, _real=real, _method=method):
                if self.label == "RESULT":
                    reads.append(_method)
                return _real(self)

            monkeypatch.setattr(SpillFile, method, counting)
        spooled = session.execute(sql)
    assert reads == ["read_batches"]
    assert len(spooled) == len(in_memory) == 1000
    assert _exact(spooled.rows) == _exact(in_memory.rows)
    assert list(tmp_path.iterdir()) == []
