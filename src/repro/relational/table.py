"""Columnar table storage.

A :class:`Table` stores each column in typed storage selected from its
schema dtype (see :mod:`repro.relational.column`): a dense ``array.array``
buffer for INT/FLOAT columns, a plain Python list otherwise — and any typed
column that observes a NULL or a value outside its C type is promoted back
to a list, so storage never changes semantics.  Row ``i`` of the table is
the ``i``-th element of every column; the position ``i`` is the tuple's
**rowid**, the stable physical identifier that the graph index (EV-index /
VE-index, Sec 3.2.1 of the paper) points at and that RGMapping uses as the
element identifier of mapped vertices and edges.

For the vectorized execution path, :meth:`Table.vector` exposes each column
as a cached numpy ``ndarray`` copy (when numpy is enabled and the column is
cleanly typed), which is what lights up the columnar kernels' gather and
selection fast paths end-to-end.  The cache is invalidated on every append,
and the views are copies — they never lock the storage buffers against
further loading.

Rows are append-only: the engine is an analytical substrate for optimizer
experiments, so updates/deletes (which would invalidate rowids and the graph
index) are intentionally unsupported.

**Snapshot versioning (MVCC-lite).**  Appends are *epoch-stamped*: every
mutation publishes its new row count under a process-wide epoch from
:func:`current_epoch`'s clock.  A reader pins one epoch at query start and
resolves each table to the row count that was published at or before that
epoch (:meth:`Table.snapshot_at`), so concurrent writers can keep appending
while every operator of the running query agrees on one immutable prefix —
rows, dictionary entries, and index rowids past the pinned count simply do
not exist for that query.  Storage is only ever extended (never reordered),
which is what makes a ``(row_count, epoch)`` pair a complete snapshot.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import SchemaError
from repro.exec import vector as _vector
from repro.relational.column import (
    append_value,
    column_nbytes,
    extend_values,
    make_storage,
)
from repro.relational.schema import TableSchema


class _EpochClock:
    """The process-wide append epoch: one monotonic counter for all tables.

    A single clock (rather than per-table counters) is what gives
    *cross-table* consistency: a query that pins epoch E sees, for every
    table it touches, exactly the appends published at or before E — a
    writer that inserts a vertex and then an edge can never be observed
    edge-first, whatever order the reader pins the two tables in.
    """

    __slots__ = ("_lock", "_now")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._now = 0

    def now(self) -> int:
        return self._now

    def tick(self) -> int:
        with self._lock:
            self._now += 1
            return self._now


_CLOCK = _EpochClock()


def current_epoch() -> int:
    """The latest published append epoch (what new queries pin)."""
    return _CLOCK.now()


class TableSnapshot:
    """An immutable view of a :class:`Table` prefix, pinned at one epoch.

    ``num_rows`` is the table's published row count as of the pinned epoch
    (possibly clamped further by the executor, e.g. to a graph index's
    build-time extent); every accessor bounds itself to that prefix.
    Dictionary columns need no pin-time record: codes within the prefix
    never reference values interned later.
    """

    __slots__ = ("table", "num_rows", "epoch")

    def __init__(self, table: "Table", num_rows: int, epoch: int):
        self.table = table
        self.num_rows = num_rows
        self.epoch = epoch

    def clamp(self, num_rows: int) -> None:
        """Shrink the snapshot to a smaller prefix (still consistent —
        prefixes of a consistent prefix are consistent).  The executor uses
        this to align a table with a graph index built over fewer rows."""
        if num_rows < self.num_rows:
            self.num_rows = num_rows

    def column(self, name: str) -> Sequence[Any]:
        """Raw storage; callers must bound reads to :attr:`num_rows`."""
        return self.table.column(name)

    def vector(self, name: str) -> Sequence[Any]:
        """Vectorized view guaranteed to cover the snapshot prefix.

        The view may extend past :attr:`num_rows` (the cache serves the
        live length); rows beyond the snapshot are never selected because
        every scan extent is bounded by the pinned count.
        """
        return self.table.vector(name, min_rows=self.num_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableSnapshot({self.table.schema.name!r}, rows={self.num_rows}, "
            f"epoch={self.epoch})"
        )


class Table:
    """A relation materialized column-wise.

    Args:
        schema: the table schema; column order defines the row layout.
        rows: optional initial rows (sequences matching the schema order).
        validate: when True (default) every appended value is checked against
            its column type.  Bulk loaders that generate known-clean data can
            pass False to skip per-value validation.
    """

    def __init__(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]] | None = None,
        validate: bool = True,
    ):
        self.schema = schema
        self.columns: dict[str, Sequence[Any]] = {
            c.name: make_storage(c.dtype) for c in schema.columns
        }
        self._column_list: list[Sequence[Any]] = [
            self.columns[c.name] for c in schema.columns
        ]
        self._vectors: dict[str, Sequence[Any]] = {}
        self._pk_index: dict[Any, int] | None = None
        # Epoch marks: parallel arrays of (publish epoch, row count at that
        # epoch), appended under the write lock after the storage mutation
        # completes.  A reader pinned at epoch E resolves its prefix by
        # binary search — rows extended but not yet marked are invisible.
        self._write_lock = threading.Lock()
        self._mark_epochs = array("q")
        self._mark_rows = array("q")
        pk = schema.primary_key
        self._pk_pos: int | None = (
            next(i for i, c in enumerate(schema.columns) if c.name == pk)
            if pk is not None
            else None
        )
        if rows is not None:
            self.extend(rows, validate=validate)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def _replace_storage(self, position: int, storage: Sequence[Any]) -> None:
        """Install a promoted column (typed buffer -> object list)."""
        name = self.schema.columns[position].name
        self.columns[name] = storage
        self._column_list[position] = storage

    def append(self, row: Sequence[Any], validate: bool = True) -> int:
        """Append one row; returns its rowid."""
        if len(row) != len(self._column_list):
            raise SchemaError(
                f"row arity {len(row)} does not match schema {self.schema.name!r} "
                f"with {len(self._column_list)} columns"
            )
        if validate:
            row = [
                col.dtype.validate(value)
                for col, value in zip(self.schema.columns, row)
            ]
        with self._write_lock:
            for position, value in enumerate(row):
                column = self._column_list[position]
                updated = append_value(column, value)
                if updated is not column:
                    self._replace_storage(position, updated)
            self._vectors.clear()
            rowid = len(self._column_list[0]) - 1
            self._index_appended(row, rowid)
            self._publish(rowid + 1)
        return rowid

    def extend(self, rows: Iterable[Sequence[Any]], validate: bool = True) -> None:
        """Bulk append: transpose once, then extend column-wise.

        One arity pass and one per-column validate pass replace the
        per-row/per-value work of repeated :meth:`append`; on typed columns
        the final extend is a single C-level buffer fill.  Loaders that
        already hold column-major data should call :meth:`extend_columns`
        instead and skip the transpose entirely.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return
        ncols = len(self._column_list)
        for row in rows:
            if len(row) != ncols:
                raise SchemaError(
                    f"row arity {len(row)} does not match schema "
                    f"{self.schema.name!r} with {ncols} columns"
                )
        if ncols == 0:
            return
        self._load_columns(
            [[row[i] for row in rows] for i in range(ncols)], validate
        )

    def extend_columns(
        self, columns: Sequence[Sequence[Any]], validate: bool = True
    ) -> None:
        """Bulk append from pre-built columns — the column-major fast path.

        ``columns`` holds one equal-length value sequence per schema column,
        in schema order.  Skipping the row-tuple transpose is what makes
        typed bulk loads cheaper than plain-list appends instead of ~1.4x
        dearer (see ``BENCH_exec.json`` ``bulk_load``); the workload
        generators accumulate column-major and load through here.
        """
        ncols = len(self._column_list)
        if len(columns) != ncols:
            raise SchemaError(
                f"column count {len(columns)} does not match schema "
                f"{self.schema.name!r} with {ncols} columns"
            )
        if ncols == 0:
            return
        length = len(columns[0])
        for position, values in enumerate(columns):
            if len(values) != length:
                raise SchemaError(
                    f"ragged columns: column {position} has {len(values)} "
                    f"values, expected {length} (table {self.schema.name!r})"
                )
        if not length:
            return
        self._load_columns(list(columns), validate)

    def _load_columns(self, columns: list[Sequence[Any]], validate: bool) -> None:
        """Shared column-major load tail (arity/length already checked).

        Validates every column before mutating any, so a bad value cannot
        leave the table with ragged columns.  The outer ``columns`` list
        must be owned by the caller (validation replaces its entries); the
        per-column value sequences are only read, never mutated.
        """
        if validate:
            for i, col in enumerate(self.schema.columns):
                check = col.dtype.validate
                columns[i] = [check(v) for v in columns[i]]
        with self._write_lock:
            first_rowid = len(self._column_list[0])
            for position, values in enumerate(columns):
                column = self._column_list[position]
                updated = extend_values(column, values)
                if updated is not column:
                    self._replace_storage(position, updated)
            self._vectors.clear()
            index = self._pk_index
            if index is not None:
                assert self._pk_pos is not None
                new_keys = columns[self._pk_pos]
                # Scan for duplicates (against the index or within the batch)
                # before touching the cached dict: a duplicate defers the error
                # to the next pk_index() rebuild — exactly the lazy path's
                # semantics — and the dict callers may already hold is never
                # left partially updated.
                fresh: set[Any] = set()
                duplicate = False
                for value in new_keys:
                    if value in index or value in fresh:
                        self._pk_index = None
                        duplicate = True
                        break
                    fresh.add(value)
                if not duplicate:
                    for offset, value in enumerate(new_keys):
                        index[value] = first_rowid + offset
            self._publish(first_rowid + len(columns[0]))

    def _index_appended(self, row: Sequence[Any], rowid: int) -> None:
        """Maintain the cached pk index incrementally on append.

        Discarding the cache on every append made interleaved append/lookup
        loops O(n^2); inserting the new key keeps them linear.  A duplicate
        key drops the cache so the next :meth:`pk_index` rebuild raises,
        preserving the lazy path's error semantics.
        """
        index = self._pk_index
        if index is None:
            return
        assert self._pk_pos is not None
        value = row[self._pk_pos]
        if value in index:
            self._pk_index = None
        else:
            index[value] = rowid

    # ------------------------------------------------------------------ #
    # snapshot versioning
    # ------------------------------------------------------------------ #

    def _publish(self, num_rows: int) -> None:
        """Stamp a completed mutation (caller holds the write lock).

        The storage extension happens *before* the epoch mark, so a reader
        that resolves ``rows_at(E)`` can always index every row the mark
        covers — the publication-order rule ``DictColumn`` already follows
        for values vs codes, lifted to whole tables.
        """
        # Row count first: :meth:`rows_at` bisects the epochs and then
        # indexes the counts, so every epoch it can see must have its count.
        epoch = _CLOCK.tick()
        self._mark_rows.append(num_rows)
        self._mark_epochs.append(epoch)

    @property
    def version(self) -> int:
        """The epoch of the last published mutation (0 = never mutated)."""
        marks = self._mark_epochs
        return marks[-1] if marks else 0

    def rows_at(self, epoch: int) -> int:
        """The published row count as of ``epoch``."""
        marks = self._mark_epochs
        i = bisect_right(marks, epoch)
        return self._mark_rows[i - 1] if i else 0

    def snapshot_at(self, epoch: int | None = None) -> TableSnapshot:
        """Pin an immutable prefix of this table.

        ``epoch`` defaults to :func:`current_epoch` — the freshest
        consistent state.  Queries pin one epoch for *all* tables they
        touch (see ``ExecutionContext.pin``), which is what makes
        cross-table reads epoch-consistent under live writers.
        """
        if epoch is None:
            epoch = current_epoch()
        return TableSnapshot(self, self.rows_at(epoch), epoch)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        if not self._column_list:
            return 0
        return len(self._column_list[0])

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> Sequence[Any]:
        """The raw column storage (shared, do not mutate).

        A ``list`` or typed ``array.array``; indexing and slicing always
        yield plain Python values, so this is what row-protocol operators
        and per-rowid predicates read.
        """
        if name not in self.columns:
            raise SchemaError(f"no column {name!r} in table {self.schema.name!r}")
        return self.columns[name]

    def vector(self, name: str, min_rows: int | None = None) -> Sequence[Any]:
        """The column as its best vectorized representation.

        With numpy enabled this is a cached ndarray copy (typed buffers
        convert via one memcpy, clean object columns — e.g. dates — by
        copy); otherwise, or when the column holds NULLs/mixed types, the
        raw storage of :meth:`column`.  The cache is dropped on append, and
        the view never locks the storage against further loading.

        ``min_rows`` is the snapshot contract: a caller that pinned a
        row-count prefix passes it so a cached view raced into the cache by
        another reader *before* a writer's append (and therefore shorter
        than the pinned prefix) is rebuilt instead of served short.
        """
        if name not in self.columns:
            raise SchemaError(f"no column {name!r} in table {self.schema.name!r}")
        if not _vector.numpy_enabled():
            return self.columns[name]
        view = self._vectors.get(name)
        if view is None or (min_rows is not None and len(view) < min_rows):
            view = _vector.vector_view(self.columns[name])
            self._vectors[name] = view
        return view

    def memory_bytes(self) -> dict[str, int]:
        """Resident payload bytes per column storage.

        Typed buffers charge their C buffer, dictionary columns charge
        8 bytes/code + one copy of each distinct value, lists charge a
        slot plus the object per row (:func:`repro.relational.column.
        column_nbytes`) — what the bench reports to make the dictionary
        duplication-factor saving visible.
        """
        return {
            name: column_nbytes(storage)
            for name, storage in self.columns.items()
        }

    def row(self, rowid: int) -> tuple[Any, ...]:
        """Materialize one row as a tuple, in schema column order."""
        return tuple(column[rowid] for column in self._column_list)

    def value(self, rowid: int, column: str) -> Any:
        return self.columns[column][rowid]

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """Yield all rows in rowid order."""
        return iter(zip(*self._column_list)) if self._column_list else iter(())

    # ------------------------------------------------------------------ #
    # primary-key lookup
    # ------------------------------------------------------------------ #

    def pk_index(self) -> dict[Any, int]:
        """The primary-key hash index: key value -> rowid.

        Built lazily on first use, cached until the next append.  Shared by
        :meth:`pk_lookup`, RGMapping's λ-function resolution, and the
        runtime EVJoin of :class:`repro.graph.physical.EdgeTripleScan`.
        """
        pk = self.schema.primary_key
        if pk is None:
            raise SchemaError(f"table {self.schema.name!r} has no primary key")
        if self._pk_index is None:
            index: dict[Any, int] = {}
            for rowid, value in enumerate(self.columns[pk]):
                if value in index:
                    raise SchemaError(
                        f"duplicate primary key {value!r} in table {self.schema.name!r}"
                    )
                index[value] = rowid
            self._pk_index = index
        return self._pk_index

    def pk_lookup(self, key: Any) -> int | None:
        """Rowid of the row whose primary key equals ``key``, or None."""
        return self.pk_index().get(key)

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={self.num_rows})"
