"""Typed table storage: backend selection, promotion, vector views, and the
pk-index bulk-extend semantics.

Pins the typed-storage contract of `repro.relational.column` /
`repro.relational.table`:

* INT/FLOAT columns live in ``array.array`` buffers under the default
  ``dict`` backend, plain lists under the ``list`` backend — with
  identical values and row tuples either way;
* a NULL or a value a typed buffer cannot hold promotes the column to the
  object (list) fallback without losing data;
* ``Table.vector`` exposes cached ndarray copies that never lock the
  storage against further appends;
* ``extend``/``append`` keep the lazy duplicate-primary-key semantics and
  never leave a previously returned pk-index dict partially updated.
"""

from __future__ import annotations

from array import array

import pytest

from repro.errors import SchemaError
from repro.exec import numpy_available, set_numpy_enabled
from repro.relational.column import (
    DictColumn,
    extend_values,
    make_storage,
    set_storage_backend,
    storage_backend,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType


def make_schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", DataType.INT),
            Column("score", DataType.FLOAT),
            Column("name", DataType.STRING),
            Column("day", DataType.DATE),
        ],
        primary_key="id",
    )


ROWS = [
    (0, 1.5, "a", "2024-01-01"),
    (1, 2.5, "b", "2023-06-30"),
    (2, 0.0, "c", "2022-12-31"),
]


# --------------------------------------------------------------------- #
# backend selection
# --------------------------------------------------------------------- #


@pytest.fixture()
def dict_backend():
    """Force the default backend (the suite may run under REPRO_STORAGE=list)."""
    set_storage_backend("dict")
    yield
    set_storage_backend(None)


def test_dict_backend_selects_storage_from_dtype(dict_backend):
    table = Table(make_schema(), rows=ROWS)
    assert isinstance(table.column("id"), array)
    assert table.column("id").typecode == "q"
    assert isinstance(table.column("score"), array)
    assert table.column("score").typecode == "d"
    assert type(table.column("name")) is DictColumn
    assert type(table.column("day")) is list


def test_list_backend_forces_plain_lists():
    set_storage_backend("list")
    try:
        assert storage_backend() == "list"
        table = Table(make_schema(), rows=ROWS)
        assert type(table.column("id")) is list
        assert type(table.column("score")) is list
    finally:
        set_storage_backend(None)


def test_backends_produce_identical_rows():
    typed = Table(make_schema(), rows=ROWS)
    set_storage_backend("list")
    try:
        plain = Table(make_schema(), rows=ROWS)
    finally:
        set_storage_backend(None)
    assert list(typed.iter_rows()) == list(plain.iter_rows())
    assert [typed.row(i) for i in range(3)] == [plain.row(i) for i in range(3)]
    # Typed storage indexes/slices to plain Python values.
    assert type(typed.value(0, "id")) is int
    assert type(typed.value(0, "score")) is float
    assert list(typed.column("id")[1:3]) == [1, 2]


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        set_storage_backend("mmap")


# --------------------------------------------------------------------- #
# object-fallback promotion
# --------------------------------------------------------------------- #


def test_null_append_promotes_to_object_fallback(dict_backend):
    table = Table(make_schema(), rows=ROWS)
    table.append((3, None, None, None))
    assert type(table.column("score")) is list
    assert table.row(3) == (3, None, None, None)
    # Pre-promotion values survive the storage change untouched.
    assert table.row(1) == ROWS[1]
    # The id column saw no NULL and stays typed.
    assert isinstance(table.column("id"), array)


def test_mixed_type_bulk_load_promotes_mid_batch(dict_backend):
    # validate=False loads bypass dtype checks; a value the C buffer cannot
    # hold must still land intact via promotion, even mid-extend.
    table = Table(make_schema())
    rows = [(0, 1.0, "a", "2024-01-01"), ("zero", 2.0, "b", "2024-01-02")]
    table.extend(rows, validate=False)
    assert type(table.column("id")) is list
    assert list(table.column("id")) == [0, "zero"]
    assert table.num_rows == 2


def test_extend_values_promotion_keeps_consumed_prefix_exact(dict_backend):
    storage = make_storage(DataType.INT)
    storage.extend([1, 2, 3])
    # array.extend consumes its input incrementally; the promotion must not
    # duplicate the prefix consumed before the failing value.
    promoted = extend_values(storage, [4, 5, None, 7])
    assert promoted == [1, 2, 3, 4, 5, None, 7]


def test_huge_int_promotes_instead_of_overflowing(dict_backend):
    table = Table(TableSchema("h", [Column("x", DataType.INT)]))
    table.append((2**70,))
    table.append((5,))
    assert list(table.column("x")) == [2**70, 5]
    assert type(table.column("x")) is list


def test_typed_float_column_coerces_ints_like_validation_does(dict_backend):
    # array('d') stores every value as a C double, which is exactly what
    # DataType.FLOAT.validate coerces to — unvalidated int loads therefore
    # behave as if validated.
    table = Table(TableSchema("f", [Column("x", DataType.FLOAT)]))
    table.extend([(1,), (2.5,)], validate=False)
    assert list(table.column("x")) == [1.0, 2.5]


def test_validation_errors_still_raise_before_storage():
    table = Table(make_schema())
    with pytest.raises(SchemaError):
        table.append(("not-an-int", 1.0, "a", "2024-01-01"))
    assert table.num_rows == 0


# --------------------------------------------------------------------- #
# vector views
# --------------------------------------------------------------------- #

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


@needs_numpy
def test_vector_views_are_ndarrays_for_clean_columns():
    import numpy as np

    table = Table(make_schema(), rows=ROWS)
    ids = table.vector("id")
    assert isinstance(ids, np.ndarray) and ids.dtype.kind == "i"
    assert ids.tolist() == [0, 1, 2]
    days = table.vector("day")
    assert isinstance(days, np.ndarray) and days.dtype.kind == "U"
    # The view is cached until the next append.
    assert table.vector("id") is ids


@needs_numpy
def test_vector_view_never_locks_storage_against_appends():
    table = Table(make_schema(), rows=ROWS)
    view = table.vector("id")
    table.append((3, 3.5, "d", "2021-01-01"))  # must not raise BufferError
    assert view.tolist() == [0, 1, 2]  # the old copy is unaffected
    assert table.vector("id").tolist() == [0, 1, 2, 3]


@needs_numpy
def test_vector_view_falls_back_for_null_bearing_columns():
    table = Table(make_schema(), rows=ROWS)
    table.append((3, None, None, None))
    # The promoted object column has no clean ndarray representation.
    assert type(table.vector("score")) is list


@needs_numpy
def test_vector_view_rejects_lossy_int_to_float_conversion():
    # 2**63 + 1 overflows int64; numpy would coerce the list to float64
    # and silently round the value — the view must decline instead.
    table = Table(TableSchema("h", [Column("x", DataType.INT)]))
    table.extend([(2**63 + 1,), (5,)])
    assert type(table.vector("x")) is list
    assert list(table.vector("x")) == [2**63 + 1, 5]


@needs_numpy
def test_vector_view_rejects_nul_and_oversized_strings():
    from repro.exec.vector import vector_view

    # '<U' arrays truncate at NULs and pay 4 * max_len bytes per row:
    # both shapes must stay as plain lists.
    assert vector_view(["abc\x00", "de"]) == ["abc\x00", "de"]
    assert type(vector_view(["x" * 10_000, "y"])) is list
    import numpy as np

    assert isinstance(vector_view(["abc", "de"]), np.ndarray)


@needs_numpy
def test_columnar_execution_exact_for_beyond_int64_values():
    from repro.exec import execute_plan
    from repro.relational.physical import SeqScan

    table = Table(TableSchema("h", [Column("x", DataType.INT)]))
    table.extend([(2**63 + 1,), (5,), (2**63 + 1,)])
    result = execute_plan(SeqScan(table, "t"), columnar=True)
    assert result.rows == [(2**63 + 1,), (5,), (2**63 + 1,)]
    assert all(type(v) is int for row in result.rows for v in row)


@needs_numpy
def test_rowid_join_predicate_branch_emits_python_ints():
    from repro.exec import execute_plan
    from repro.relational.expr import col, ge, lit
    from repro.relational.physical import RowIdJoin, SeqScan

    base = Table(
        TableSchema(
            "v", [Column("id", DataType.INT), Column("w", DataType.INT)]
        ),
        rows=[(i, i * 10) for i in range(6)],
    )
    scan = SeqScan(base, "a", emit_rowid=True)
    join = RowIdJoin(
        scan,
        "a._rowid",
        base,
        "b",
        predicate=ge(col("w"), lit(20)),
        emit_rowid=True,
    )
    result = execute_plan(join, columnar=True)
    assert len(result.rows) == 4
    # The ndarray pointer column is filtered through the predicate's rowid
    # mask; every emitted value — including the rowid columns — must be a
    # plain Python int.
    assert all(type(v) is int for row in result.rows for v in row)


@needs_numpy
def test_vector_view_respects_numpy_toggle():
    table = Table(make_schema(), rows=ROWS)
    try:
        set_numpy_enabled(False)
        assert table.vector("id") is table.column("id")
    finally:
        set_numpy_enabled(None)


# --------------------------------------------------------------------- #
# pk-index maintenance (append/extend duplicate semantics)
# --------------------------------------------------------------------- #


def test_extend_duplicate_raises_lazily_with_rows_appended():
    table = Table(make_schema(), rows=ROWS)
    table.pk_index()  # prime the cache
    table.extend([(3, 0.0, "d", "2020-01-01"), (1, 0.0, "e", "2020-01-02")])
    # The rows are appended (storage first, indexing second) ...
    assert table.num_rows == 5
    # ... and the duplicate surfaces on the next pk_index() rebuild, exactly
    # like the lazy path reports it.
    with pytest.raises(SchemaError, match="duplicate primary key"):
        table.pk_index()


def test_extend_duplicate_leaves_shared_index_dict_unpolluted():
    table = Table(make_schema(), rows=ROWS)
    shared = table.pk_index()
    before = dict(shared)
    # Key 3 is fresh, key 0 duplicates an indexed row, key 9 follows the
    # duplicate: none of them may leak into the dict callers already hold.
    table.extend(
        [
            (3, 0.0, "d", "2020-01-01"),
            (0, 0.0, "e", "2020-01-02"),
            (9, 0.0, "f", "2020-01-03"),
        ]
    )
    assert shared == before


def test_extend_duplicate_within_batch_detected():
    table = Table(make_schema(), rows=ROWS)
    table.pk_index()
    table.extend([(7, 0.0, "d", "2020-01-01"), (7, 0.0, "e", "2020-01-02")])
    with pytest.raises(SchemaError, match="duplicate primary key"):
        table.pk_lookup(7)


def test_clean_extend_updates_cached_index_in_place():
    table = Table(make_schema(), rows=ROWS)
    shared = table.pk_index()
    table.extend([(3, 0.0, "d", "2020-01-01"), (4, 0.0, "e", "2020-01-02")])
    assert table.pk_index() is shared
    assert shared[3] == 3 and shared[4] == 4


def test_append_duplicate_still_raises_lazily():
    table = Table(make_schema(), rows=ROWS)
    table.pk_index()
    table.append((1, 9.0, "dup", "2020-01-01"))
    assert table.num_rows == 4
    with pytest.raises(SchemaError, match="duplicate primary key"):
        table.pk_index()


@needs_numpy
def test_columnar_topk_places_nan_keys_canonically():
    # NaN is incomparable, so a comparison sort places it by accident (the
    # row protocol's heap leaves NaN keys wherever its sift order drops
    # them); the ordering kernel ranks NaN after every other value, the
    # position the external sort already gives it — first when descending.
    import math

    from repro.exec import ExecutionContext
    from repro.relational.expr import col
    from repro.relational.physical import SeqScan, TopKOp

    nan = math.nan
    table = Table(
        TableSchema(
            "t", [Column("id", DataType.INT), Column("x", DataType.FLOAT)]
        ),
        rows=[
            (0, 1.0), (1, 2.0), (2, nan), (3, nan), (4, nan),
            (5, 3.0), (6, 4.0), (7, 5.0), (8, 0.5), (9, 7.0),
        ],
    )
    for ascending, expected in (
        (True, "[(8, 0.5), (0, 1.0)]"),
        (False, "[(2, nan), (3, nan)]"),
    ):
        plan = TopKOp(SeqScan(table, "t"), [(col("x"), ascending)], 2)
        columnar = [
            row
            for cb in plan.columnar_batches(ExecutionContext())
            for row in cb.to_rows()
        ]
        assert repr(columnar) == expected  # repr: NaN != NaN under ==
    ascending = TopKOp(SeqScan(table, "t"), [(col("x"), True)], 2)
    rows = [row for b in ascending.batches(ExecutionContext()) for row in b]
    assert rows == [(8, 0.5), (0, 1.0)]  # NaN-free prefix: the twins agree


# --------------------------------------------------------------------- #
# column-major bulk loading (extend_columns)
# --------------------------------------------------------------------- #


def _columns_of(rows):
    return [list(c) for c in zip(*rows)]


def test_extend_columns_equivalent_to_extend():
    by_rows = Table(make_schema(), rows=ROWS)
    by_columns = Table(make_schema())
    by_columns.extend_columns(_columns_of(ROWS))
    assert list(by_rows.iter_rows()) == list(by_columns.iter_rows())
    for name in ("id", "score", "name", "day"):
        assert type(by_rows.column(name)) is type(by_columns.column(name))


def test_extend_columns_validates_and_rejects_bad_values():
    table = Table(make_schema())
    bad = _columns_of(ROWS)
    bad[1][1] = "not a float"
    with pytest.raises(SchemaError):
        table.extend_columns(bad)
    # Validation failed before any storage mutation: table stays empty.
    assert table.num_rows == 0


def test_extend_columns_rejects_wrong_column_count_and_ragged_input():
    table = Table(make_schema())
    with pytest.raises(SchemaError):
        table.extend_columns(_columns_of(ROWS)[:3])
    ragged = _columns_of(ROWS)
    ragged[2] = ragged[2][:2]
    with pytest.raises(SchemaError):
        table.extend_columns(ragged)
    assert table.num_rows == 0


def test_extend_columns_promotes_null_bearing_numeric_column(dict_backend):
    table = Table(make_schema())
    columns = _columns_of(ROWS)
    columns[1][0] = None  # NULL in the FLOAT column
    table.extend_columns(columns)
    assert type(table.column("score")) is list
    assert table.value(0, "score") is None
    assert table.value(1, "score") == 2.5


def test_extend_columns_maintains_cached_pk_index():
    table = Table(make_schema(), rows=ROWS)
    index = table.pk_index()
    table.extend_columns(_columns_of([(3, 9.5, "d", "2020-01-01")]))
    assert index[3] == 3
    assert table.pk_lookup(3) == 3


def test_extend_columns_duplicate_pk_keeps_lazy_error_semantics():
    table = Table(make_schema(), rows=ROWS)
    index = table.pk_index()
    table.extend_columns(_columns_of([(1, 9.5, "d", "2020-01-01")]))
    # The shared dict is not polluted; the rebuild raises lazily.
    assert 1 in index and index[1] == 1
    with pytest.raises(SchemaError):
        table.pk_index()


def test_extend_columns_empty_is_a_no_op():
    table = Table(make_schema(), rows=ROWS)
    table.extend_columns([[], [], [], []])
    assert table.num_rows == len(ROWS)


# --------------------------------------------------------------------- #
# dictionary-encoded string columns (the default backend)
# --------------------------------------------------------------------- #


def _string_table(rows_of_names, backend=None):
    schema = TableSchema(
        "s",
        [Column("id", DataType.INT), Column("name", DataType.STRING)],
        primary_key="id",
    )
    table = Table(schema)
    table.extend_columns(
        [list(range(len(rows_of_names))), list(rows_of_names)]
    )
    return table


def test_dict_backend_is_the_default_and_encodes_strings(dict_backend):
    assert storage_backend() == "dict"
    table = Table(make_schema(), rows=ROWS)
    name = table.column("name")
    assert isinstance(name, DictColumn)
    # Numeric columns stay typed buffers; DATE stays a list.
    assert isinstance(table.column("id"), array)
    assert type(table.column("day")) is list
    # Decoding round-trips: indexing, slicing, iteration, tolist.
    assert name[1] == "b" and list(name[0:2]) == ["a", "b"]
    assert list(name) == ["a", "b", "c"] == name.tolist()
    # Repeats share one dictionary entry.
    table.extend([(3, 0.0, "a", "2024-01-02"), (4, 0.0, "a", "2024-01-03")])
    assert len(name.values) == 3 and name.codes.tolist() == [0, 1, 2, 0, 0]


def test_dict_column_demotes_losslessly_on_null_and_non_string(dict_backend):
    table = _string_table(["x", "y", "x"])
    table.append((3, None), validate=False)
    assert type(table.column("name")) is list
    assert list(table.column("name")) == ["x", "y", "x", None]
    # Mixed-type unvalidated bulk load demotes mid-batch, prefix exact.
    other = _string_table(["p", "q"])
    other.extend([(2, "r"), (3, 17)], validate=False)
    assert list(other.column("name")) == ["p", "q", "r", 17]


@needs_numpy
def test_dict_vector_views_and_concurrent_appends(dict_backend):
    from repro.exec.vector import DictVector

    table = _string_table(["u", "v", "u", "w"])
    view = table.vector("name")
    assert isinstance(view, DictVector)
    assert view.tolist() == ["u", "v", "u", "w"]
    assert view[2] == "u" and list(view[1:3]) == ["v", "u"]
    assert table.vector("name") is view  # cached until the next append
    # Appending — including new dictionary entries — never locks the codes
    # buffer and leaves already-served code views unaffected.
    table.append((4, "z"))
    table.append((5, "u"))
    assert view.tolist() == ["u", "v", "u", "w"]
    fresh = table.vector("name")
    assert fresh is not view
    assert fresh.tolist() == ["u", "v", "u", "w", "z", "u"]
    # The dictionary object is shared (append-only): codes stay stable.
    assert fresh.values is table.column("name").values


@needs_numpy
def test_dict_filter_miss_literals(dict_backend):
    from repro.exec import execute_plan
    from repro.relational.expr import IsNull, col, eq, lit, ne
    from repro.relational.physical import FilterOp, SeqScan

    table = _string_table(["a", "b", "a", "c"])
    runs = [
        (eq(col("s.name"), lit("nope")), []),
        (ne(col("s.name"), lit("nope")), [(0, "a"), (1, "b"), (2, "a"), (3, "c")]),
        (eq(col("s.name"), lit("b")), [(1, "b")]),
        (IsNull(col("s.name")), []),
        (IsNull(col("s.name"), negated=True), [(0, "a"), (1, "b"), (2, "a"), (3, "c")]),
    ]
    for predicate, expected in runs:
        result = execute_plan(FilterOp(SeqScan(table, "s"), predicate))
        assert result.sorted_rows() == expected


def test_dict_join_remaps_between_distinct_dictionaries(dict_backend):
    # The two sides intern the same values in different orders (different
    # codes for the same string), and the probe side's dictionary holds
    # build-side misses: matching must go by value, never by code.
    from repro.exec import execute_plan
    from repro.relational.physical import HashJoin, SeqScan

    left = _string_table(["a", "b", "c", "a"])
    right = _string_table(["c", "x", "a", "c"])
    plan = HashJoin(SeqScan(left, "l"), SeqScan(right, "r"), ["l.name"], ["r.name"])
    rows = execute_plan(plan).sorted_rows()
    assert rows == [
        (0, "a", 2, "a"),
        (2, "c", 0, "c"),
        (2, "c", 3, "c"),
        (3, "a", 2, "a"),
    ]
    # A dict build side probed by a plain-list side (and vice versa) agrees.
    set_storage_backend("list")
    try:
        plain = _string_table(["c", "x", "a", "c"])
    finally:
        set_storage_backend("dict")
    mixed = HashJoin(SeqScan(left, "l"), SeqScan(plain, "r"), ["l.name"], ["r.name"])
    assert execute_plan(mixed).sorted_rows() == rows
    flipped = HashJoin(SeqScan(plain, "r"), SeqScan(left, "l"), ["r.name"], ["l.name"])
    assert len(execute_plan(flipped).rows) == len(rows)


def test_dict_memory_accounting_charges_codes_plus_dictionary(dict_backend):
    import sys

    names = ["alpha", "beta", "gamma"] * 100
    table = _string_table(names)
    bytes_by_column = table.memory_bytes()
    expected = 8 * len(names) + sum(
        sys.getsizeof(v) for v in ("alpha", "beta", "gamma")
    )
    assert bytes_by_column["name"] == expected
    # The same column as a plain list charges a pointer slot plus the
    # object per row — strictly more on repetitive data.
    set_storage_backend("list")
    try:
        plain = _string_table(names)
    finally:
        set_storage_backend("dict")
    assert plain.memory_bytes()["name"] > bytes_by_column["name"]
    # Typed INT storage charges exactly its C buffer.
    assert bytes_by_column["id"] == 8 * len(names)
