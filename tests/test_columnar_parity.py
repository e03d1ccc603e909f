"""Columnar runtime correctness.

Two halves:

* **Workload parity** across the LDBC and JOB workload queries, under every
  cell of the **storage x numpy** matrix (the ``dict`` and ``list``
  storage backends, each with numpy on and off), against references that
  share no code with what they check:

  - every *converged* system (graph operators have one, columnar, body)
    must return, statement by statement, the answer of the graph-agnostic
    ``duckdb`` plan executed on the **row protocol** — no graph operator
    and no columnar kernel takes part in that answer;
  - every plan, converged or not, must return byte-identical
    ``sorted_rows()`` and ``rows_produced`` through ``columnar=True`` and
    ``columnar=False``: for the graph-agnostic plans that is the relational
    row bodies checking the columnar ones, for the converged plans it pins
    that rows cross the one ``to_rows`` boundary unchanged.
* **Selection-vector unit tests** — :class:`repro.exec.ColumnarBatch` edge
  cases (empty selection, the all-selected fast path, selection
  composition) and NULL-key join semantics, the rows boundary adapter, plus
  the numpy-accelerated gather path when numpy is importable.
"""

from __future__ import annotations

import pytest

from repro.core.sqlpgq import parse_and_bind
from repro.exec import (
    ColumnarBatch,
    ExecutionContext,
    MaterializeOp,
    Operator,
    execute_plan,
    numpy_available,
    set_numpy_enabled,
)
from repro.exec.kernels import (
    build_hash_table_columnar,
    key_columns,
    probe_hash_table_columnar,
    rows_to_columnar,
)
from repro.exec.operator import to_rows
from repro.graph.index import build_graph_index
from repro.relational.expr import and_, col, compile_predicate_columnar, gt, lit, lt
from repro.relational.physical import SeqScan
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.systems import make_system
from repro.workloads.job import JobParams, generate_imdb
from repro.workloads.job.queries import job_queries
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import ic_queries, qc_queries, qr_queries


# --------------------------------------------------------------------- #
# workload parity (x storage x numpy)
# --------------------------------------------------------------------- #

# Each cell of the shared ``storage_mode`` fixture (tests/conftest.py)
# builds its own catalogs and runs every parity query under its storage x
# numpy combination:
#   dict  — dictionary-encoded string columns over typed buffers with
#           ndarray code views (the default; string predicates, joins and
#           grouping run on int codes);
#   numpy — plain-list storage with ndarray vector views (clean int, float
#           and string lists convert on read);
#   array — the default storage with numpy disabled (pure-Python kernels
#           over C buffers and dictionary codes);
#   list  — plain-list storage, numpy disabled (the reference semantics).


@pytest.fixture(scope="module")
def built():
    """Per-module memo: workload -> (cell, catalog, reference answers).
    Only the latest cell's build is kept; the tests run cell by cell."""
    return {}


def _workload(built, mode, name, generate, graph_name, queries):
    if built.get(name, (None,))[0] != mode:
        catalog, mapping = generate()
        catalog.register_graph_index(build_graph_index(mapping))
        built[name] = mode, catalog, _row_protocol_answers(catalog, graph_name, queries)
    return built[name][1:]


LDBC_QUERIES = {**ic_queries(), **qr_queries(), **qc_queries()}
# JOB13, 22, 23, 24 and 28 run DeadBranchRule's EXISTS checks under
# ``relgo`` (JOB23 keeps its dead connector ``mc`` bound).
JOB_QUERIES = job_queries(
    ["JOB1", "JOB6", "JOB13", "JOB17", "JOB22", "JOB23", "JOB24", "JOB28", "JOB33"]
)


def _row_protocol_answers(catalog, graph_name: str, queries: dict[str, str]) -> dict:
    """The reference: graph-agnostic plans on the row protocol."""
    system = make_system("duckdb", catalog, graph_name)
    answers = {}
    for name, sql in queries.items():
        plan = system.optimize(parse_and_bind(sql, catalog)).physical
        answers[name] = execute_plan(plan, columnar=False).sorted_rows()
    return answers


@pytest.fixture
def ldbc_small(built, storage_mode):
    return _workload(
        built, storage_mode, "ldbc",
        lambda: generate_ldbc(LdbcParams.scaled(0.3, seed=5)), "snb", LDBC_QUERIES,
    )  # fmt: skip


@pytest.fixture
def imdb_small(built, storage_mode):
    return _workload(
        built, storage_mode, "imdb",
        lambda: generate_imdb(JobParams.scaled(0.3, seed=5)), "imdb", JOB_QUERIES,
    )  # fmt: skip


#: The Python types a result row may hold, whichever protocol built it.
PLAIN_TYPES = {int, float, str, bool, type(None)}


def _exact(rows) -> list[tuple]:
    """Rows as reprs: equal only when the values *and* their types are."""
    return [tuple(map(repr, row)) for row in rows]


def _assert_parity(system, catalog, queries: dict[str, str], reference: dict) -> None:
    for name, sql in queries.items():
        query = parse_and_bind(sql, catalog)
        optimized = system.optimize(query)
        columnar = execute_plan(optimized.physical, columnar=True)
        row = execute_plan(optimized.physical, columnar=False)
        assert columnar.sorted_rows() == reference[name], name
        # The columnar result's rows, built on first access, are the row
        # protocol's: same values, same plain Python types.
        assert _exact(columnar.sorted_rows()) == _exact(row.sorted_rows()), name
        assert {type(v) for r in columnar.rows for v in r} <= PLAIN_TYPES, name
        assert columnar.rows_produced == row.rows_produced, name


# The system variants cover every operator family: relgo (Expand /
# ExpandIntersect / TopK), relgo_norule (unfused EXPAND_EDGE + GET_VERTEX,
# ExpandIntersect with kept edge variables, standalone filters), relgo_noei
# (PatternHashJoin star plans), relgo_hash (EdgeTripleScan's runtime
# EVJoin), kuzu (edge scans closing cycles + materialization barriers) — the
# converged five — and duckdb (SeqScan / FilterOp / HashJoin / Aggregate
# pipelines), graindb (RowIdJoin / CsrJoin predefined joins).
LDBC_SYSTEMS = [
    "relgo", "relgo_norule", "relgo_noei", "relgo_hash", "kuzu", "duckdb", "graindb",
]  # fmt: skip


@pytest.mark.parametrize("system_name", LDBC_SYSTEMS)
def test_ldbc_workload_parity(ldbc_small, system_name):
    catalog, reference = ldbc_small
    system = make_system(system_name, catalog, "snb")
    _assert_parity(system, catalog, LDBC_QUERIES, reference)


@pytest.mark.parametrize("system_name", ["relgo", "duckdb", "graindb"])
def test_job_workload_parity(imdb_small, system_name):
    catalog, reference = imdb_small
    system = make_system(system_name, catalog, "imdb")
    _assert_parity(system, catalog, JOB_QUERIES, reference)


# --------------------------------------------------------------------- #
# ColumnarBatch / selection-vector edge cases
# --------------------------------------------------------------------- #


def test_from_rows_to_rows_round_trip():
    rows = [(1, "a"), (2, None), (3, "c")]
    cb = ColumnarBatch.from_rows(rows)
    assert cb.to_rows() == rows
    assert len(cb) == 3 and cb.width == 2


def test_zero_width_rows_survive_the_boundary():
    rows = [(), (), ()]
    cb = ColumnarBatch.from_rows(rows)
    assert len(cb) == 3
    assert cb.to_rows() == rows


def test_rows_adapter_keeps_zero_width_rows_and_skips_empty_batches():
    stream = iter([ColumnarBatch([], 3), ColumnarBatch([[1, 2]], 2, []), ColumnarBatch([], 1)])
    assert list(to_rows(stream)) == [[(), (), ()], [()]]


def test_rows_adapter_close_releases_upstream_buffers():
    # A row consumer that stops early must run the columnar subtree's
    # ``finally`` blocks now, not at GC time: the barrier's buffer empties.
    table = Table(
        TableSchema("t", [Column("id", DataType.INT)]), rows=[(i,) for i in range(5_000)]
    )
    ctx = ExecutionContext(batch_size=64)
    rows = MaterializeOp(SeqScan(table, "t")).batches(ctx)
    assert next(rows) == [(i,) for i in range(64)]
    assert ctx.buffered_rows == 5_000
    rows.close()
    assert ctx.buffered_rows == 0


def test_operator_without_a_protocol_fails_clearly():
    class Neither(Operator):
        pass

    for pull in (Neither().batches, Neither().columnar_batches, Neither().execute):
        with pytest.raises(NotImplementedError, match="Neither implements neither"):
            pull(ExecutionContext())


def test_empty_selection_yields_no_rows():
    cb = ColumnarBatch([[10, 20, 30]], 3, [])
    assert len(cb) == 0
    assert cb.to_rows() == []
    assert cb.column(0) == []


def test_take_composes_selections():
    cb = ColumnarBatch([[0, 10, 20, 30, 40]], 5, [4, 2, 0])
    assert cb.to_rows() == [(40,), (20,), (0,)]
    taken = cb.take([2, 0])
    assert taken.to_rows() == [(0,), (40,)]
    assert taken.take([]).to_rows() == []


def test_head_is_zero_copy_prefix():
    cb = ColumnarBatch([list(range(10))], 10)
    head = cb.head(3)
    assert head.to_rows() == [(0,), (1,), (2,)]
    assert head.columns[0] is cb.columns[0]
    assert cb.head(99) is cb


def test_all_selected_fast_path_returns_input_selection():
    column = [1, 5, 9]
    layout = {"v": 0}
    pred = compile_predicate_columnar(gt(col("v"), lit(0)), layout)
    # All rows pass: the input selection object itself comes back.
    sel = [0, 1, 2]
    assert pred([column], sel, 3) is sel
    assert pred([column], None, 3) is None
    # A partial pass returns a fresh refined selection.
    partial = compile_predicate_columnar(gt(col("v"), lit(4)), layout)
    assert partial([column], None, 3) == [1, 2]
    assert partial([column], [2, 0], 3) == [2]


def test_comparison_with_computed_operand_uses_generic_fallback():
    # Comparisons whose operands are not plain column/literal shapes must
    # fall through to the row-wise fallback, not crash (regression test).
    from repro.relational.expr import Arith

    layout = {"v": 0}
    pred = compile_predicate_columnar(
        gt(Arith("+", col("v"), lit(1)), lit(4)), layout
    )
    assert pred([[1, 4, 9]], None, 3) == [1, 2]
    assert pred([[1, 4, 9]], [0, 2], 3) == [2]


def test_conjunction_refines_left_to_right_with_null_semantics():
    values = [2, None, 8, 4]
    layout = {"v": 0}
    pred = compile_predicate_columnar(
        and_(gt(col("v"), lit(1)), lt(col("v"), lit(5))), layout
    )
    # NULL comparisons are NULL -> filtered out, matching WHERE semantics.
    assert pred([values], None, 4) == [0, 3]


def test_null_keys_never_join():
    left = rows_to_columnar([[(None, "l0"), (1, "l1"), (2, "l2")]])
    right = rows_to_columnar([[(None, "r0"), (1, "r1")]])
    table = build_hash_table_columnar(right, [0], None)
    assert None not in table
    ctx = ExecutionContext()
    out = [
        row
        for cb in probe_hash_table_columnar(left, table, [0], ctx)
        for row in cb.to_rows()
    ]
    assert out == [(1, "l1", 1, "r1")]


def test_multi_column_keys_collapse_on_any_null():
    cb = ColumnarBatch.from_rows([(1, 2), (1, None), (None, 2)])
    assert key_columns(cb, [0, 1]) == [(1, 2), None, None]


# --------------------------------------------------------------------- #
# numpy-accelerated path
# --------------------------------------------------------------------- #


needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


@needs_numpy
def test_numpy_gather_returns_plain_python_values():
    import numpy as np

    try:
        set_numpy_enabled(True)
        cb = ColumnarBatch([np.arange(100, 110)], 10, [3, 0, 7])
        values = cb.column(0)
        assert values == [103, 100, 107]
        assert all(type(v) is int for v in values)
        assert all(type(v) is int for row in cb.to_rows() for v in row)
    finally:
        set_numpy_enabled(None)


@needs_numpy
def test_numpy_selection_matches_pure_python():
    import numpy as np

    data = [3, -1, 7, 0, 12, -5, 7]
    layout = {"v": 0}
    pred = compile_predicate_columnar(gt(col("v"), lit(2)), layout)
    expected = pred([data], None, len(data))
    try:
        set_numpy_enabled(True)
        accelerated = pred([np.asarray(data)], None, len(data))
        assert list(accelerated) == list(expected)
        partial = pred([np.asarray(data)], [1, 2, 4], len(data))
        assert list(partial) == [2, 4]
    finally:
        set_numpy_enabled(None)


@needs_numpy
def test_numpy_disabled_falls_back_to_pure_python():
    import numpy as np

    try:
        set_numpy_enabled(False)
        cb = ColumnarBatch([np.arange(5)], 5, [4, 1])
        assert cb.to_rows() == [(4,), (1,)]
    finally:
        set_numpy_enabled(None)
