"""Unit tests for engine pieces: types, tables, statistics, executor
budget, aggregation, sorting, plan serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan_proto import operator_counts, plan_signature, plan_to_dict
from repro.errors import OutOfMemoryError, SchemaError
from repro.exec.context import ExecutionContext, execute_plan
from repro.relational.expr import col, ge, gt, lit
from repro.relational.logical import AggregateSpec
from repro.relational.physical import (
    AggregateOp,
    DistinctOp,
    HashJoin,
    LimitOp,
    SeqScan,
    SortOp,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.statistics import collect_stats, predicate_selectivity
from repro.relational.table import Table
from repro.relational.types import DataType


def make_table(rows):
    schema = TableSchema(
        "t",
        [Column("id", DataType.INT), Column("v", DataType.INT)],
        primary_key="id",
    )
    return Table(schema, rows=rows)


def test_type_validation():
    assert DataType.INT.validate(3) == 3
    assert DataType.FLOAT.validate(3) == 3.0
    assert DataType.DATE.validate("2024-01-02") == "2024-01-02"
    assert DataType.STRING.validate(None) is None
    with pytest.raises(SchemaError):
        DataType.INT.validate("x")
    with pytest.raises(SchemaError):
        DataType.DATE.validate("Jan 2, 2024")
    with pytest.raises(SchemaError):
        DataType.BOOL.validate(1)


def test_table_pk_index_and_rows():
    table = make_table([(1, 10), (2, 20), (3, 30)])
    assert table.pk_lookup(2) == 1
    assert table.pk_lookup(99) is None
    assert table.row(0) == (1, 10)
    assert list(table.iter_rows())[2] == (3, 30)
    with pytest.raises(SchemaError):
        make_table([(1, 10), (1, 11)]).pk_lookup(1)  # duplicate PK


def test_table_arity_check():
    table = make_table([])
    with pytest.raises(SchemaError):
        table.append((1, 2, 3))


def test_statistics_distinct_and_range():
    table = make_table([(i, i % 10) for i in range(100)])
    stats = collect_stats(table, histogram_buckets=8)
    assert stats.row_count == 100
    assert stats.column_stats["v"].distinct == 10
    sel = predicate_selectivity(gt(col("v"), lit(4)), stats)
    assert 0.2 < sel < 0.8
    eq_sel = predicate_selectivity(ge(col("id"), lit(90)), stats)
    assert 0.02 < eq_sel < 0.25


def test_histogram_improves_skew_estimates():
    # 90% of values are 0; histograms + MCVs should notice.
    table = make_table([(i, 0 if i < 90 else i) for i in range(100)])
    stats = collect_stats(table, histogram_buckets=8)
    from repro.relational.expr import eq as eq_

    sel = predicate_selectivity(eq_(col("v"), lit(0)), stats)
    assert sel > 0.5


def test_executor_memory_budget():
    table = make_table([(i, i) for i in range(100)])
    left = SeqScan(table, "a")
    right = SeqScan(table, "b")
    cross = HashJoin(left, right, [], [])  # zero keys: 10k rows
    with pytest.raises(OutOfMemoryError):
        execute_plan(cross, memory_budget_rows=5000, spill=False)
    result = execute_plan(cross, memory_budget_rows=20000)
    assert len(result) == 10000


def test_hash_join_residual_and_nulls():
    t1 = make_table([(1, 5), (2, None), (3, 7)])
    t2 = make_table([(5, 1), (7, 2)])
    join = HashJoin(
        SeqScan(t1, "l"),
        SeqScan(t2, "r"),
        ["l.v"],
        ["r.id"],
        residual=gt(col("r.v"), lit(1)),
    )
    result = execute_plan(join)
    # NULL keys never match; residual keeps only r.v > 1.
    assert result.rows == [(3, 7, 7, 2)]


def test_aggregate_functions():
    table = make_table([(1, 5), (2, 5), (3, 7), (4, None)])
    agg = AggregateOp(
        SeqScan(table, "t"),
        group_by=[(col("t.v"), "v")],
        aggregates=[
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("SUM", col("t.id"), "s"),
            AggregateSpec("AVG", col("t.id"), "a"),
            AggregateSpec("MIN", col("t.id"), "lo"),
            AggregateSpec("MAX", col("t.id"), "hi"),
        ],
    )
    rows = {r[0]: r[1:] for r in execute_plan(agg).rows}
    assert rows[5] == (2, 3, 1.5, 1, 2)
    assert rows[7] == (1, 3, 3.0, 3, 3)
    assert rows[None] == (1, 4, 4.0, 4, 4)


def test_sort_multi_key_and_nulls():
    table = make_table([(1, None), (2, 3), (3, 1), (4, 3)])
    plan = SortOp(
        SeqScan(table, "t"),
        keys=[(col("t.v"), False), (col("t.id"), True)],
    )
    rows = execute_plan(plan).rows
    assert [r[0] for r in rows] == [2, 4, 3, 1]  # v desc (nulls last), id asc


def test_limit_and_distinct():
    table = make_table([(1, 1), (2, 1), (3, 2)])
    from repro.relational.physical import ProjectOp

    distinct = DistinctOp(ProjectOp(SeqScan(table, "t"), [(col("t.v"), "v")]))
    assert sorted(execute_plan(distinct).rows) == [(1,), (2,)]
    limited = LimitOp(SeqScan(table, "t"), 2)
    assert len(execute_plan(limited)) == 2


def test_plan_serialization():
    table = make_table([(1, 1)])
    plan = LimitOp(SeqScan(table, "t"), 1)
    doc = plan_to_dict(plan)
    assert doc["operator"] == "LimitOp"
    assert doc["children"][0]["operator"] == "SeqScan"
    assert plan_signature(plan) == ("LimitOp", ("SeqScan",))
    assert operator_counts(plan) == {"LimitOp": 1, "SeqScan": 1}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=30))
def test_hash_join_matches_nested_loop(pairs):
    rows = [(i, v) for i, (k, v) in enumerate(pairs)]
    table = make_table(rows)
    from repro.relational.expr import eq as eq_

    hj = HashJoin(SeqScan(table, "l"), SeqScan(table, "r"), ["l.v"], ["r.v"])
    nl = HashJoin(
        SeqScan(table, "l"), SeqScan(table, "r"), [], [], residual=eq_(col("l.v"), col("r.v"))
    )
    assert sorted(execute_plan(hj).rows) == sorted(execute_plan(nl).rows)
