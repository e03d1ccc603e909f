"""Streaming-engine semantics: LIMIT early exit, TopK, buffer-scoped OOM,
and converged vs graph-agnostic result parity on the shared fixtures."""

from __future__ import annotations

import random

import pytest

from repro.core.framework import RelGoConfig, RelGoFramework
from repro.core.spjm import GraphTableClause, MatchColumn, SPJMQuery
from repro.errors import OutOfMemoryError, SchemaError
from repro.exec import MaterializeOp, execute_plan
from repro.graph.pattern import PatternGraph
from repro.relational.expr import col, gt, lit
from repro.relational.physical import (
    FilterOp,
    HashJoin,
    LimitOp,
    ProjectOp,
    SeqScan,
    SortOp,
    TopKOp,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType


def make_table(rows):
    schema = TableSchema(
        "t",
        [Column("id", DataType.INT), Column("v", DataType.INT)],
        primary_key="id",
    )
    return Table(schema, rows=rows)


@pytest.fixture(scope="module")
def big_table():
    return make_table([(i, i % 97) for i in range(50_000)])


# --------------------------------------------------------------------- #
# LIMIT early exit
# --------------------------------------------------------------------- #


def test_limit_early_exit_bounds_rows_produced(big_table):
    plan = LimitOp(
        ProjectOp(
            FilterOp(SeqScan(big_table, "t"), gt(col("t.v"), lit(10))),
            [(col("t.id"), "id")],
        ),
        10,
    )
    result = execute_plan(plan)
    assert len(result) == 10
    # The scan stops after a handful of batches instead of 50k rows per
    # operator; leave generous headroom over 3 ops x a few batches.
    assert result.rows_produced < 10_000
    # The same plan with a barrier above every operator (the pre-streaming
    # engine) pays for every operator's full output.
    scan = MaterializeOp(SeqScan(big_table, "t"))
    kept = MaterializeOp(FilterOp(scan, gt(col("t.v"), lit(10))))
    projected = MaterializeOp(ProjectOp(kept, [(col("t.id"), "id")]))
    materialized = execute_plan(MaterializeOp(LimitOp(projected, 10)))
    assert materialized.sorted_rows() == result.sorted_rows()
    assert result.rows_produced < materialized.rows_produced


def test_streaming_pipeline_does_not_false_trip_budget(big_table):
    # 50k rows flow through scan -> filter -> limit under a 500-row budget:
    # nothing buffers more than a batch, so the budget must not fire.
    plan = LimitOp(FilterOp(SeqScan(big_table, "t"), gt(col("t.v"), lit(10))), 100)
    result = execute_plan(plan, memory_budget_rows=500)
    assert len(result) == 100
    assert result.peak_buffered_rows <= 500


# --------------------------------------------------------------------- #
# OOM still fires on genuinely buffered state
# --------------------------------------------------------------------- #


def test_oom_on_sort_buffer(big_table):
    plan = LimitOp(SortOp(SeqScan(big_table, "t"), [(col("t.v"), True)]), 5)
    with pytest.raises(OutOfMemoryError):
        execute_plan(plan, memory_budget_rows=10_000, spill=False)


def test_oom_on_hash_build(big_table):
    small = make_table([(i, i) for i in range(10)])
    join = HashJoin(SeqScan(small, "l"), SeqScan(big_table, "r"), ["l.v"], ["r.v"])
    with pytest.raises(OutOfMemoryError):
        execute_plan(LimitOp(join, 5), memory_budget_rows=10_000, spill=False)


def test_oom_on_materialization_barrier(big_table):
    plan = MaterializeOp(SeqScan(big_table, "t"))
    with pytest.raises(OutOfMemoryError):
        execute_plan(plan, memory_budget_rows=10_000, spill=False)


def test_oom_on_result_buffer(big_table):
    with pytest.raises(OutOfMemoryError):
        execute_plan(SeqScan(big_table, "t"), memory_budget_rows=10_000, spill=False)


# --------------------------------------------------------------------- #
# TopK
# --------------------------------------------------------------------- #


def test_topk_matches_sort_limit_including_ties():
    random.seed(7)
    rows = [(i, random.randrange(20)) for i in range(5_000)]
    table = make_table(rows)
    keys = [(col("t.v"), False), (col("t.id"), True)]
    topk = execute_plan(TopKOp(SeqScan(table, "t"), keys, 17))
    full = execute_plan(LimitOp(SortOp(SeqScan(table, "t"), keys), 17))
    # Exact row-for-row equality: ties resolve by arrival order in both.
    assert topk.rows == full.rows
    # TopK buffers O(k), a full sort buffers everything.
    assert topk.peak_buffered_rows < full.peak_buffered_rows


def test_topk_with_nulls_and_short_input():
    table = make_table([(1, None), (2, 3), (3, 1), (4, 3)])
    keys = [(col("t.v"), False), (col("t.id"), True)]
    topk = execute_plan(TopKOp(SeqScan(table, "t"), keys, 10))
    full = execute_plan(SortOp(SeqScan(table, "t"), keys))
    assert topk.rows == full.rows  # k > n degrades to a plain sort
    assert [r[0] for r in topk.rows] == [2, 4, 3, 1]


def test_planner_fuses_order_by_limit_into_topk(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    optimized = framework.optimize(_ranked_query(limit=2))
    assert "TOPK 2" in optimized.explain()
    assert "SORT" not in optimized.explain()


# --------------------------------------------------------------------- #
# converged vs graph-agnostic parity on the shared fixture
# --------------------------------------------------------------------- #


def _ranked_query(limit: int | None = None) -> SPJMQuery:
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person")
        .vertex("b", "Person")
        .edge("a", "b", "Knows", name="k")
        .build()
    )
    return SPJMQuery(
        graph_table=GraphTableClause(
            "G",
            pattern,
            [MatchColumn("a", "name", "a_name"), MatchColumn("b", "name", "b_name")],
        ),
        projections=[(col("g.a_name"), "a_name"), (col("g.b_name"), "b_name")],
        order_by=[(col("a_name"), True), (col("b_name"), True)],
        limit=limit,
    )


@pytest.mark.parametrize("limit", [None, 3])
def test_converged_and_agnostic_agree_on_streamed_results(fig2, limit):
    catalog, _, _ = fig2
    reference = None
    for config in (
        RelGoConfig(),
        RelGoConfig(graph_aware=False, use_graph_index=False),
        RelGoConfig(graph_aware=False, use_graph_index=True),
        RelGoConfig(use_graph_index=False),
    ):
        framework = RelGoFramework(catalog, "G", config)
        framework.prepare()
        result, _ = framework.run(_ranked_query(limit=limit))
        if reference is None:
            reference = result.sorted_rows()
        else:
            assert result.sorted_rows() == reference


def test_execute_iter_streams_batches(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    optimized = framework.optimize(_ranked_query())
    rows = [row for batch in framework.execute_iter(optimized) for row in batch]
    assert sorted(rows) == framework.execute(optimized).sorted_rows()


# --------------------------------------------------------------------- #
# Table.extend bulk fast-path
# --------------------------------------------------------------------- #


def test_bulk_extend_matches_append():
    a = make_table([])
    b = make_table([])
    rows = [(i, i * 2) for i in range(100)]
    for row in rows:
        a.append(row)
    b.extend(rows)
    assert a.columns == b.columns
    assert b.pk_lookup(42) == 42  # pk index rebuilt after the bulk load


def test_bulk_extend_validates():
    table = make_table([])
    with pytest.raises(SchemaError):
        table.extend([(1, 2), (2, "nope")])
    with pytest.raises(SchemaError):
        table.extend([(1, 2, 3)])
    # A failed bulk load must not leave ragged columns behind.
    assert table.num_rows == 0
    assert len(table.column("id")) == len(table.column("v")) == 0


def test_bulk_extend_coerces_types():
    schema = TableSchema("f", [Column("x", DataType.FLOAT)])
    table = Table(schema, rows=[(1,), (2.5,)])
    assert list(table.column("x")) == [1.0, 2.5]


# --------------------------------------------------------------------- #
# incremental pk-index maintenance
# --------------------------------------------------------------------- #


def test_pk_index_survives_interleaved_appends():
    table = make_table([(0, 0)])
    index_before = table.pk_index()
    for i in range(1, 50):
        table.append((i, i * 2))
        # The cached dict is maintained in place, not rebuilt from scratch.
        assert table.pk_index() is index_before
        assert table.pk_lookup(i) == i
    table.extend([(i, i) for i in range(50, 60)])
    assert table.pk_index() is index_before
    assert table.pk_lookup(57) == 57


def test_pk_index_duplicate_append_still_raises_lazily():
    table = make_table([(1, 1), (2, 2)])
    table.pk_index()
    table.append((1, 9))  # duplicate key: accepted, like the lazy path
    with pytest.raises(SchemaError):
        table.pk_index()


# --------------------------------------------------------------------- #
# adaptive expansion batch sizing
# --------------------------------------------------------------------- #


def test_expansion_batch_size_shrinks_with_fanout():
    from repro.exec import ExecutionContext

    ctx = ExecutionContext()
    assert ctx.expansion_batch_size(100, 100) == ctx.batch_size
    assert ctx.expansion_batch_size(100, 50) == ctx.batch_size
    # 10x fan-out: target shrinks ~10x, never below the floor.
    assert ctx.expansion_batch_size(100, 1000) == ctx.batch_size // 10
    assert ctx.expansion_batch_size(1, 10_000_000) == ctx.min_batch_size
    ctx.adaptive_batch_sizing = False
    assert ctx.expansion_batch_size(100, 1000) == ctx.batch_size
    # A batch_size below the floor is itself the floor: adaptation must
    # never hand back chunks larger than the configured ceiling.
    from repro.exec import ExecutionContext as Ctx

    tiny = Ctx(batch_size=8)
    assert tiny.expansion_batch_size(10, 1000) == 8
    assert tiny.expansion_batch_size(10, 11) == 8


def test_adaptive_sizing_bounds_inflight_chunks_without_changing_results():
    """The hash probe is the one columnar loop whose chunks adapt to the
    observed fan-out: a high-fan-out ``HashJoin`` returns the same rows in
    the same order either way, and with adaptation on its chunks shrink to
    the floor once the first probe batch has shown the fan-out."""
    from repro.exec import ExecutionContext

    batch, fanout = 512, 50
    probe = make_table([(i, i % 8) for i in range(2 * batch)])
    build = make_table([(i, i % 8) for i in range(8 * fanout)])

    def run(adaptive: bool) -> list[list[tuple]]:
        plan = HashJoin(SeqScan(probe, "p"), SeqScan(build, "b"), ["p.v"], ["b.v"])
        ctx = ExecutionContext(batch_size=batch, adaptive_batch_sizing=adaptive)
        return [cb.to_rows() for cb in plan.columnar_batches(ctx)]

    def largest_after_first_probe_batch(chunks: list[list[tuple]]) -> int:
        seen, largest = 0, 0
        for chunk in chunks:
            if seen >= batch * fanout:
                largest = max(largest, len(chunk))
            seen += len(chunk)
        assert seen == 2 * batch * fanout
        return largest

    adaptive, fixed = run(True), run(False)
    assert [r for c in adaptive for r in c] == [r for c in fixed for r in c]
    assert largest_after_first_probe_batch(fixed) == batch
    assert largest_after_first_probe_batch(adaptive) == ExecutionContext.min_batch_size
