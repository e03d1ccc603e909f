"""Morsel-driven parallel execution: parity, OOM, and thread-safety.

Three concerns:

* **Parity** — every plan executed at ``parallelism=4`` must produce the
  same ``QueryResult`` as serial execution: identical canonical rows and
  ``rows_produced`` everywhere (the exchange is transport, not an
  operator), and identical row *order* wherever the engine guarantees one
  (ORDER BY / TopK / Limit / streaming chains; unordered aggregation
  output may legally interleave differently, exactly as it already does
  across batch sizes).
* **Budget semantics** — the memory-budget OOMs trip at the same charges
  (the hash-join build folds into one shared buffer; partial states are
  subsets of the serial state), and LIMIT early-exit scopes stay serial so
  parallel run-ahead never wastes bounded-work guarantees.
* **Thread-safety of shared caches** — concurrent queries race the lazily
  built ``Table.vector()`` ndarray views and the CSR ``vectors()`` /
  ``endpoint_vector()`` views (including deliberate cache invalidation
  between rounds) without corrupting results; a writer appending rows
  concurrently with readers never crashes the readers.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import OutOfMemoryError
from repro.exec import (
    ExchangeOp,
    ExecutionContext,
    execute_plan,
    morsel_ranges,
    parallelize_plan,
)
from repro.exec.grouping import NAN, GroupedAggregation
from repro.exec.vector import numpy_available
from repro.graph.index import build_graph_index
from repro.relational.expr import col, gt, lit
from repro.relational.logical import AggregateSpec
from repro.relational.physical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoin,
    LimitOp,
    SeqScan,
    TopKOp,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.systems import make_system
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import ic_queries, qc_queries, qr_queries

PARALLELISM = 4


def make_table(n: int = 20_000, name: str = "t") -> Table:
    schema = TableSchema(
        name,
        [
            Column("id", DataType.INT),
            Column("v", DataType.INT),
            Column("f", DataType.FLOAT),
        ],
        primary_key="id",
    )
    table = Table(schema)
    table.extend_columns(
        [
            list(range(n)),
            [(i * 7) % 97 for i in range(n)],
            [NAN if i % 11 == 0 else float(i % 13) for i in range(n)],
        ],
        validate=False,
    )
    return table


@pytest.fixture(scope="module")
def table():
    return make_table()


@pytest.fixture(scope="module")
def ldbc():
    catalog, mapping = generate_ldbc(LdbcParams.scaled(0.25, seed=11))
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog


# --------------------------------------------------------------------- #
# scheduler units
# --------------------------------------------------------------------- #


def test_morsel_ranges_cover_and_align():
    ranges = morsel_ranges(10_000, 4, 1024)
    assert ranges[0][0] == 0 and ranges[-1][1] == 10_000
    for (_, stop), (start, _) in zip(ranges, ranges[1:]):
        assert stop == start  # contiguous, no overlap
    assert all(start % 1024 == 0 for start, _ in ranges)  # batch-grid aligned
    # Tiny inputs and serial contexts never split.
    assert morsel_ranges(100, 4, 1024) == [(0, 100)]
    assert morsel_ranges(10_000, 1, 1024) == [(0, 10_000)]


def test_parallelize_preserves_original_plan(table):
    plan = AggregateOp(
        FilterOp(SeqScan(table, "t"), gt(col("t.v"), lit(3))),
        [(col("t.v"), "v")],
        [AggregateSpec("COUNT", None, "c")],
    )
    trace = plan.explain()
    assert parallelize_plan(plan, 1, 1024) is plan
    rewritten = parallelize_plan(plan, PARALLELISM, 1024)
    assert rewritten is not plan
    assert "EXCHANGE" in rewritten.explain()
    # The optimizer's tree (and its trace) is untouched by the rewrite.
    assert plan.explain() == trace
    assert "EXCHANGE" not in trace


def test_limit_scope_stays_serial(table):
    # A LIMIT's streaming scope must not parallelize (run-ahead would waste
    # the early exit), but a full-drain boundary below it resets the scope.
    limited = LimitOp(FilterOp(SeqScan(table, "t"), gt(col("t.v"), lit(3))), 7)
    assert parallelize_plan(limited, PARALLELISM, 1024) is limited
    over_agg = LimitOp(
        AggregateOp(
            SeqScan(table, "t"), [(col("t.v"), "v")], [AggregateSpec("COUNT", None, "c")]
        ),
        3,
    )
    rewritten = parallelize_plan(over_agg, PARALLELISM, 1024)
    assert "EXCHANGE" in rewritten.explain()
    result = execute_plan(over_agg, parallelism=PARALLELISM)
    assert len(result) == 3


def test_limit_early_exit_bounded_under_parallelism(table):
    plan = LimitOp(SeqScan(table, "t"), 10)
    result = execute_plan(plan, parallelism=PARALLELISM)
    assert len(result) == 10
    assert result.rows_produced < 5_000  # the early-exit scope stayed serial


def test_exchange_closes_cleanly_mid_stream(table):
    # Close the merged stream after one batch: workers must unblock and the
    # same plan must stay executable afterwards.
    rewritten = parallelize_plan(SeqScan(table, "t"), PARALLELISM, 1024)
    assert isinstance(rewritten, ExchangeOp)
    ctx = ExecutionContext(parallelism=PARALLELISM)
    stream = rewritten.columnar_batches(ctx)
    first = next(stream)
    assert len(first)
    stream.close()
    again = execute_plan(rewritten, parallelism=PARALLELISM)
    assert len(again) == table.num_rows


# --------------------------------------------------------------------- #
# parity: hand-built plans (breaker folds) and full workloads
# --------------------------------------------------------------------- #


def _nan_safe(rows: list) -> list:
    # NaN != NaN would fail exact comparisons on byte-identical rows.
    return [tuple("NaN" if v != v else v for v in row) for row in rows]


def _assert_matches_serial(plan, order_sensitive: bool = False) -> None:
    serial = execute_plan(plan, parallelism=1)
    for columnar in (True, False):
        parallel = execute_plan(plan, columnar=columnar, parallelism=PARALLELISM)
        assert parallel.columns == serial.columns
        if order_sensitive:
            assert _nan_safe(parallel.rows) == _nan_safe(serial.rows)
        assert _nan_safe(parallel.sorted_rows()) == _nan_safe(serial.sorted_rows())
        assert parallel.rows_produced == serial.rows_produced


def test_parallel_scan_chain_order_exact(table):
    # Streaming chains preserve row order through the ordered exchange.
    _assert_matches_serial(
        FilterOp(SeqScan(table, "t"), gt(col("t.id"), lit(100))),
        order_sensitive=True,
    )


def test_parallel_aggregate_fold(table):
    _assert_matches_serial(
        AggregateOp(
            SeqScan(table, "t"),
            [(col("t.v"), "v"), (col("t.f"), "f")],
            [
                AggregateSpec("COUNT", None, "c"),
                AggregateSpec("SUM", col("t.id"), "s"),
                AggregateSpec("MIN", col("t.f"), "lo"),
                AggregateSpec("MAX", col("t.f"), "hi"),
                AggregateSpec("AVG", col("t.id"), "a"),
            ],
        )
    )


def test_parallel_highcard_aggregate_fold(table):
    # High-cardinality single key: the typed array state promotes inside
    # workers and demotes during the merge.
    _assert_matches_serial(
        AggregateOp(
            SeqScan(table, "t"),
            [(col("t.id"), "id")],
            [AggregateSpec("COUNT", None, "c"), AggregateSpec("SUM", col("t.v"), "s")],
        )
    )


def test_parallel_distinct_fold_order_exact(table):
    # DISTINCT survivors are first occurrences in global row order — exact
    # order must survive the per-worker fold (NaN keys dedup canonically).
    _assert_matches_serial(
        DistinctOp(SeqScan(table, "t", projected=["v", "f"])), order_sensitive=True
    )


def test_parallel_topk_fold_order_exact(table):
    _assert_matches_serial(
        TopKOp(SeqScan(table, "t"), [(col("t.v"), True), (col("t.id"), False)], 23),
        order_sensitive=True,
    )
    # Ties resolved by arrival order: every id shares v for a fixed bucket.
    _assert_matches_serial(
        TopKOp(SeqScan(table, "t"), [(col("t.v"), False)], 50), order_sensitive=True
    )


def test_parallel_hash_join_build_fold():
    # The 5 000-row build side spans several morsels, so worker shards still
    # merge; a 2 100-row probe side keeps the join output small.
    left, right = make_table(2_100, "l"), make_table(5_000, "r")
    _assert_matches_serial(
        HashJoin(SeqScan(left, "l"), SeqScan(right, "r"), ["l.v"], ["r.v"])
    )


LDBC_PARITY_QUERIES = ["IC1-2", "IC2", "IC4", "IC5-2", "IC12", "QR2", "QR4", "QC1", "QC2"]


@pytest.mark.parametrize(
    "system_name", ["relgo", "relgo_noei", "relgo_hash", "duckdb", "graindb", "kuzu"]
)
def test_ldbc_workload_parallel_parity(ldbc, system_name):
    system = make_system(system_name, ldbc, "snb")
    queries = {**ic_queries(), **qr_queries(), **qc_queries()}
    for name in LDBC_PARITY_QUERIES:
        optimized = system.optimize(queries[name])
        serial = execute_plan(optimized.physical, parallelism=1)
        parallel = execute_plan(optimized.physical, parallelism=PARALLELISM)
        assert parallel.sorted_rows() == serial.sorted_rows(), (system_name, name)
        assert parallel.rows_produced == serial.rows_produced, (system_name, name)


def test_job24_exists_check_parallel_parity(repro_env):
    """JOB24's EXISTS check and MIN reduction sit in the per-morsel chains:
    each clone keeps its own per-anchor memos, and the answer and
    ``rows_produced`` are the serial ones."""
    from repro.graph.physical import BranchReduce
    from repro.workloads.job import JobParams, generate_imdb
    from repro.workloads.job.queries import job_queries

    catalog, mapping = generate_imdb(JobParams.scaled(0.3, seed=5))
    catalog.register_graph_index(build_graph_index(mapping))
    system = make_system("relgo", catalog, "imdb")
    plan = system.optimize(job_queries(["JOB24"])["JOB24"]).physical
    serial = execute_plan(plan, parallelism=1, batch_size=8)
    repro_env(parallelism=PARALLELISM)

    def exchanges(op):
        found = [op] if isinstance(op, ExchangeOp) else []
        below = op.children() + [getattr(op, "graph_op", None)]
        return found + [e for child in below if child is not None for e in exchanges(child)]

    (exchange,) = exchanges(parallelize_plan(plan, PARALLELISM, 8))
    assert len(exchange.plans) > 1
    chain = exchange.plans[0]
    while not isinstance(chain, BranchReduce):
        (chain,) = chain.children()
    parallel = execute_plan(plan, batch_size=8)
    assert parallel.sorted_rows() == serial.sorted_rows()
    assert parallel.rows_produced == serial.rows_produced


def test_orderby_limit_exact_rows_parallel(ldbc):
    # ORDER BY ... LIMIT guarantees row order: exact equality, not just
    # canonical equality, and across both protocols.
    system = make_system("relgo", ldbc, "snb")
    optimized = system.optimize(ic_queries()["IC2"])
    serial = execute_plan(optimized.physical, parallelism=1)
    for columnar in (True, False):
        parallel = execute_plan(
            optimized.physical, columnar=columnar, parallelism=PARALLELISM
        )
        assert parallel.rows == serial.rows


# --------------------------------------------------------------------- #
# budget semantics
# --------------------------------------------------------------------- #


def test_oom_on_hash_build_parallel(table):
    small = make_table(10, "l")
    join = HashJoin(SeqScan(small, "l"), SeqScan(table, "r"), ["l.v"], ["r.v"])
    with pytest.raises(OutOfMemoryError):
        execute_plan(join, memory_budget_rows=10_000, parallelism=PARALLELISM, spill=False)


def test_oom_on_result_buffer_parallel(table):
    with pytest.raises(OutOfMemoryError):
        execute_plan(SeqScan(table, "t"), memory_budget_rows=10_000, parallelism=PARALLELISM, spill=False)


def test_streaming_pipeline_does_not_false_trip_budget_parallel(table):
    plan = FilterOp(SeqScan(table, "t"), gt(col("t.v"), lit(90)))
    result = execute_plan(plan, memory_budget_rows=5_000, parallelism=PARALLELISM)
    assert _nan_safe(result.sorted_rows()) == _nan_safe(
        execute_plan(plan, parallelism=1).sorted_rows()
    )
    # Aggregation partials are untracked: the tracked peak is the merged
    # state plus the result buffer, just like serial execution.
    agg = AggregateOp(
        SeqScan(table, "t"), [(col("t.v"), "v")], [AggregateSpec("COUNT", None, "c")]
    )
    serial = execute_plan(agg, parallelism=1)
    parallel = execute_plan(agg, parallelism=PARALLELISM)
    assert parallel.peak_buffered_rows == serial.peak_buffered_rows


# --------------------------------------------------------------------- #
# GroupedAggregation.merge_from unit
# --------------------------------------------------------------------- #


def _engine_result(engine: GroupedAggregation) -> dict:
    columns = engine.result_columns()
    keys = list(zip(*columns[: engine.num_keys])) or [()] * engine.num_groups
    return {
        tuple("NaN" if v != v else v for v in key): tuple(
            "NaN" if column[g] != column[g] else column[g]
            for column in columns[engine.num_keys :]
        )
        for g, key in enumerate(keys)
    }


def test_grouped_aggregation_merge_from_matches_serial():
    funcs = ["COUNT", "SUM", "MIN", "MAX", "AVG"]
    values = [NAN if i % 9 == 0 else float(i % 23) for i in range(4_000)]
    keys = [(i * 3) % 41 for i in range(4_000)]
    serial = GroupedAggregation(1, funcs)
    arg = lambda chunk: [chunk] * len(funcs)  # noqa: E731
    serial.consume([keys], arg(values), len(keys))
    merged = GroupedAggregation(1, funcs)
    for start in range(0, 4_000, 1_000):
        part = GroupedAggregation(1, funcs)
        part.consume(
            [keys[start : start + 1_000]],
            arg(values[start : start + 1_000]),
            1_000,
        )
        merged.merge_from(part)
    assert _engine_result(merged) == _engine_result(serial)


@pytest.mark.skipif(not numpy_available(), reason="typed state needs numpy")
def test_merge_from_demotes_promoted_partials():
    import numpy as np

    funcs = ["COUNT", "SUM"]
    keys = np.arange(10_000) % 4_096  # high cardinality: promotes
    vals = np.arange(10_000, dtype=np.int64)
    serial = GroupedAggregation(1, funcs)
    serial.consume([keys], [None, vals], len(keys))
    assert serial._array is not None  # really exercised the typed state
    merged = GroupedAggregation(1, funcs)
    for start in range(0, 10_000, 2_500):
        part = GroupedAggregation(1, funcs)
        chunk = slice(start, start + 2_500)
        part.consume([keys[chunk]], [None, vals[chunk]], 2_500)
        merged.merge_from(part)
    assert _engine_result(merged) == _engine_result(serial)


# --------------------------------------------------------------------- #
# shared-cache thread-safety (Table.vector / CSR vectors views)
# --------------------------------------------------------------------- #


def test_concurrent_queries_race_shared_caches(ldbc):
    system = make_system("relgo", ldbc, "snb")
    queries = {**ic_queries(), **qc_queries()}
    plans = [
        system.optimize(queries[name]).physical
        for name in ("IC1-2", "IC2", "QC1")
    ]
    references = [execute_plan(p, parallelism=1).sorted_rows() for p in plans]

    def clear_caches() -> None:
        # Drop every lazily built ndarray view so the racing queries must
        # rebuild them concurrently (the races the views must survive).
        for name in ldbc.table_names():
            ldbc.table(name)._vectors.clear()
        index = ldbc.graph_index("snb")
        for adjacency in index.ve.values():
            adjacency._vectors.clear()
        for edge_index in index.ev.values():
            edge_index._vectors.clear()

    failures: list = []

    def reader(worker: int) -> None:
        try:
            for round_no in range(3):
                for plan, expected in zip(plans, references):
                    result = execute_plan(plan, parallelism=2)
                    if result.sorted_rows() != expected:
                        failures.append((worker, round_no, "mismatch"))
        except Exception as exc:  # noqa: BLE001 — surfaced via failures
            failures.append((worker, repr(exc)))

    clear_caches()
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    clear_caches()  # invalidate mid-flight: rebuilds must stay consistent
    for t in threads:
        t.join()
    assert not failures, failures[:3]


def test_append_racing_readers_never_corrupts(table):
    # A writer appends to its own table while readers execute parallel
    # scans against it: scans snapshot num_rows at start, so every result
    # is a consistent prefix and nothing crashes.
    target = make_table(4_000, "w")
    n0 = target.num_rows
    appended = 500
    plan = FilterOp(SeqScan(target, "w"), gt(col("w.id"), lit(-1)))
    failures: list = []
    done = threading.Event()

    def writer() -> None:
        try:
            for i in range(appended):
                target.append((n0 + i, (i * 7) % 97, float(i % 13)), validate=False)
        except Exception as exc:  # noqa: BLE001
            failures.append(repr(exc))
        finally:
            done.set()

    def reader() -> None:
        try:
            while not done.is_set():
                result = execute_plan(plan, parallelism=2)
                if not (n0 <= len(result) <= n0 + appended):
                    failures.append(("rows", len(result)))
        except Exception as exc:  # noqa: BLE001
            failures.append(repr(exc))

    threads = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread = threading.Thread(target=writer)
    for t in threads:
        t.start()
    writer_thread.start()
    writer_thread.join()
    for t in threads:
        t.join()
    assert not failures, failures[:3]
    final = execute_plan(plan, parallelism=PARALLELISM)
    assert len(final) == n0 + appended


def test_same_plan_concurrent_parallel_executions(table):
    # One optimized plan object executed concurrently from several threads,
    # each with parallelism>1: operator instances hold no per-execution
    # state, so all executions must agree.
    plan = AggregateOp(
        FilterOp(SeqScan(table, "t"), gt(col("t.id"), lit(50))),
        [(col("t.v"), "v")],
        [AggregateSpec("COUNT", None, "c"), AggregateSpec("SUM", col("t.id"), "s")],
    )
    expected = execute_plan(plan, parallelism=1).sorted_rows()
    failures: list = []

    def run() -> None:
        try:
            for _ in range(3):
                if execute_plan(plan, parallelism=2).sorted_rows() != expected:
                    failures.append("mismatch")
        except Exception as exc:  # noqa: BLE001
            failures.append(repr(exc))

    threads = [threading.Thread(target=run) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures[:3]
