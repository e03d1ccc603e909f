"""Spill-to-disk out-of-core execution.

Four concerns:

* **Arming** — ``resolve_spill`` semantics (explicit value wins, then the
  ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_THRESHOLD`` settings; ``False``
  always disarms; malformed env raises), and the zero-cost contract: an
  armed-but-idle query touches the filesystem not at all.
* **Serializer** — typed columns (``array.array``, ndarray, dictionary
  codes), NULL/NaN cells, and the identity ``MISSING`` sentinel all
  round-trip loss-free through spill frames.
* **Parity** — spilled execution produces the same rows as in-memory
  across storage × numpy × parallelism × protocol, including NULL/NaN
  grouping keys; external sort reproduces the in-memory order *exactly*.
* **Lifecycle** — the acceptance bar: previously-OOMing plans complete
  under a quarter of their working set with peak tracked rows within the
  budget, and no temp files survive success, failure, cancellation, or an
  abandoned ``execute_iter`` (plus the ``atexit`` sweep for crash paths).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.errors import InjectedFault, OutOfMemoryError, QueryCancelled
from repro.exec import (
    ExecutionContext,
    Fault,
    FaultInjector,
    MaterializeOp,
    QueryHandle,
    SpillConfig,
    SpillManager,
    execute_plan,
    numpy_available,
    open_plan,
    resolve_spill,
)
from repro.exec.grouping import MISSING, NAN
from repro.exec.spill import (
    PartitionWriter,
    decode_batch,
    encode_batch,
    spill_hash,
)
from repro.exec.vector import ColumnarBatch, DictVector
from repro.graph.index import build_graph_index
from repro.relational.expr import col
from repro.relational.logical import AggregateSpec
from repro.relational.physical import (
    AggregateOp,
    DistinctOp,
    HashJoin,
    SeqScan,
    SortOp,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.systems import make_system
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import qc_queries
from tests.test_lifecycle import assert_no_repro_threads
from tests.test_parallel_exec import _nan_safe, make_table

PARALLELISM = 4


@pytest.fixture(scope="module")
def tables():
    return make_table(4_000, "l"), make_table(1_000, "r")


@pytest.fixture(scope="module")
def ldbc():
    catalog, mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog


def _pipeline(tables):
    """All four spilling breakers in one plan: hash-join build, grouped
    aggregation (NaN keys via ``l.f``), DISTINCT, and ORDER BY."""
    left, right = tables
    join = HashJoin(SeqScan(left, "l"), SeqScan(right, "r"), ["l.v"], ["r.v"])
    agg = AggregateOp(
        join,
        [(col("l.v"), "v"), (col("l.f"), "f")],
        [AggregateSpec("COUNT", None, "c"), AggregateSpec("SUM", col("r.id"), "s")],
    )
    return SortOp(DistinctOp(agg), [(col("v"), True), (col("s"), False)])


def _empty_dir(path) -> bool:
    return not any(os.scandir(path))


# --------------------------------------------------------------------- #
# arming / resolve_spill
# --------------------------------------------------------------------- #


def test_resolve_spill_env(repro_env, tmp_path):
    # Parsing and validation of the two variables: tests/test_settings.py.
    repro_env(spill_dir=None, spill_threshold=None)
    assert resolve_spill(None) is None
    repro_env(spill_dir=tmp_path, spill_threshold=500)
    config = resolve_spill(None)
    assert config == SpillConfig(directory=str(tmp_path), threshold_rows=500)
    # False disarms regardless of the environment.
    assert resolve_spill(False) is None


def test_resolve_spill_explicit_values():
    assert resolve_spill(True) == SpillConfig()
    assert resolve_spill("/somewhere") == SpillConfig(directory="/somewhere")
    assert resolve_spill(1000) == SpillConfig(threshold_rows=1000)
    config = SpillConfig(directory="/d", threshold_rows=7)
    assert resolve_spill(config) is config
    with pytest.raises(TypeError):
        resolve_spill(3.14)


def test_spill_limit_combines_threshold_and_budget():
    ctx = ExecutionContext(memory_budget_rows=1_000)
    assert ctx.spill_limit() is None  # disarmed
    ctx.spill = SpillManager(SpillConfig(threshold_rows=300)).bind(ctx)
    try:
        assert ctx.spill_limit() == 300
        ctx.memory_budget_rows = 200
        assert ctx.spill_limit() == 200  # min(threshold, budget)
        ctx.memory_budget_rows = None
        assert ctx.spill_limit() == 300
    finally:
        ctx.spill.close()


def test_armed_idle_is_identical_and_touches_no_disk(tables, tmp_path):
    plan = _pipeline(tables)
    config = SpillConfig(directory=str(tmp_path), threshold_rows=10**9)
    # Row protocol: armed-but-idle is byte-identical, order included.
    baseline = execute_plan(plan, columnar=False, spill=False)
    armed = execute_plan(plan, columnar=False, spill=config)
    assert _nan_safe(armed.rows) == _nan_safe(baseline.rows)
    assert armed.rows_produced == baseline.rows_produced
    assert armed.peak_buffered_rows == baseline.peak_buffered_rows
    # Columnar: same rows; intermediate batch boundaries differ (the grace
    # join streams through the row boundary), which legally reorders
    # aggregate output exactly as differing batch sizes already do.
    baseline = execute_plan(plan, spill=False)
    armed = execute_plan(plan, spill=config)
    assert _nan_safe(armed.sorted_rows()) == _nan_safe(baseline.sorted_rows())
    assert armed.rows_produced == baseline.rows_produced
    # The per-query directory is lazy: never spilling = never created.
    assert _empty_dir(tmp_path)


def test_spill_hash_salting_actually_splits():
    # Re-salting must not map an oversized partition onto itself wholesale
    # (that would make the grace-join recursion a no-op).
    same = [k for k in range(1_000) if spill_hash(k) % 16 == 3]
    resalted = {spill_hash(k, 1) % 16 for k in same}
    assert len(resalted) > 1


# --------------------------------------------------------------------- #
# serializer round-trips
# --------------------------------------------------------------------- #


def test_encode_batch_round_trips_typed_columns():
    from array import array

    columns = [
        array("q", [1, 2, 3]),
        [1.5, NAN, None],
        DictVector(array("q", [0, 1, 0]), ["a", "b"], {"a": 0, "b": 1}),
    ]
    batch = ColumnarBatch(columns, 3)
    decoded = decode_batch(encode_batch(batch))
    assert isinstance(decoded.columns[0], array)
    assert decoded.columns[0].typecode == "q"
    assert isinstance(decoded.columns[2], DictVector)
    assert list(decoded.columns[2].values) == ["a", "b"]
    assert _nan_safe(decoded.to_rows()) == _nan_safe(batch.to_rows())


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_encode_batch_round_trips_ndarray():
    import numpy as np

    batch = ColumnarBatch([np.array([1, 2, 3]), np.array([1.0, float("nan"), 3.0])], 3)
    decoded = decode_batch(encode_batch(batch))
    assert decoded.columns[0].dtype == np.int64
    assert _nan_safe(decoded.to_rows()) == _nan_safe(batch.to_rows())


def test_spill_file_frames_round_trip(tmp_path):
    manager = SpillManager(SpillConfig(directory=str(tmp_path)))
    try:
        f = manager.create_file("t")
        rows = [(i, float(i)) for i in range(700)]
        f.append_rows(rows[:500])
        f.append_rows(rows[500:])
        assert f.rows_written == 700
        back = [row for frame in f.read_rows() for row in frame]
        assert back == rows
        assert manager.files_created == 1
        assert manager.bytes_written > 0

        b = manager.create_file("b")
        batch = ColumnarBatch.from_rows([(1, "x"), (2, "y")])
        b.append_batch(batch)
        assert [cb.to_rows() for cb in b.read_batches()] == [[(1, "x"), (2, "y")]]
        # Batch frames decode through the row boundary too.
        assert [frame for frame in b.read_rows()] == [[(1, "x"), (2, "y")]]
    finally:
        manager.close()
    assert _empty_dir(tmp_path)


def test_state_frames_preserve_missing_identity(tmp_path):
    manager = SpillManager(SpillConfig(directory=str(tmp_path)))
    try:
        f = manager.create_file("agg")
        f.append_state([(1,), (2,)], [[MISSING, 5.0], [3, MISSING]])
        ((keys, cells),) = list(f.read_states())
        assert keys == [(1,), (2,)]
        # Identity, not equality: MIN/MAX merges test `is MISSING`.
        assert cells[0][0] is MISSING and cells[1][1] is MISSING
        assert cells[0][1] == 5.0 and cells[1][0] == 3
    finally:
        manager.close()


def test_partition_writer_stages_and_drains(tmp_path):
    manager = SpillManager(SpillConfig(directory=str(tmp_path)))
    try:
        writer = PartitionWriter(manager, "p0")
        for i in range(10):
            writer.append((i,))
        # Under the staging threshold: no file allocated yet.
        assert manager.files_created == 0 and writer.rows == 10
        writer.extend([(i,) for i in range(10, 600)])
        assert manager.files_created == 1  # flushed past WRITE_BUFFER_ROWS
        drained = [item for frame in writer.drain() for item in frame]
        assert drained == [(i,) for i in range(600)]
        writer.delete()
        assert manager.live_files() == 0
    finally:
        manager.close()


# --------------------------------------------------------------------- #
# parity: spilled == in-memory
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
@pytest.mark.parametrize("columnar", [True, False])
def test_spilled_execution_matches_in_memory(storage_mode, parallelism, columnar):
    # Fresh tables per storage cell so columns use the active backend.
    tables = make_table(4_000, "l"), make_table(1_000, "r")
    plan = _pipeline(tables)
    baseline = execute_plan(
        plan, columnar=columnar, parallelism=parallelism, spill=False
    )
    spilled = execute_plan(
        plan,
        columnar=columnar,
        parallelism=parallelism,
        spill=SpillConfig(threshold_rows=150),
    )
    # Row sets are identical; spilled breakers legally emit in partition
    # order (the exact-order guarantee of ORDER BY itself is pinned by
    # test_external_sort_reproduces_exact_order on an order-stable input).
    assert _nan_safe(spilled.sorted_rows()) == _nan_safe(baseline.sorted_rows())
    assert len(spilled) == len(baseline)
    assert spilled.peak_buffered_rows <= baseline.peak_buffered_rows


def test_spilled_grouping_handles_null_and_nan_keys():
    schema = TableSchema(
        "t", [Column("k", DataType.FLOAT), Column("v", DataType.INT)]
    )
    table = Table(schema)
    n = 2_000
    keys = [None if i % 7 == 0 else (NAN if i % 5 == 0 else float(i % 40)) for i in range(n)]
    table.extend_columns([keys, list(range(n))], validate=False)
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k")],
        [AggregateSpec("COUNT", None, "c"), AggregateSpec("MIN", col("t.v"), "mn")],
    )
    for columnar in (True, False):
        baseline = execute_plan(plan, columnar=columnar, spill=False)
        spilled = execute_plan(plan, columnar=columnar, spill=SpillConfig(threshold_rows=8))
        assert _nan_safe(spilled.sorted_rows()) == _nan_safe(baseline.sorted_rows())
        # All NaN rows merged into one group even across spill partitions.
        nan_groups = [r for r in spilled.rows if r[0] is not None and r[0] != r[0]]
        assert len(nan_groups) == 1


def test_spilled_distinct_handles_null_and_nan_keys():
    schema = TableSchema(
        "t", [Column("k", DataType.FLOAT), Column("g", DataType.INT)]
    )
    table = Table(schema)
    n = 2_000
    table.extend_columns(
        [
            [None if i % 7 == 0 else (NAN if i % 5 == 0 else float(i % 60)) for i in range(n)],
            [i % 9 for i in range(n)],
        ],
        validate=False,
    )
    plan = DistinctOp(SeqScan(table, "t"))
    for columnar in (True, False):
        baseline = execute_plan(plan, columnar=columnar, spill=False)
        spilled = execute_plan(plan, columnar=columnar, spill=SpillConfig(threshold_rows=16))
        assert _nan_safe(spilled.sorted_rows()) == _nan_safe(baseline.sorted_rows())


@pytest.mark.parametrize(
    "keys",
    [
        [("l.v", True)],  # ~41 tie classes: ties resolve by arrival
        [("l.v", False)],  # DESC wrapping must keep arrival ties too
        [("l.v", True), ("l.id", False)],  # multi-key with DESC component
    ],
    ids=["asc-ties", "desc-ties", "multi-key"],
)
def test_external_sort_reproduces_exact_order(tables, keys):
    left, _ = tables
    plan = SortOp(SeqScan(left, "l"), [(col(n), asc) for n, asc in keys])
    for columnar in (True, False):
        baseline = execute_plan(plan, columnar=columnar, spill=False)
        spilled = execute_plan(
            plan, columnar=columnar, spill=SpillConfig(threshold_rows=128)
        )
        # Many ties on v split across run files: the k-way merge must
        # reproduce the in-memory (stability-defined) order byte for byte.
        # (_nan_safe only because pickled NaN payload cells lose the
        # identity that tuple == relies on; order is asserted exactly.)
        assert _nan_safe(spilled.rows) == _nan_safe(baseline.rows)


def test_external_sort_canonicalizes_nan_keys(tables):
    # NaN is incomparable, so the disarmed in-memory sort's placement of
    # NaN-keyed rows is a timsort artifact.  The external sort instead
    # gives NaN a canonical total order: last among non-null values
    # ascending (first descending), ties by the remaining keys.
    left, _ = tables
    for ascending in (True, False):
        plan = SortOp(
            SeqScan(left, "l"), [(col("l.f"), ascending), (col("l.id"), True)]
        )
        baseline = execute_plan(plan, spill=False)
        spilled = execute_plan(plan, spill=SpillConfig(threshold_rows=128))
        again = execute_plan(plan, spill=SpillConfig(threshold_rows=37))
        # Same rows, and the armed order is deterministic — independent of
        # where the run boundaries fall.
        assert _nan_safe(spilled.sorted_rows()) == _nan_safe(baseline.sorted_rows())
        assert _nan_safe(again.rows) == _nan_safe(spilled.rows)
        fs = [row[2] for row in spilled.rows]
        nan_flags = [v != v for v in fs]
        n_nan = sum(nan_flags)
        assert n_nan > 0
        block = nan_flags[-n_nan:] if ascending else nan_flags[:n_nan]
        assert all(block)  # NaN block is contiguous at the canonical end
        clean = [v for v in fs if v == v]
        assert clean == sorted(clean, reverse=not ascending)
        # Within the NaN block the secondary key (id ASC) decides.
        nan_ids = [row[0] for row, flag in zip(spilled.rows, nan_flags) if flag]
        assert nan_ids == sorted(nan_ids)


# --------------------------------------------------------------------- #
# the acceptance bar: past-the-cliff queries complete under a working set
# --------------------------------------------------------------------- #


def test_oom_trip_points_unchanged_when_disarmed(ldbc):
    budget = 20_000
    system = make_system("relgo_noei", ldbc, "snb", memory_budget_rows=budget)
    assert system.run(qc_queries()["QC3"], query_name="QC3").status == "OOM"


@pytest.mark.parametrize("name", ["relgo_noei", "kuzu"])
def test_oom_queries_complete_under_quarter_working_set(ldbc, tmp_path, name):
    qc3 = qc_queries()["QC3"]
    free = make_system(name, ldbc, "snb")
    unbounded = free.framework.execute(free.optimize(qc3))
    working_set = unbounded.peak_buffered_rows
    assert working_set > 20_000  # the Fig 9 cliff is real at this scale

    budget = max(2_048, working_set // 4)
    armed = make_system(
        name,
        ldbc,
        "snb",
        memory_budget_rows=budget,
        spill=SpillConfig(directory=str(tmp_path)),
    )
    result = armed.framework.execute(armed.optimize(qc3))
    assert _nan_safe(result.sorted_rows()) == _nan_safe(unbounded.sorted_rows())
    assert result.peak_buffered_rows <= budget
    assert _empty_dir(tmp_path)


def test_materialize_spool_replays_in_arrival_order(tables, tmp_path):
    """Past the working-set limit the barrier spools batches to one file
    and never reverts, so it replays exactly what arrived: the resident
    prefix, then the spooled batches — typed columns still typed."""
    plan = MaterializeOp(SeqScan(tables[0], "l"))
    in_memory = execute_plan(plan, spill=False)
    config = _spilling_config(tmp_path, threshold=500)
    with open_plan(plan, spill=config, batch_size=64) as (ctx, stream):
        rows = [row for cb in stream for row in cb.to_rows()]
        assert ctx.spill.files_created == 1
        assert 0 < ctx.peak_buffered_rows <= 500
    assert _nan_safe(rows) == _nan_safe(in_memory.rows)
    assert ctx.rows_produced == in_memory.rows_produced
    assert ctx.buffered_rows == 0 and _empty_dir(tmp_path)


# --------------------------------------------------------------------- #
# temp-file lifecycle: no survivors on any path
# --------------------------------------------------------------------- #


def _spilling_config(tmp_path, threshold=150):
    return SpillConfig(directory=str(tmp_path), threshold_rows=threshold)


def test_success_path_reaps_spill_directory(tables, tmp_path):
    plan = _pipeline(tables)
    result = execute_plan(plan, spill=_spilling_config(tmp_path))
    assert len(result) > 0
    assert _empty_dir(tmp_path)


def test_failure_path_reaps_spill_directory(tables, tmp_path):
    plan = _pipeline(tables)
    faults = FaultInjector([Fault(kind="error", site="emit", after=3)])
    with pytest.raises(InjectedFault):
        execute_plan(plan, faults=faults, spill=_spilling_config(tmp_path))
    assert _empty_dir(tmp_path)
    assert_no_repro_threads()


def test_cancelled_query_reaps_spill_directory(tables, tmp_path):
    plan = _pipeline(tables)
    handle = QueryHandle()
    faults = FaultInjector([Fault(kind="cancel", site="spill", after=20)])
    with pytest.raises(QueryCancelled):
        execute_plan(
            plan, handle=handle, faults=faults, spill=_spilling_config(tmp_path)
        )
    assert _empty_dir(tmp_path)
    assert_no_repro_threads()


def test_oom_mid_spill_reaps_spill_directory(tables, tmp_path):
    # An OOM raised while spill files are live on disk (injected at the
    # spill site itself) must still unwind through the reaping cascade.
    plan = _pipeline(tables)
    faults = FaultInjector([Fault(kind="oom", site="spill", after=5)])
    with pytest.raises(OutOfMemoryError):
        execute_plan(plan, faults=faults, spill=_spilling_config(tmp_path))
    assert _empty_dir(tmp_path)
    assert_no_repro_threads()


def test_abandoned_execute_iter_reaps_spill_directory(tmp_path):
    from repro.core.sqlpgq import parse_and_bind
    from repro.graph.rgmapping import RGMapping
    from repro.relational.catalog import Catalog

    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "t",
            [Column("id", DataType.INT), Column("v", DataType.INT)],
            primary_key="id",
        ),
        rows=[(i, (i * 13) % 101) for i in range(5_000)],
    )
    # The framework wants a property graph; a single-vertex mapping is
    # enough for a purely relational query.
    mapping = RGMapping("g", catalog)
    mapping.add_vertex("t")
    catalog.register_graph(mapping)
    catalog.analyze()
    system = make_system(
        "duckdb", catalog, spill=_spilling_config(tmp_path, threshold=100)
    )
    query = parse_and_bind("SELECT t.id, t.v FROM t ORDER BY t.v", catalog)
    optimized = system.optimize(query)
    iterator = system.framework.execute_iter(optimized)
    first = next(iterator)
    assert first
    # The external sort's run files are live while batches stream.
    assert not _empty_dir(tmp_path)
    iterator.close()  # abandon mid-stream
    assert _empty_dir(tmp_path)
    assert_no_repro_threads()


def test_atexit_sweep_reaps_unclosed_managers(tmp_path):
    # A crash path that never reaches close(): the interpreter-exit sweep
    # must still remove the directory.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from repro.exec.spill import SpillConfig, SpillManager\n"
        f"m = SpillManager(SpillConfig(directory={str(tmp_path)!r}))\n"
        "f = m.create_file('orphan')\n"
        "f.append_rows([(1,), (2,)])\n"
        "print(m.directory)\n"
        # exits without m.close(): only the atexit sweep stands between
        # this file and a leak
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    orphan_dir = proc.stdout.strip()
    assert orphan_dir.startswith(str(tmp_path))
    assert not os.path.exists(orphan_dir)
    assert _empty_dir(tmp_path)
