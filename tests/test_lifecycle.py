"""Query lifecycle: deadlines, cancellation, leases, and clean teardown.

The invariant every test here pins: **however a query ends** — deadline
expiry, cooperative cancel, abandoned iterator, OOM — the engine unwinds
deterministically: the expected exception type surfaces, operator
``finally`` blocks run (``ctx.buffered_rows`` returns to zero), worker
threads exit (no ``repro-*`` threads left in ``threading.enumerate()``),
and the query's budget lease returns to the governor.  Under the default
config none of this machinery is armed, which the tier-1 parity suites
already pin (same results, same OOM trip points).
"""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.core.framework import OptimizedQuery, RelGoConfig, RelGoFramework
from repro.core.sqlpgq import parse_and_bind
from repro.errors import (
    AdmissionError,
    OutOfMemoryError,
    QueryCancelled,
    QueryTimeout,
)
from repro.exec import context as context_mod
from repro.exec import (
    ExecutionContext,
    MemoryGovernor,
    QueryHandle,
    SpillConfig,
    execute_plan,
    parallelize_plan,
    resolve_timeout,
    set_global_governor,
)
from repro.relational.expr import col, gt, lit
from repro.relational.logical import AggregateSpec
from repro.relational.physical import AggregateOp, FilterOp, HashJoin, SeqScan, SortOp
from tests.test_parallel_exec import make_table

PARALLELISM = 4


@pytest.fixture(scope="module")
def table():
    return make_table()


def assert_no_repro_threads(grace: float = 5.0) -> None:
    """All engine worker threads (named ``repro-*``) must have exited."""
    deadline = time.monotonic() + grace
    leaked: list = []
    while time.monotonic() < deadline:
        leaked = [
            t for t in threading.enumerate() if t.name.startswith("repro-")
        ]
        if not leaked:
            return
        time.sleep(0.01)
    assert not leaked, leaked


# --------------------------------------------------------------------- #
# QueryHandle / resolve_timeout units
# --------------------------------------------------------------------- #


def test_handle_check_is_noop_until_cancelled():
    handle = QueryHandle()
    handle.check()  # no deadline, not cancelled: never raises
    assert not handle.cancelled
    assert handle.remaining() is None
    handle.cancel("caller gave up")
    assert handle.cancelled
    with pytest.raises(QueryCancelled) as exc_info:
        handle.check()
    assert exc_info.value.reason == "caller gave up"


def test_handle_deadline_expiry_marks_every_thread_timed_out():
    handle = QueryHandle(deadline_seconds=0.005)
    time.sleep(0.02)
    with pytest.raises(QueryTimeout):
        handle.check()
    # Subsequent checks (other workers) see the same error type.
    with pytest.raises(QueryTimeout) as exc_info:
        handle.check()
    assert exc_info.value.elapsed >= exc_info.value.deadline
    assert isinstance(exc_info.value, QueryCancelled)  # one except clause stops both


def test_handle_wait_is_interruptible():
    handle = QueryHandle()
    canceller = threading.Timer(0.02, handle.cancel)
    canceller.start()
    started = time.monotonic()
    with pytest.raises(QueryCancelled):
        handle.wait(30.0)
    assert time.monotonic() - started < 5.0
    canceller.join()


def test_resolve_timeout_explicit_values():
    # The environment side of the rule lives in tests/test_settings.py.
    assert resolve_timeout(1.25) == 1.25
    assert resolve_timeout(0) is None  # non-positive disables
    assert resolve_timeout(-3) is None


# --------------------------------------------------------------------- #
# execute_plan: timeout / cancel / teardown
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
@pytest.mark.parametrize("columnar", [True, False])
def test_timeout_raises_and_tears_down(table, parallelism, columnar):
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.v"), "v")],
        [AggregateSpec("COUNT", None, "c")],
    )
    ctx = ExecutionContext(
        parallelism=parallelism, handle=QueryHandle(deadline_seconds=1e-9)
    )
    with pytest.raises(QueryTimeout):
        execute_plan(plan, columnar=columnar, ctx=ctx)
    assert ctx.buffered_rows == 0
    assert_no_repro_threads()


@pytest.fixture(scope="module")
def imdb():
    from repro.workloads.registry import dataset

    return dataset("IMDB", 7)


@pytest.mark.parametrize("columnar", [True, False])
def test_graph_agnostic_job24_stops_at_its_deadline(imdb, columnar):
    """Graph-agnostic JOB24 runs for minutes on the benchmark's IMDB
    stand-in; its deadline must still stop it promptly and leave no lease
    and no buffered rows behind."""
    from repro.systems import make_system
    from repro.workloads.registry import suite

    system = make_system("duckdb", imdb, "imdb")
    plan = system.optimize(parse_and_bind(suite("JOB")["JOB24"], imdb)).physical
    governor = MemoryGovernor()
    ctx = ExecutionContext(handle=QueryHandle(deadline_seconds=0.5))
    started = time.monotonic()
    with pytest.raises(QueryTimeout):
        execute_plan(plan, columnar=columnar, ctx=ctx, governor=governor)
    assert time.monotonic() - started < 5.0
    assert governor.active_leases == 0
    assert ctx.buffered_rows == 0


def test_timeout_env_knob(table, repro_env):
    repro_env(query_timeout="0.000000001")
    with pytest.raises(QueryTimeout):
        execute_plan(SeqScan(table, "t"))
    # An explicit generous timeout overrides the env and succeeds.
    result = execute_plan(SeqScan(table, "t"), timeout=120.0)
    assert len(result) == table.num_rows


def test_precancelled_handle_stops_before_work(table):
    handle = QueryHandle()
    handle.cancel("session closed")
    with pytest.raises(QueryCancelled) as exc_info:
        execute_plan(SeqScan(table, "t"), handle=handle)
    assert exc_info.value.reason == "session closed"


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_concurrent_cancel_unwinds_cleanly(table, parallelism):
    # A many-to-many join (v has ~200 duplicates per value) produces ~4M
    # rows — far more than can materialize before the 30ms cancel lands.
    join = HashJoin(SeqScan(table, "l"), SeqScan(make_table(20_000, "r"), "r"),
                    ["l.v"], ["r.v"])
    handle = QueryHandle()
    ctx = ExecutionContext(parallelism=parallelism, handle=handle)
    canceller = threading.Timer(0.03, handle.cancel, kwargs={"reason": "killed"})
    canceller.start()
    with pytest.raises(QueryCancelled):
        execute_plan(join, ctx=ctx)
    canceller.join()
    assert ctx.buffered_rows == 0
    assert_no_repro_threads()


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_deadline_expiring_inside_fold(table, parallelism):
    # The deadline fires while breaker folds are consuming morsels on
    # worker threads: join_interruptible must surface QueryTimeout in the
    # consumer and reap the crew.  The aggregate groups a ~4M-row join
    # (v has ~200 duplicates per value), so no machine finishes in 10ms.
    plan = AggregateOp(
        HashJoin(SeqScan(table, "l"), SeqScan(make_table(20_000, "r"), "r"),
                 ["l.v"], ["r.v"]),
        [(col("l.id"), "id")],
        [AggregateSpec("SUM", col("r.v"), "s")],
    )
    ctx = ExecutionContext(
        parallelism=parallelism, handle=QueryHandle(deadline_seconds=0.01)
    )
    with pytest.raises(QueryTimeout):
        execute_plan(plan, ctx=ctx)
    assert ctx.buffered_rows == 0
    assert_no_repro_threads()


def test_oom_error_path_releases_result_buffer(table):
    ctx = ExecutionContext(memory_budget_rows=1_000)
    with pytest.raises(OutOfMemoryError) as exc_info:
        execute_plan(SeqScan(table, "t"), ctx=ctx)
    assert exc_info.value.label == "RESULT"
    assert ctx.buffered_rows == 0  # the satellite fix: released in finally


def test_oom_carries_owning_buffer_label(table):
    small = make_table(10, "l")
    join = HashJoin(SeqScan(small, "l"), SeqScan(table, "r"), ["l.v"], ["r.v"])
    with pytest.raises(OutOfMemoryError) as exc_info:
        execute_plan(join, memory_budget_rows=10_000, spill=False)
    assert "build" in exc_info.value.label
    assert exc_info.value.label in str(exc_info.value)
    assert exc_info.value.rows > exc_info.value.budget == 10_000


# --------------------------------------------------------------------- #
# abandoned iterators tear down deterministically
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_abandoned_stream_releases_buffers_on_close(table, parallelism):
    join = HashJoin(SeqScan(table, "l"), SeqScan(make_table(5_000, "r"), "r"),
                    ["l.v"], ["r.v"])
    ctx = ExecutionContext(parallelism=parallelism)
    plan = parallelize_plan(join, parallelism, ctx.batch_size)
    stream = plan.columnar_batches(ctx)
    assert len(next(stream))
    assert ctx.buffered_rows > 0  # the build table is live mid-stream
    stream.close()
    assert ctx.buffered_rows == 0
    assert_no_repro_threads()


def test_execute_iter_abandon_releases_lease_and_buffers(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    optimized = framework.optimize(
        parse_and_bind(
            """
            SELECT p_name, m_content
            FROM GRAPH_TABLE (G MATCH (p:Person)-[:Likes]->(m:Message)
                              COLUMNS (p.name AS p_name, m.content AS m_content))
            ORDER BY p_name, m_content
            """,
            catalog,
        )
    )
    observer = MemoryGovernor()
    previous = set_global_governor(observer)
    try:
        stream = framework.execute_iter(optimized)
        first = next(stream)
        assert first
        assert observer.active_leases == 1
        stream.close()  # consumer abandons mid-stream
        assert observer.active_leases == 0
        # `break` out of a for loop only GC-closes; an explicit with-style
        # close is the supported contract, but del must not leak either.
        stream = framework.execute_iter(optimized)
        next(stream)
        del stream
        import gc

        gc.collect()
        assert observer.active_leases == 0
    finally:
        set_global_governor(previous)
    assert_no_repro_threads()


@pytest.mark.parametrize("consumer", ["drain", "break", "raise"])
def test_execute_iter_and_execute_plan_leave_identical_state(
    fig2, table, tmp_path, monkeypatch, consumer
):
    """One lifecycle: under a bounded governor with spill armed, a drained
    ``execute`` and an ``execute_iter`` whose consumer drains, breaks or
    raises end in the same state — no lease, no buffered rows, no spill
    directory."""
    contexts: list[ExecutionContext] = []

    def recording_context(**fields):
        contexts.append(ExecutionContext(**fields))
        return contexts[-1]

    monkeypatch.setattr(context_mod, "ExecutionContext", recording_context)
    config = RelGoConfig(
        memory_budget_rows=50_000,
        spill=SpillConfig(directory=str(tmp_path), threshold_rows=2_000),
    )
    framework = RelGoFramework(fig2[0], "G", config)
    plan = SortOp(SeqScan(table, "t"), [(col("t.v"), True), (col("t.id"), True)])
    optimized = OptimizedQuery(physical=plan, logical=None, optimization_time=0.0)
    governor = MemoryGovernor(total_rows=50_000)

    def state():
        return (
            governor.active_leases,
            governor.leased_rows,
            contexts[-1].buffered_rows,
            list(tmp_path.iterdir()),
        )

    previous = set_global_governor(governor)
    try:
        expected = [row[0] for row in framework.execute(optimized).rows]
        after_execute = state()
        assert after_execute == (0, 0, 0, [])
        ids: list[int] = []  # column f holds NaNs, so compare the key
        with contextlib.ExitStack() as stack:
            if consumer == "raise":
                stack.enter_context(pytest.raises(RuntimeError, match="loop body"))
            stream = stack.enter_context(
                contextlib.closing(framework.execute_iter(optimized))
            )
            for batch in stream:
                ids.extend(row[0] for row in batch)
                # Mid-stream the query is live: leased, buffered, spilled.
                live = state()
                assert live[0] == 1 and live[1] == 50_000
                assert live[2] > 0 and len(live[3]) == 1
                if consumer == "break":
                    break
                if consumer == "raise":
                    raise RuntimeError("loop body failed")
        assert len(contexts) == 2
        assert state() == after_execute
        assert ids == (expected if consumer == "drain" else expected[: len(ids)])
    finally:
        set_global_governor(previous)
    assert_no_repro_threads()


# --------------------------------------------------------------------- #
# MemoryGovernor admission control
# --------------------------------------------------------------------- #


def test_unbounded_governor_is_identity():
    governor = MemoryGovernor()
    lease = governor.lease(12_345, label="q1")
    assert lease.budget_rows == 12_345
    assert governor.active_leases == 1
    unlimited = governor.lease(None, label="q2")
    assert unlimited.budget_rows is None  # unlimited request stays unlimited
    lease.release()
    lease.release()  # idempotent
    unlimited.release()
    assert governor.active_leases == 0
    assert governor.leased_rows == 0


def test_bounded_governor_admits_within_pool():
    governor = MemoryGovernor(total_rows=1_000)
    a = governor.lease(600)
    assert a.budget_rows == 600  # granted budgets are never shrunk
    with pytest.raises(AdmissionError) as exc_info:
        governor.lease(600)  # 600 + 600 > 1000, fail-fast default
    assert exc_info.value.leased == 600
    b = governor.lease(400)
    assert governor.leased_rows == 1_000
    a.release()
    c = governor.lease(600)
    for lease in (b, c):
        lease.release()
    assert governor.leased_rows == 0


def test_bounded_governor_rejects_impossible_requests():
    governor = MemoryGovernor(total_rows=1_000)
    with pytest.raises(AdmissionError):
        governor.lease(2_000)  # can never fit: immediate, even with timeout
    # An unlimited request claims the whole pool.
    whole = governor.lease(None)
    assert whole.budget_rows is None
    with pytest.raises(AdmissionError):
        governor.lease(1)
    whole.release()
    governor.lease(1).release()


def test_bounded_governor_waits_for_release():
    governor = MemoryGovernor(total_rows=1_000)
    first = governor.lease(900)
    releaser = threading.Timer(0.05, first.release)
    releaser.start()
    second = governor.lease(900, timeout=5.0)  # blocks until the release
    assert second.budget_rows == 900
    second.release()
    releaser.join()


def test_bounded_governor_admission_timeout_expires():
    governor = MemoryGovernor(total_rows=1_000)
    held = governor.lease(900)
    started = time.monotonic()
    with pytest.raises(AdmissionError):
        governor.lease(900, timeout=0.05)
    assert time.monotonic() - started < 5.0
    held.release()


def test_execute_plan_runs_under_bounded_governor(table):
    governor = MemoryGovernor(total_rows=100_000)
    result = execute_plan(
        SeqScan(table, "t"), memory_budget_rows=50_000, governor=governor
    )
    assert len(result) == table.num_rows
    assert governor.active_leases == 0  # released in execute_plan's finally
    # A failing query releases too.
    with pytest.raises(OutOfMemoryError):
        execute_plan(
            SeqScan(table, "t"), memory_budget_rows=1_000, governor=governor, spill=False
        )
    assert governor.active_leases == 0
    with pytest.raises(AdmissionError):
        execute_plan(
            SeqScan(table, "t"), memory_budget_rows=200_000, governor=governor
        )


def test_concurrent_queries_lease_from_one_pool(table):
    # N threads × M queries against a pool sized for roughly half of them:
    # admission (with a generous wait) serializes the overflow, every query
    # completes, and the pool drains back to zero.
    governor = MemoryGovernor(total_rows=90_000, admission_timeout=30.0)
    plan = FilterOp(SeqScan(table, "t"), gt(col("t.v"), lit(3)))
    expected = len(execute_plan(plan))
    failures: list = []

    def client(worker: int) -> None:
        try:
            for _ in range(3):
                result = execute_plan(
                    plan, memory_budget_rows=30_000, governor=governor
                )
                if len(result) != expected:
                    failures.append((worker, "mismatch", len(result)))
        except Exception as exc:  # noqa: BLE001 — surfaced via failures
            failures.append((worker, repr(exc)))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures, failures[:3]
    assert governor.active_leases == 0
    assert governor.leased_rows == 0


# --------------------------------------------------------------------- #
# cancellation under load (stress)
# --------------------------------------------------------------------- #


def test_cancel_racing_concurrent_appends(table):
    # Readers execute parallel scans with per-query handles while a writer
    # appends and a canceller kills handles mid-flight: every outcome must
    # be either a complete result or QueryCancelled — nothing else — and
    # teardown must leave no threads or buffered rows behind.
    target = make_table(8_000, "w")
    plan = FilterOp(SeqScan(target, "w"), gt(col("w.id"), lit(-1)))
    failures: list = []
    cancelled = [0]
    done = threading.Event()

    def writer() -> None:
        try:
            n0 = 8_000
            for i in range(400):
                target.append((n0 + i, (i * 7) % 97, float(i % 13)), validate=False)
        except Exception as exc:  # noqa: BLE001
            failures.append(repr(exc))
        finally:
            done.set()

    def reader() -> None:
        while not done.is_set():
            handle = QueryHandle()
            ctx = ExecutionContext(parallelism=PARALLELISM, handle=handle)
            canceller = threading.Timer(0.002, handle.cancel)
            canceller.start()
            try:
                execute_plan(plan, ctx=ctx)
            except QueryCancelled:
                cancelled[0] += 1
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))
            finally:
                canceller.cancel()
                canceller.join()
            if ctx.buffered_rows != 0:
                failures.append(("buffered_rows", ctx.buffered_rows))

    threads = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread = threading.Thread(target=writer)
    for t in threads:
        t.start()
    writer_thread.start()
    writer_thread.join()
    for t in threads:
        t.join()
    assert not failures, failures[:3]
    assert_no_repro_threads()


def test_default_config_arms_nothing(table):
    # The zero-cost contract: no env, no knobs → no handle, no faults, and
    # byte-identical results to the seed engine.
    ctx = ExecutionContext()
    assert ctx.handle is None and ctx.faults is None
    assert ctx.spill is None and ctx.spill_limit() is None
    result = execute_plan(SeqScan(table, "t"))
    assert len(result) == table.num_rows
