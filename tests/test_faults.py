"""Fault-injection harness: the matrix and the spec grammar.

The acceptance bar: one injected failure at **every** operator/exchange
boundary of a representative plan × {parallelism 1, 4} × {row, columnar}
must re-raise the injected exception (not a secondary effect), leave no
``repro-*`` worker thread running, and return ``ctx.buffered_rows`` to
zero.  A schedule that is armed but never fires (``after`` past any
realistic hit count — the CI chaos leg's configuration) must not change
results by a byte.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.errors import (
    InjectedFault,
    OutOfMemoryError,
    QueryCancelled,
    QueryTimeout,
)
from repro.exec import (
    ExecutionContext,
    Fault,
    FaultInjector,
    QueryHandle,
    SpillConfig,
    SpillManager,
    execute_plan,
    parallelize_plan,
    parse_faults,
    plan_boundaries,
    resolve_faults,
)
from repro.relational.expr import col, gt, lit
from repro.relational.logical import AggregateSpec
from repro.relational.physical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoin,
    SeqScan,
    SortOp,
    TopKOp,
)
from repro.systems import make_system
from repro.workloads.ldbc.queries import qc_queries
from tests.test_lifecycle import assert_no_repro_threads
from tests.test_parallel_exec import (  # noqa: F401 — fixture
    _nan_safe,
    ldbc,
    make_table,
)

PARALLELISM = 4

#: Arms the harness without ever firing (the CI chaos leg's schedule).
NEVER = 10**9


@pytest.fixture(scope="module")
def tables():
    return make_table(8_000, "l"), make_table(2_000, "r")


def _relational_plan(tables):
    """Every operator family with a distinct boundary: scan, filter,
    hash-join (build buffer + probe), aggregation fold, top-k fold."""
    left, right = tables
    join = HashJoin(
        FilterOp(SeqScan(left, "l"), gt(col("l.id"), lit(10))),
        SeqScan(right, "r"),
        ["l.v"],
        ["r.v"],
    )
    return TopKOp(join, [(col("l.id"), True), (col("r.id"), True)], 17)


def _aggregate_plan(tables):
    left, _ = tables
    return AggregateOp(
        DistinctOp(SeqScan(left, "l", projected=["v", "f"])),
        [(col("l.v"), "v")],
        [AggregateSpec("COUNT", None, "c")],
    )


def _run_with_fault(plan, fault, parallelism, columnar, handle=None):
    ctx = ExecutionContext(
        parallelism=parallelism, handle=handle, faults=FaultInjector([fault])
    )
    try:
        return ctx, execute_plan(plan, columnar=columnar, ctx=ctx)
    finally:
        assert ctx.buffered_rows == 0
        assert_no_repro_threads()


# --------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("builder", [_relational_plan, _aggregate_plan])
@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
@pytest.mark.parametrize("columnar", [True, False])
def test_fault_matrix_every_boundary(tables, builder, parallelism, columnar):
    plan = builder(tables)
    executed = (
        parallelize_plan(plan, parallelism, 1024) if parallelism > 1 else plan
    )
    boundaries = plan_boundaries(executed)
    assert boundaries  # the walk found the operators
    if parallelism > 1:
        assert any("EXCHANGE" in b for b in boundaries)
    for label in boundaries:
        fault = Fault(kind="error", label=label)
        with pytest.raises(InjectedFault) as exc_info:
            _run_with_fault(plan, fault, parallelism, columnar)
        assert label in str(exc_info.value), label
    # The RESULT buffer boundary is execute_plan's own.
    with pytest.raises(InjectedFault):
        _run_with_fault(
            plan, Fault(kind="error", site="grow", label="RESULT"),
            parallelism, columnar,
        )


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_fault_matrix_graph_operators(ldbc, parallelism):  # noqa: F811
    # A converged graph query (expand/intersect operators) through the same
    # matrix, columnar protocol (the default engine).
    system = make_system("relgo", ldbc, "snb")
    plan = system.optimize(qc_queries()["QC1"]).physical
    executed = (
        parallelize_plan(plan, parallelism, 1024) if parallelism > 1 else plan
    )
    for label in plan_boundaries(executed):
        with pytest.raises(InjectedFault):
            _run_with_fault(
                plan, Fault(kind="error", label=label), parallelism, True
            )


# --------------------------------------------------------------------- #
# fault kinds beyond error
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_injected_oom_carries_label(tables, parallelism):
    plan = _relational_plan(tables)
    with pytest.raises(OutOfMemoryError) as exc_info:
        _run_with_fault(
            plan, Fault(kind="oom", site="grow", label="build"), parallelism, True
        )
    assert "build" in exc_info.value.label


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
def test_injected_delay_lets_deadline_fire(tables, parallelism):
    # A delay fault stalls batch boundaries past the query deadline: the
    # timeout must surface (the sleep polls the handle) with clean teardown.
    plan = _relational_plan(tables)
    fault = Fault(kind="delay", delay=30.0, times=0)
    with pytest.raises(QueryTimeout):
        _run_with_fault(
            plan, fault, parallelism, True,
            handle=QueryHandle(deadline_seconds=0.05),
        )


def test_injected_cancel_surfaces_as_query_cancelled(tables):
    plan = _relational_plan(tables)
    with pytest.raises(QueryCancelled) as exc_info:
        _run_with_fault(
            plan, Fault(kind="cancel", label="HASH_JOIN"), 1, True,
            handle=QueryHandle(),
        )
    assert "injected cancel" in exc_info.value.reason


def test_cancel_fault_without_handle_is_inert(tables):
    # kind=cancel targets the handle; with none armed there is nothing to
    # cancel and the query completes.
    plan = _relational_plan(tables)
    _, result = _run_with_fault(plan, Fault(kind="cancel"), 1, True)
    assert len(result) == 17


# --------------------------------------------------------------------- #
# disk faults at the spill sites
# --------------------------------------------------------------------- #


def _spilling_plan(tables):
    """Every spilling breaker: grace-join build, aggregation, DISTINCT,
    external sort — all forced out-of-core by a tiny working-set limit."""
    left, right = tables
    join = HashJoin(SeqScan(left, "l"), SeqScan(right, "r"), ["l.v"], ["r.v"])
    agg = AggregateOp(
        join,
        [(col("l.v"), "v")],
        [AggregateSpec("COUNT", None, "c")],
    )
    return SortOp(DistinctOp(agg), [(col("c"), False), (col("v"), True)])


def _run_spilling_with_fault(plan, fault, tmp_path, columnar):
    """Armed spill + armed fault on a caller-owned context.

    Whatever happens, the teardown contract holds: every buffer released,
    every temp file reaped, no worker thread left behind.
    """
    ctx = ExecutionContext(faults=FaultInjector([fault]))
    manager = SpillManager(
        SpillConfig(directory=str(tmp_path), threshold_rows=64)
    ).bind(ctx)
    ctx.spill = manager
    try:
        return execute_plan(plan, columnar=columnar, ctx=ctx)
    finally:
        manager.close()
        assert ctx.buffered_rows == 0
        assert manager.live_files() == 0
        assert not any(os.scandir(tmp_path))
        assert_no_repro_threads()


@pytest.mark.parametrize("point", ["[write]", "[read]", "[merge]"])
@pytest.mark.parametrize("columnar", [True, False])
def test_disk_fault_at_every_spill_site(tables, tmp_path, point, columnar):
    # ENOSPC at each spill I/O point must surface as the injected OSError
    # (not a secondary effect) with zero leaked temp files.
    plan = _spilling_plan(tables)
    fault = Fault(kind="disk", site="spill", label=point)
    with pytest.raises(OSError) as exc_info:
        _run_spilling_with_fault(plan, fault, tmp_path, columnar)
    assert exc_info.value.errno == errno.ENOSPC
    assert point in str(exc_info.value)


def test_disk_fault_armed_not_firing_keeps_spilled_results(tables, tmp_path):
    # The chaos-leg shape: a disk fault armed past any realistic hit count
    # must not change a spilled query's results.
    plan = _spilling_plan(tables)
    baseline = execute_plan(plan, spill=False)
    fault = Fault(kind="disk", site="spill", after=NEVER)
    result = _run_spilling_with_fault(plan, fault, tmp_path, True)
    assert _nan_safe(result.sorted_rows()) == _nan_safe(baseline.sorted_rows())


# --------------------------------------------------------------------- #
# armed-but-not-firing must be byte-invisible
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("parallelism", [1, PARALLELISM])
@pytest.mark.parametrize("columnar", [True, False])
def test_armed_not_firing_is_identity(tables, parallelism, columnar):
    plan = _relational_plan(tables)
    # spill=False: the fault run's caller-owned ctx never arms spill, so
    # the baseline must not pick it up from the environment either (the
    # tier1-spill CI leg sets REPRO_SPILL_THRESHOLD for the whole suite).
    baseline = execute_plan(
        plan, columnar=columnar, parallelism=parallelism, spill=False
    )
    fault = Fault(kind="error", after=NEVER)
    ctx, armed = _run_with_fault(plan, fault, parallelism, columnar)
    assert _nan_safe(armed.rows) == _nan_safe(baseline.rows)
    assert armed.rows_produced == baseline.rows_produced
    assert armed.peak_buffered_rows == baseline.peak_buffered_rows


def _operator_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _operator_classes(sub)


def test_disarmed_execution_formats_no_label(tables, ldbc, repro_env, monkeypatch):  # noqa: F811
    """With no injector armed, an execution formats no operator label:
    emits and buffers name their operator, whose label is formatted only
    when an armed fault or an OOM error reads it.  Covers both protocols,
    every breaker of the relational plans, a graph plan, and plan-cache
    hits, whose rebound operators carry no memoized label."""
    from repro.exec.operator import Operator
    from repro.serving import Database
    from repro.workloads.ldbc.queries import ic_queries

    repro_env(faults=None)
    db = Database(catalog=ldbc)
    try:
        session = db.connect()
        statements = [qc_queries()["QC1"], ic_queries()["IC2"]]
        for sql in statements:
            session.execute(sql)  # compile outside the guard
        formatted = []
        for cls in set(_operator_classes(Operator)):
            if "_label" in cls.__dict__:
                def spy(self, original=cls.__dict__["_label"]):
                    formatted.append(type(self).__name__)
                    return original(self)

                monkeypatch.setattr(cls, "_label", spy)
        for builder in (_relational_plan, _aggregate_plan):
            for columnar in (True, False):
                execute_plan(builder(tables), columnar=columnar, spill=False)
        for sql in statements:
            session.execute(sql)  # plan-cache hits: rebound operators
        assert formatted == []
    finally:
        db.close()


# --------------------------------------------------------------------- #
# firing schedule semantics
# --------------------------------------------------------------------- #


def test_after_counts_matching_hits():
    fault = Fault(kind="error", after=3)
    assert [fault.should_fire() for _ in range(4)] == [False, False, True, False]
    repeating = Fault(kind="error", after=2, times=0)
    assert [repeating.should_fire() for _ in range(4)] == [False, True, True, True]


def test_rate_seed_is_deterministic():
    def decisions(seed: int) -> list[bool]:
        fault = Fault(kind="error", rate=0.5, seed=seed, times=0)
        return [fault.should_fire() for _ in range(64)]

    first = decisions(7)
    assert first == decisions(7)
    assert any(first) and not all(first)
    assert decisions(8) != first


def test_site_and_label_matching():
    fault = Fault(kind="error", site="grow", label="build")
    assert fault.matches("grow", "HASH_JOIN (l.v=r.v) build")
    assert not fault.matches("emit", "HASH_JOIN (l.v=r.v) build")
    assert not fault.matches("grow", "RESULT")
    assert Fault(kind="error", label="*").matches("emit", "anything")


# --------------------------------------------------------------------- #
# spec grammar / env resolution
# --------------------------------------------------------------------- #


def test_parse_faults_grammar():
    injector = parse_faults(
        "kind=error,site=grow,label=build,after=3;"
        "kind=delay,delay=0.25,times=0; ;"
        "kind=oom,rate=0.5,seed=42"
    )
    kinds = [f.kind for f in injector.faults]
    assert kinds == ["error", "delay", "oom"]
    assert injector.faults[0].site == "grow"
    assert injector.faults[0].after == 3
    assert injector.faults[1].delay == 0.25
    assert injector.faults[2].rate == 0.5


@pytest.mark.parametrize(
    "spec",
    [
        "site=grow",  # missing kind
        "kind=frobnicate",  # unknown kind
        "kind=error,site=nowhere",  # unknown site
        "kind=error,after=0",  # after must be >= 1
        "kind=error,bogus=1",  # unknown key
        "kind=error,after",  # not key=value
    ],
)
def test_parse_faults_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_faults(spec)


def test_resolve_faults_env(tables, repro_env):
    repro_env(faults=None)
    assert resolve_faults(None) is None  # default: nothing armed
    repro_env(faults="kind=error,label=SCAN_TABLE")
    injector = resolve_faults(None)
    assert injector is not None and injector.faults[0].kind == "error"
    # The env schedule reaches execute_plan without any explicit wiring,
    # and each query gets fresh hit counters.
    plan = SeqScan(tables[0], "l")
    for _ in range(2):
        with pytest.raises(InjectedFault):
            execute_plan(plan)
    repro_env(faults=f"kind=error,after={NEVER}")
    assert len(execute_plan(plan)) == 8_000
    # Explicit spec strings and injectors win over the env.
    with pytest.raises(InjectedFault):
        execute_plan(plan, faults="kind=error")
