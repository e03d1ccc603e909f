"""Execution context: memory budget, counters, and the plan runner.

The context is threaded through every physical operator.  Its single most
important job for the reproduction is the **memory budget**: the paper's
evaluation reports OOM entries (RelGoNoEI on the 4-clique QC3; Kùzu on
IC3-1), and we reproduce those by capping the number of rows any single
*genuinely buffered* intermediate may hold — hash-join build tables, sort
and aggregation buffers, distinct sets, materialization barriers, and the
final result.  Streaming pipeline segments (scan → filter → project →
probe chains) never buffer more than one batch in flight, so they no longer
trip the budget; operators that must buffer acquire a :class:`Buffer`
handle via :meth:`ExecutionContext.buffer` and grow it as rows accumulate.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro import settings
from repro.errors import OutOfMemoryError, QueryCancelled, QueryTimeout
from repro.exec.vector import ColumnarBatch, owned

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.faults import FaultInjector
    from repro.exec.governor import MemoryGovernor
    from repro.exec.operator import Operator
    from repro.exec.spill import SpillManager

#: Target number of rows per batch flowing between operators.
DEFAULT_BATCH_SIZE = 1024

#: Floor for adaptively shrunk expansion chunks.
MIN_BATCH_SIZE = 64


class QueryHandle:
    """Cooperative cancellation token + optional deadline for one query.

    The handle is checked at batch boundaries (``ctx.emit``,
    :meth:`Buffer.grow`, the exchange's put/get loops), never mid-kernel:
    cancellation therefore unwinds through the normal generator machinery —
    operator ``finally`` blocks run, buffers release, worker threads exit —
    rather than killing threads.  A context without a handle pays a single
    ``is None`` test per boundary, so the default serial hot path is
    unchanged.

    Thread-safe by construction: the mutable state is two booleans flipped
    under the GIL, read by every worker.  ``cancel()`` may be called from
    any thread (or from a signal handler); every thread of the query raises
    at its next boundary.
    """

    __slots__ = ("start", "deadline_seconds", "_deadline", "_cancelled", "_timed_out", "_reason")

    def __init__(self, deadline_seconds: float | None = None):
        self.start = time.monotonic()
        self.deadline_seconds = deadline_seconds
        self._deadline = (
            None if deadline_seconds is None else self.start + deadline_seconds
        )
        self._cancelled = False
        self._timed_out = False
        self._reason = "query cancelled"

    def cancel(self, reason: str = "query cancelled") -> None:
        """Request cooperative cancellation; idempotent, any thread."""
        self._reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining(self) -> float | None:
        """Seconds until the deadline (None when no deadline is armed)."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def check(self) -> None:
        """Raise :class:`QueryTimeout` / :class:`QueryCancelled` if due.

        The first thread to observe an expired deadline marks the handle
        timed out *and* cancelled, so every other worker stops at its next
        boundary and raises the same error type.
        """
        if self._cancelled:
            if self._timed_out:
                raise QueryTimeout(
                    time.monotonic() - self.start, self.deadline_seconds or 0.0
                )
            raise QueryCancelled(self._reason)
        deadline = self._deadline
        if deadline is not None and time.monotonic() > deadline:
            self._timed_out = True
            self._cancelled = True
            raise QueryTimeout(
                time.monotonic() - self.start, self.deadline_seconds or 0.0
            )

    def wait(self, seconds: float, poll: float = 0.01) -> None:
        """Sleep up to ``seconds``, waking early (and raising) on
        cancellation/deadline — the interruptible sleep injected delays and
        cooperative backoff loops use, so a sleeping worker never outlives
        its query."""
        end = time.monotonic() + seconds
        while True:
            self.check()
            left = end - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(poll, left))


def resolve_timeout(value: float | None) -> float | None:
    """An explicit per-query deadline in seconds, else
    ``REPRO_QUERY_TIMEOUT``; non-positive values disable the deadline."""
    if value is None:
        return settings.current().query_timeout
    return value if value > 0 else None


class Buffer:
    """Accounting handle for one operator's buffered rows.

    The budget check is per buffer — "no single materialized intermediate
    may exceed the budget" — matching the semantics the OOM reproduction
    was calibrated against.  The context additionally tracks the total and
    peak buffered rows across all live buffers for observability.

    Under a parallel context (``ctx.parallelism > 1``) all mutations go
    through the context's lock, so buffers may be grown from worker
    threads (the parallel hash-join build charges one shared buffer from
    every worker, keeping the cumulative OOM trip point byte-identical to
    serial execution); serial contexts skip the lock — the default
    single-threaded hot path pays nothing.  ``tracked=False`` buffers — the
    per-worker *partial* states of parallel aggregation / distinct / top-k
    — still enforce the per-buffer budget, but stay out of the
    ``buffered_rows`` / ``peak_buffered_rows`` aggregates: each partial is
    a subset of the merged state, which the consumer charges in full, so
    tracking both would double-count one logical intermediate.

    A buffer is named by its owner — an operator, or a fixed name such as
    ``"RESULT"`` — plus a suffix; an operator's label is formatted only when
    :attr:`label` is read (an armed fault, an OOM error), never per open.
    """

    __slots__ = ("_ctx", "_owner", "_suffix", "rows", "tracked")

    def __init__(
        self,
        ctx: "ExecutionContext",
        owner: "Operator | str",
        suffix: str = "",
        tracked: bool = True,
    ):
        self._ctx = ctx
        self._owner = owner
        self._suffix = suffix
        self.rows = 0
        self.tracked = tracked

    @property
    def label(self) -> str:
        owner = self._owner
        return (owner if isinstance(owner, str) else owner.cached_label()) + self._suffix

    def grow(self, rows: int) -> None:
        """Account for ``rows`` newly buffered rows; raise OOM over budget."""
        if rows <= 0:
            return
        ctx = self._ctx
        # Batch-boundary lifecycle checks (outside the accounting lock, so
        # a raising check can never leave it held): both are a single
        # ``is None`` test when the query has no deadline/handle and no
        # injector armed — the default serial hot path is unchanged.
        if ctx.handle is not None:
            ctx.handle.check()
        if ctx.faults is not None:
            ctx.faults.on_grow(ctx, self.label, rows)
        if ctx.parallelism > 1:
            with ctx.lock:
                self._grow(ctx, rows)
        else:
            self._grow(ctx, rows)

    def _grow(self, ctx: "ExecutionContext", rows: int) -> None:
        self.rows += rows
        if self.tracked:
            ctx.buffered_rows += rows
            if ctx.buffered_rows > ctx.peak_buffered_rows:
                ctx.peak_buffered_rows = ctx.buffered_rows
        budget = ctx.memory_budget_rows
        if budget is not None and self.rows > budget:
            raise OutOfMemoryError(self.rows, budget, self.label)

    def shrink(self, rows: int) -> None:
        """Account for ``rows`` buffered rows being dropped (e.g. TopK prune)."""
        if rows <= 0:
            return
        ctx = self._ctx
        if ctx.parallelism > 1:
            with ctx.lock:
                self._shrink(ctx, rows)
        else:
            self._shrink(ctx, rows)

    def _shrink(self, ctx: "ExecutionContext", rows: int) -> None:
        # Clamp under the lock: a read-then-lock clamp would let two
        # concurrent shrinks of a shared buffer both observe the same
        # rows and double-decrement the accounting.
        rows = min(rows, self.rows)
        if rows <= 0:
            return
        self.rows -= rows
        if self.tracked:
            ctx.buffered_rows -= rows

    def release(self) -> None:
        """Release the whole buffer (operator finished or was cancelled)."""
        ctx = self._ctx
        if ctx.parallelism > 1:
            with ctx.lock:
                self._release(ctx)
        else:
            self._release(ctx)

    def _release(self, ctx: "ExecutionContext") -> None:
        if self.tracked:
            ctx.buffered_rows -= self.rows
        self.rows = 0


@dataclass
class ExecutionContext:
    """Mutable per-query execution state.

    Attributes:
        memory_budget_rows: maximum rows a single buffered intermediate
            (hash table, sort buffer, materialized result) may hold;
            ``None`` means unlimited.
        rows_produced: total rows emitted by all operators (a cheap proxy
            for work done, used by tests and the benchmark reports).  With
            streaming execution, early-exiting pipelines (LIMIT / TopK)
            emit — and therefore count — strictly fewer rows.
        batch_size: target chunk size for operator output batches.
        adaptive_batch_sizing: when True (default), expansion-heavy
            operators shrink their flush threshold under observed fan-out
            via :meth:`expansion_batch_size`.
        min_batch_size: floor for adaptively shrunk chunks.
        buffered_rows / peak_buffered_rows: current and high-water total of
            rows held by live :class:`Buffer` handles.
        parallelism: degree of morsel-driven parallelism the executed plan
            may use (1 = serial, today's behavior).  Under a parallel
            context, counters and buffers are lock-protected so one
            context is shared by all workers; serial contexts skip the
            lock entirely.
        handle: the query's :class:`QueryHandle` (cancellation token +
            deadline), checked at batch boundaries; None (the default)
            costs one ``is None`` test per boundary.
        faults: an armed :class:`~repro.exec.faults.FaultInjector`, or
            None (the default — same single-test cost).
        spill: an armed :class:`~repro.exec.spill.SpillManager`, or None
            (the default).  When armed, pipeline breakers move buffered
            state past :meth:`spill_limit` to temp files instead of
            tripping :class:`OutOfMemoryError` — the budget becomes a
            working-set knob.  Disarmed execution pays one ``is None``
            test per breaker, the same contract as ``handle``/``faults``.
    """

    memory_budget_rows: int | None = None
    rows_produced: int = 0
    start_time: float = field(default_factory=time.perf_counter)
    batch_size: int = DEFAULT_BATCH_SIZE
    adaptive_batch_sizing: bool = True
    min_batch_size: int = MIN_BATCH_SIZE
    buffered_rows: int = 0
    peak_buffered_rows: int = 0
    parallelism: int = 1
    handle: "QueryHandle | None" = None
    faults: "FaultInjector | None" = None
    spill: "SpillManager | None" = None
    #: Pinned append epoch (None until the first table is pinned) and the
    #: per-table snapshot registry — every operator of one query resolves a
    #: table through :meth:`pin`, so they all agree on one immutable prefix
    #: even while writers append (see ``repro.relational.table``).
    epoch: "int | None" = None
    snapshots: dict = field(default_factory=dict, repr=False, compare=False)
    #: ``id(table) -> rows`` bounds from the graph index the plan walks
    #: (:meth:`clamp`); a table is cut to its bound whenever it is pinned.
    extents: dict = field(default_factory=dict, repr=False, compare=False)
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def emit(self, rows: int, op: "Operator") -> None:
        """Count ``rows`` rows emitted downstream by ``op`` (whose label an
        armed fault injector matches against)."""
        if self.handle is not None:
            self.handle.check()
        if self.faults is not None:
            self.faults.on_emit(self, op.cached_label(), rows)
        if self.parallelism > 1:
            with self.lock:
                self.rows_produced += rows
            return
        self.rows_produced += rows

    def buffer(
        self, owner: "Operator | str", suffix: str = "", tracked: bool = True
    ) -> Buffer:
        """Open a :class:`Buffer` accounting handle for buffered state,
        named by ``owner`` and ``suffix`` (see :class:`Buffer`)."""
        return Buffer(self, owner, suffix, tracked)

    def pin(self, table):
        """The query's immutable snapshot of ``table`` (memoized).

        The first pin fixes the query's epoch; every later pin — any
        table, any thread — resolves at that same epoch, so all operators
        observe one cross-table-consistent prefix.  Entry points pre-pin
        the tables a plan names (:func:`pin_plan`) from the driver thread
        before workers start, making worker-side calls lock-free cache
        hits; a table only an operator's run-time path reaches is pinned
        here on first use, at the same epoch and under the same bound.
        """
        snap = self.snapshots.get(id(table))
        if snap is None:
            with self.lock:
                snap = self.snapshots.get(id(table))
                if snap is None:
                    if self.epoch is None:
                        from repro.relational.table import current_epoch

                        self.epoch = current_epoch()
                    snap = table.snapshot_at(self.epoch)
                    bound = self.extents.get(id(table))
                    if bound is not None:
                        snap.clamp(bound)
                    self.snapshots[id(table)] = snap
        return snap

    def clamp(self, extents: dict) -> None:
        """Bound tables (``id(table) -> rows``) to the extents a graph
        index was built over: snapshots already pinned shrink now, later
        pins are cut as they are made.  ``extents`` is shared, not copied.
        """
        for key, snap in self.snapshots.items():
            bound = extents.get(key)
            if bound is not None:
                snap.clamp(bound)
        self.extents = extents if not self.extents else {**self.extents, **extents}

    def spill_limit(self) -> int | None:
        """Tracked rows the *query* may keep resident before spilling.

        None when spilling is disarmed (or armed with neither a threshold
        nor a budget — nothing to degrade toward).  Breakers compare the
        query-wide :attr:`buffered_rows` (not just their own buffer)
        against this limit, so concurrently live breakers share one
        working set instead of claiming a limit each.  The limit never
        exceeds ``memory_budget_rows``: an operator that spills *before*
        growing tracked state past this limit can, by construction, never
        trip the budget's :class:`OutOfMemoryError`.
        """
        spill = self.spill
        if spill is None:
            return None
        threshold = spill.threshold_rows
        budget = self.memory_budget_rows
        if threshold is None:
            return budget
        if budget is None:
            return threshold
        return min(threshold, budget)

    def expansion_batch_size(self, rows_in: int, rows_out: int) -> int:
        """Target chunk size for an expansion with the observed fan-out.

        Expansion operators (adjacency walks, high-multiplicity probes)
        call this with their cumulative input/output row counts; when the
        fan-out exceeds 1 the fixed :attr:`batch_size` target is scaled
        down proportionally (never below :attr:`min_batch_size`) so the
        in-flight chunk a downstream operator must hold stays near one
        "input batch worth" of work.  Chunk boundaries carry no semantics,
        so adaptation never changes results.
        """
        size = self.batch_size
        if not self.adaptive_batch_sizing or rows_in <= 0 or rows_out <= rows_in:
            return size
        shrunk = int(size * rows_in / rows_out)
        if shrunk >= size:
            return size
        # The floor must never *raise* the caller's configured ceiling: a
        # batch_size below min_batch_size is itself the floor.
        return max(min(self.min_batch_size, size), shrunk)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start_time


class QueryResult:
    """The outcome of executing a physical plan.

    A result is its columns: ``data`` is one dense
    :class:`~repro.exec.vector.ColumnarBatch` that shares no buffer with a
    table or an operator.  ``rows`` — tuples of plain Python values, never
    numpy scalars — are built from it on first access and cached; ``len()``
    does not build them.  A result constructed from ``rows`` (the row
    protocol, DDL) derives ``data`` from them on first access instead.
    Either derivation runs once, however many threads ask at the same time.
    """

    __slots__ = (
        "columns",
        "execution_time",
        "rows_produced",
        "peak_buffered_rows",
        "_rows",
        "_data",
        "_lock",
    )

    def __init__(
        self,
        columns: list[str],
        rows: "list[tuple[Any, ...]] | None" = None,
        execution_time: float = 0.0,
        rows_produced: int = 0,
        peak_buffered_rows: int = 0,
        *,
        data: "ColumnarBatch | None" = None,
    ):
        if (rows is None) == (data is None):
            raise TypeError("QueryResult takes exactly one of rows and data")
        self.columns = columns
        self.execution_time = execution_time
        self.rows_produced = rows_produced
        self.peak_buffered_rows = peak_buffered_rows
        self._rows = rows
        self._data = data
        self._lock = threading.Lock()

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        rows = self._rows
        if rows is None:
            with self._lock:
                rows = self._rows
                if rows is None:
                    rows = self._rows = self._data.to_rows()
        return rows

    @property
    def data(self) -> "ColumnarBatch":
        data = self._data
        if data is None:
            with self._lock:
                data = self._data
                if data is None:
                    data = self._data = _from_rows(self._rows, len(self.columns))
        return data

    def __len__(self) -> int:
        data = self._data
        return len(self._rows) if data is None else len(data)

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        """Rows in a canonical order, for order-insensitive comparisons."""
        return sorted(self.rows, key=_sort_key)


def _from_rows(rows: list[tuple], width: int) -> ColumnarBatch:
    """``rows`` as one dense batch; an empty result keeps its ``width``."""
    if rows:
        return ColumnarBatch.from_rows(rows)
    return ColumnarBatch([[] for _ in range(width)], 0)


def _result_data(chunks: list[ColumnarBatch], width: int) -> ColumnarBatch:
    """Dense result chunks as one batch that shares no buffer with a table
    or an operator: stacking copies, and a lone chunk is copied column by
    column (it may be a scan's zero-copy view)."""
    if not chunks:
        return _from_rows([], width)
    if len(chunks) > 1:
        return ColumnarBatch.concat(chunks)
    (only,) = chunks
    return ColumnarBatch([owned(column) for column in only.columns], only.length)


def _sort_key(row: tuple) -> tuple:
    # None sorts before everything; mixed types sort by type name first.
    # NaN is ranked by a flag and then *neutralized*: ``NaN < x`` and
    # ``x < NaN`` are both False, so leaving the NaN in the key would stall
    # the tuple comparison at that element and make canonical order depend
    # on arrival order — which differs between the row and columnar engines.
    return tuple(
        (v is not None, type(v).__name__, v != v, 0.0 if v != v else v)
        for v in row
    )


def close_stream(stream: Any) -> None:
    """Close a batch iterator if it supports it (generators always do).

    Explicit closing is the engine's teardown primitive: it raises
    ``GeneratorExit`` at the suspended yield, which runs every operator's
    ``finally`` block down the pipeline — buffers release, worker crews
    stop — deterministically, instead of whenever GC finalizes the
    abandoned iterator.
    """
    close = getattr(stream, "close", None)
    if close is not None:
        close()


def pin_plan(plan: "Operator", ctx: ExecutionContext) -> None:
    """Pin the tables a physical plan names, before execution starts.

    Each named table's snapshot is registered in ``ctx`` — not every table
    of the mapping: a query pays for the snapshots it reads.  Tables a
    graph index covers are bound to the extents the index build covered
    (:meth:`ExecutionContext.clamp`), so adjacency walks can never step
    past a CSR built over fewer rows — graph plans read structure *and*
    attributes at the index's version, whichever operator pins them.

    Which tables and which extents is a property of the plan, not of the
    query: :func:`_pin_targets` walks the tree once and the result is
    memoized on the plan root, so later executions of the plan — and the
    plan cache's rebound clones, which copy the root's memo — go straight
    to the per-query work, one :meth:`ExecutionContext.pin` per table at
    the query's own epoch.  Rebinding changes literals only, never tables
    or indexes; an index swap bumps the catalog version, which recompiles.

    Run on the driver thread so parallel morsel workers hit the memoized
    registry.
    """
    memo = getattr(plan, "_pin_memo", None)
    if memo is None:
        # Racing first executions compute equal memos; either one may stay.
        memo = plan._pin_memo = _pin_targets(plan)
    tables, extents = memo
    for bounds in extents:
        ctx.clamp(bounds)
    snapshots = ctx.snapshots
    for table in tables:
        if id(table) not in snapshots:
            ctx.pin(table)


def _pin_targets(plan: "Operator") -> tuple[tuple, tuple]:
    """``(tables, extents)`` for :func:`pin_plan`: every table ``plan``
    names, each once, and the ``id(table) -> rows`` extents of each graph
    index it walks.

    Duck-typed: relational operators carry a ``table``; graph operators a
    ``mapping``, the vertex / edge labels they scan or expand to, and
    possibly a graph ``index``.
    """
    seen: set[int] = set()
    tables: dict[int, Any] = {}
    extents: list[dict] = []

    def add(table) -> None:
        tables.setdefault(id(table), table)

    def visit(op) -> None:
        if id(op) in seen:
            return
        seen.add(id(op))
        table = getattr(op, "table", None)
        if table is not None and hasattr(table, "snapshot_at"):
            add(table)
        mapping = getattr(op, "mapping", None)
        if mapping is not None and hasattr(mapping, "vertices"):
            # Every graph operator of a plan carries the same index: its
            # extents are recorded once per plan — not per operator.
            index = getattr(op, "index", None)
            if index is not None and hasattr(index, "extents") and id(index) not in seen:
                seen.add(id(index))
                extents.append(index.extents(mapping))
            for attr in ("label", "to_label"):
                label = getattr(op, attr, None)
                if label is not None:
                    add(mapping.vertex_table(label))
            edge_label = getattr(op, "edge_label", None)
            if edge_label is not None:
                add(mapping.edge_table(edge_label))
            for leg in getattr(op, "legs", ()):
                add(mapping.edge_table(leg.edge_label))
        # SCAN_GRAPH_TABLE bridges the layers without exposing its graph
        # plan through children(); descend explicitly so the graph
        # operators underneath record their index and tables.
        graph_op = getattr(op, "graph_op", None)
        if graph_op is not None:
            visit(graph_op)
        for child in op.children():
            visit(child)

    visit(plan)
    return tuple(tables.values()), tuple(extents)


@contextmanager
def open_plan(
    plan: "Operator",
    memory_budget_rows: int | None = None,
    batch_size: int | None = None,
    columnar: bool = True,
    parallelism: int | None = None,
    timeout: float | None = None,
    handle: QueryHandle | None = None,
    governor: "MemoryGovernor | None" = None,
    faults: Any = None,
    spill: Any = None,
    ctx: ExecutionContext | None = None,
) -> "Iterator[tuple[ExecutionContext, Iterator]]":
    """The one query lifecycle: yields ``(ctx, stream)`` for ``plan``.

    Entering resolves the knobs below into an :class:`ExecutionContext`,
    leases the query's budget, pins its table snapshots and opens the
    operator stream; leaving — however the ``with`` body ends: completion,
    OOM, timeout, cancellation, injected fault, an abandoned consumer —
    closes the stream (running operator ``finally`` blocks, so buffers
    release and worker crews stop), reaps the spill directory and returns
    the lease.  Afterwards ``ctx.buffered_rows`` is zero and no worker
    threads remain.

    * ``columnar`` — the protocol ``stream`` speaks: columnar batches
      (default; row tuples materialize only at the result boundary) or
      row-tuple batches, which run the relational operators' reference
      row bodies (graph operators have one, columnar, body and hand rows
      up through ``repro.exec.operator.to_rows``).  Both produce
      identical rows — the parity suite pins this; the row side is what
      the benchmark oracle and the parity references execute.
    * ``parallelism`` — morsel-driven parallel execution: the plan is
      rewritten (non-destructively, at this call) with exchange operators
      over per-morsel chain clones and pulled with a worker pool of that
      size.  ``None`` reads ``REPRO_PARALLELISM`` (default 1 = serial,
      the byte-for-byte reference behavior).
    * ``timeout`` — per-query deadline in seconds (None reads
      ``REPRO_QUERY_TIMEOUT``); expiry raises :class:`QueryTimeout` at
      the next batch boundary.
    * ``handle`` — a caller-owned :class:`QueryHandle` for cooperative
      cancellation from another thread; overrides ``timeout``.
    * ``governor`` — the :class:`MemoryGovernor` to lease this query's
      budget from (None = the process-global governor, unbounded by
      default, so per-query budget semantics — and the paper's OOM trip
      points — are unchanged).
    * ``faults`` — a :class:`FaultInjector` or spec string (None reads
      ``REPRO_FAULTS``).
    * ``spill`` — out-of-core arming (see
      :func:`~repro.exec.spill.resolve_spill`): ``None`` reads
      ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_THRESHOLD`` (unset = disarmed,
      the default — the paper's OOM trip points stay byte-exact);
      ``False`` disarms regardless of environment; ``True`` / a config /
      a directory string / a threshold int arm it.  Armed, the pipeline
      breakers keep at most ``ctx.spill_limit()`` rows resident per
      buffer and move the rest to per-query temp files.
    * ``ctx`` — a caller-owned :class:`ExecutionContext`; when given, the
      budget/batch/parallelism/handle/faults/spill arguments above are
      ignored in favor of the context's own fields (tests and the serving
      tier use this to observe ``buffered_rows`` after teardown).
    """
    from repro.exec.faults import resolve_faults
    from repro.exec.governor import resolve_governor
    from repro.exec.scheduler import parallelize_plan, resolve_parallelism
    from repro.exec.spill import SpillManager, resolve_spill

    owned_spill: "SpillManager | None" = None
    if ctx is None:
        if handle is None:
            deadline = resolve_timeout(timeout)
            if deadline is not None:
                handle = QueryHandle(deadline)
        ctx = ExecutionContext(
            memory_budget_rows=memory_budget_rows,
            parallelism=resolve_parallelism(parallelism),
            handle=handle,
            faults=resolve_faults(faults),
        )
        if batch_size is not None:
            ctx.batch_size = batch_size
        spill_config = resolve_spill(spill)
        if spill_config is not None:
            owned_spill = SpillManager(spill_config).bind(ctx)
            ctx.spill = owned_spill
    lease = resolve_governor(governor).lease(ctx.memory_budget_rows, label="query")
    stream = None
    try:
        # The lease carries the requested per-query budget through
        # unchanged (a governor admits or denies, it never shrinks), so
        # under the default unbounded governor this assignment is the
        # identity and the paper's OOM trip points are untouched.
        ctx.memory_budget_rows = lease.budget_rows
        # Pin the query's table snapshots before any batch is pulled (and
        # before the morsel grid is laid out), so concurrent appends are
        # invisible for the rest of the query.
        pin_plan(plan, ctx)
        if ctx.parallelism > 1:
            plan = parallelize_plan(plan, ctx.parallelism, ctx.batch_size, ctx=ctx)
        stream = plan.columnar_batches(ctx) if columnar else plan.batches(ctx)
        yield ctx, stream
    finally:
        if stream is not None:
            close_stream(stream)
        if owned_spill is not None:
            owned_spill.close()
        lease.release()


def execute_plan(
    plan: "Operator", *, columnar: bool = True, **lifecycle: Any
) -> QueryResult:
    """Run a physical plan to completion and package the result.

    Takes :func:`open_plan`'s keywords.  The plan is pulled batch by
    batch; the accumulating result is itself a buffer charged against the
    memory budget, row by row (a fully materialized result larger than the
    budget is an OOM, exactly as in the paper's runs).  With spill armed,
    the resident prefix stops at ``ctx.spill_limit()`` and the rest spools
    to a per-query temp file.  The columnar protocol keeps the result as
    columns (:class:`QueryResult` builds rows on first access); the row
    protocol keeps its row tuples.  Either is, as always, the caller's own
    untracked memory once returned.
    """
    with open_plan(plan, columnar=columnar, **lifecycle) as (ctx, stream):
        result_buffer = ctx.buffer("RESULT")
        try:
            # Dense columnar chunks, or row tuples on the row protocol.
            held: list = []
            # Once the resident prefix would exceed the spill limit, every
            # later batch spools to one temp file (columnar batches as
            # typed frames — the serializer's main consumer) and reads
            # back in order after the stream completes.  Once spooling
            # starts it never reverts, so row order is the stream order.
            limit = ctx.spill_limit()
            spool = None
            for batch in stream:
                n = len(batch)
                if spool is not None or (
                    limit is not None and ctx.buffered_rows + n > limit
                ):
                    if spool is None:
                        spool = ctx.spill.create_file("RESULT")
                    if columnar:
                        spool.append_batch(batch)
                    else:
                        spool.append_rows(list(batch))
                    continue
                if columnar:
                    held.append(batch.dense())
                else:
                    held.extend(batch)
                result_buffer.grow(n)
            columns = list(plan.output_columns)
            if columnar:
                if spool is not None:
                    held.extend(spool.read_batches())
                rows, data = None, _result_data(held, len(columns))
            else:
                if spool is not None:
                    for chunk in spool.read_rows():
                        held.extend(chunk)
                rows, data = held, None
            return QueryResult(
                columns,
                rows,
                execution_time=ctx.elapsed,
                rows_produced=ctx.rows_produced,
                peak_buffered_rows=ctx.peak_buffered_rows,
                data=data,
            )
        finally:
            result_buffer.release()
