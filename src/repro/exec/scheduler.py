"""Morsel-driven parallel execution: worker pool, exchange, plan rewriter.

The streaming engine's batches are already the natural unit of parallel
work, so parallelism is **morsel-driven** (Leis et al., SIGMOD 2014): a
leaf source (``SeqScan`` row ranges, ``ScanVertex`` / ``EdgeTripleScan``
rowid ranges) splits into contiguous **morsels**, and each morsel is driven
through a clone of the pipeline's non-breaking operator chain on a worker
thread.  Results meet downstream at an :class:`ExchangeOp` — the only new
operator — which merges the per-morsel batch streams.

Design rules that keep parallel results identical to serial execution:

* **Morsels are ordered.**  The exchange emits morsel 0's batches, then
  morsel 1's, and so on; workers run ahead into small bounded queues
  (backpressure keeps in-flight state at a few batches per morsel).  Since
  every streaming operator preserves row order within its input, the
  concatenated stream holds exactly the serial row order — only batch
  *boundaries* move, and chunk boundaries carry no semantics anywhere in
  the engine (the parity suite pins this across batch sizes).
* **The exchange does not emit.**  It is transport, not an operator doing
  row work: ``rows_produced`` totals stay identical to serial execution
  (worker-side operators count as usual, merely from worker threads — the
  context's counters are lock-protected).
* **Breakers merge per-worker partial states.**  ``AggregateOp``,
  ``DistinctOp``, ``TopKOp`` and the ``HashJoin`` build consume an
  exchange child via per-worker partial states (a ``GroupedAggregation``,
  a ``StreamingDistinct`` pre-dedup stage, a candidate heap, a hash-table
  shard) merged **in morsel order**.  Order guarantees after the merge:
  DISTINCT survivors, TopK rows (with ``(morsel, arrival)`` tie tags) and
  hash-probe output are byte-identical to serial execution; grouped
  *aggregation* output is canonically identical (same groups, same
  aggregates) but its emission order may interleave differently — exactly
  as serial output already may across batch sizes, so nothing
  order-sensitive may sit above an unsorted GROUP BY in either mode.
  Partial states charge per-worker *untracked*
  buffers — each partial is a subset of the serial state, so the
  per-buffer budget check still catches blowups without double-counting
  the logical intermediate, which the merged state charges in full.  The
  one exception is the hash-join build, whose partial shards are disjoint:
  they charge the join's shared (tracked) buffer, so the cumulative build
  charge — and the paper's calibrated OOM entries — are byte-identical to
  serial execution.

``parallelize_plan`` rewrites a physical tree at execution time (the
optimizer's plan and its traces are untouched; ``parallelism=1`` executes
the original tree object).  Rewritten nodes are shallow clones, so one
optimized plan can be executed serially and in parallel interchangeably —
and concurrently.
"""

from __future__ import annotations

import copy
import itertools
import queue
import threading
import time
from typing import Callable, Iterator, Sequence

from repro import settings
from repro.exec.operator import Operator

#: How long teardown keeps joining stopped workers before giving up on
#: them (daemon threads; only a non-cooperative body can exceed this).
REAP_GRACE_SECONDS = 5.0

#: Each worker should see a few morsels so the pool load-balances skewed
#: chains, but not so many that per-morsel overhead dominates.
MORSELS_PER_WORKER = 4

#: Bounded run-ahead per morsel stream (batches buffered between a worker
#: and the consuming thread).  Small: backpressure, not buffering, is the
#: contract — streaming state stays budget-invisible like any in-flight
#: batch.
EXCHANGE_QUEUE_DEPTH = 4

_DONE = object()


class _WorkerCrew:
    """Shared worker-pool scaffolding of the exchange's two consumption
    modes (streaming merge and partial-state fold).

    Workers claim ascending subplan indices from one atomic counter (the
    morsel-driven load balancing), the first error from any ``body(i)``
    call is captured for the caller to re-raise, and a cooperative stop
    event ends claiming.  ``body`` may return False to report it was
    cancelled mid-plan (e.g. a queue put abandoned after a stop).
    """

    __slots__ = ("stop", "errors", "threads")

    def __init__(self, count: int, workers: int, name: str, body: Callable):
        self.stop = threading.Event()
        self.errors: list[BaseException] = []
        claim = itertools.count()

        def worker() -> None:
            while not self.stop.is_set():
                i = next(claim)
                if i >= count:
                    return
                try:
                    if body(i) is False:
                        return
                except BaseException as exc:  # noqa: BLE001 — re-raised by caller
                    self.errors.append(exc)
                    self.stop.set()
                    return

        self.threads = [
            threading.Thread(target=worker, name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]

    def start(self) -> None:
        for thread in self.threads:
            thread.start()

    def alive(self) -> bool:
        return any(thread.is_alive() for thread in self.threads)

    def join(self, timeout: float | None = None) -> None:
        for thread in self.threads:
            thread.join(timeout)

    def join_interruptible(self, ctx=None, poll: float = 0.05) -> None:
        """Wait for the crew, staying responsive to errors and deadlines.

        Unlike a bare ``join()``, this loop re-checks after every ``poll``
        interval: a captured worker error ends the wait immediately (the
        caller re-raises it), and the query's cancellation handle — if any
        — is honored in the *calling* thread, so a hung or slow worker can
        never pin the consumer past the query's deadline.
        """
        handle = getattr(ctx, "handle", None)
        while self.alive():
            if self.errors:
                return
            if handle is not None:
                handle.check()
            self.join(poll)

    def stop_and_reap(self, grace: float = REAP_GRACE_SECONDS) -> None:
        """Signal stop and join every worker, bounded by ``grace`` seconds.

        Cooperative workers observe the stop event (or their query
        handle) within a batch and exit; a worker that does not is
        abandoned as a daemon thread rather than blocking teardown
        forever.
        """
        self.stop.set()
        deadline = time.monotonic() + grace
        while self.alive() and time.monotonic() < deadline:
            self.join(0.02)


def resolve_parallelism(value: int | None) -> int:
    """An explicit degree (clamped to >= 1), else ``REPRO_PARALLELISM``."""
    if value is None:
        return settings.current().parallelism
    return max(1, int(value))


def morsel_bounds(
    row_range: "tuple[int, int] | None", num_rows: int
) -> tuple[int, int]:
    """A leaf scan's ``(start, stop)`` bounds: its morsel ``row_range``
    clamped to the table's current size (tables may grow between the
    rewrite and execution), or the full ``[0, num_rows)``.

    The one clamp rule shared by every splittable leaf (``SeqScan``,
    ``ScanVertex``, ``EdgeTripleScan``), row and columnar paths alike.
    """
    if row_range is None:
        return 0, num_rows
    start, stop = row_range
    return min(start, num_rows), min(stop, num_rows)


def morsel_ranges(
    num_rows: int, parallelism: int, batch_size: int
) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` morsels covering ``[0, num_rows)``.

    Morsel boundaries align to ``batch_size`` multiples so worker-side scan
    chunks coincide with the serial scan's chunk grid, and the morsel count
    targets :data:`MORSELS_PER_WORKER` per worker.  A single-range result
    means "not worth splitting" (callers then keep the serial plan).
    """
    if num_rows <= batch_size or parallelism <= 1:
        return [(0, num_rows)]
    target = max(batch_size, -(-num_rows // (parallelism * MORSELS_PER_WORKER)))
    target = -(-target // batch_size) * batch_size  # round up to the grid
    return [
        (start, min(start + target, num_rows))
        for start in range(0, num_rows, target)
    ]


def spill_partition_count(parallelism: int) -> int:
    """Hash-partition fan-out for spilled breaker state.

    Aligned with the exchange's morsel grid (:data:`MORSELS_PER_WORKER`
    morsels per worker) so a future radix-partitioned exchange can map
    spill partitions onto exchange partitions one-to-one, and floored at
    16 so serial spills still split finely enough that one drained
    partition fits comfortably under typical working-set limits.
    """
    return max(16, parallelism * MORSELS_PER_WORKER)


class ExchangeOp(Operator):
    """Merge the batch streams of per-morsel subplans (ordered union).

    Each subplan is one morsel's clone of a leaf-to-breaker operator chain.
    Under a parallel context the subplans run on a worker pool; under a
    serial context (``ctx.parallelism <= 1``) they run inline, one after
    another — same rows, same order, no threads.

    The exchange is transport: it never calls ``ctx.emit`` and holds no
    buffered state beyond the bounded per-morsel run-ahead queues.
    """

    def __init__(self, plans: Sequence[Operator], source: Operator | None = None):
        if not plans:
            raise ValueError("exchange needs at least one subplan")
        self.plans = list(plans)
        #: The leaf the morsels split, named in the label (formatted only
        #: when a label is read).
        self.source = source
        first = self.plans[0]
        columns = getattr(first, "output_columns", None)
        if columns is not None:
            self.output_columns = list(columns)
        output_vars = getattr(first, "output_vars", None)
        if output_vars is not None:
            self.output_vars = list(output_vars)

    def children(self) -> list[Operator]:
        return list(self.plans)

    def layout(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.output_columns)}

    def var_index(self, name: str) -> int:
        return self.plans[0].var_index(name)

    def batches(self, ctx) -> Iterator:
        return self._pull(ctx, "batches")

    def columnar_batches(self, ctx) -> Iterator:
        return self._pull(ctx, "columnar_batches")

    # ------------------------------------------------------------------ #
    # streaming merge
    # ------------------------------------------------------------------ #

    def _pull(self, ctx, protocol: str) -> Iterator:
        from repro.exec.context import close_stream

        plans = self.plans
        workers = min(getattr(ctx, "parallelism", 1), len(plans))
        if workers <= 1:
            for plan in plans:
                stream = getattr(plan, protocol)(ctx)
                try:
                    yield from stream
                finally:
                    close_stream(stream)
            return
        handle = getattr(ctx, "handle", None)
        faults = getattr(ctx, "faults", None)
        label = self.cached_label() if faults is not None else ""
        queues = [queue.Queue(maxsize=EXCHANGE_QUEUE_DEPTH) for _ in plans]

        def put(q: "queue.Queue", item) -> bool:
            while not crew.stop.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def body(i: int):
            # The stream is closed *here*, on the worker that drove it,
            # whether it was exhausted, abandoned on stop, or raised —
            # operator ``finally`` blocks (buffer releases) must not wait
            # for GC.
            q = queues[i]
            stream = getattr(plans[i], protocol)(ctx)
            try:
                for item in stream:
                    if faults is not None:
                        faults.on_exchange(ctx, "put", label)
                    if not put(q, item):
                        return False
                return put(q, _DONE)
            finally:
                close_stream(stream)

        crew = _WorkerCrew(len(plans), workers, "repro-exchange", body)
        crew.start()
        try:
            for q in queues:
                while True:
                    try:
                        item = q.get(timeout=0.05)
                    except queue.Empty:
                        if crew.errors:
                            raise crew.errors[0]
                        if handle is not None:
                            handle.check()
                        if not crew.alive() and q.empty():
                            # All workers exited without a sentinel: only
                            # reachable through cancellation races.
                            return
                        continue
                    if item is _DONE:
                        break
                    if faults is not None:
                        faults.on_exchange(ctx, "get", label)
                    yield item
            if crew.errors:
                raise crew.errors[0]
        finally:
            crew.stop.set()
            deadline = time.monotonic() + REAP_GRACE_SECONDS
            while crew.alive() and time.monotonic() < deadline:
                for q in queues:  # unblock producers stuck on full queues
                    try:
                        while True:
                            q.get_nowait()
                    except queue.Empty:
                        pass
                crew.join(timeout=0.02)

    # ------------------------------------------------------------------ #
    # per-worker folds (parallel pipeline breakers)
    # ------------------------------------------------------------------ #

    def fold(self, ctx, protocol: str, run: Callable) -> list:
        """Run ``run(morsel_index, batch_iterator) -> state`` per subplan.

        Each subplan's stream is consumed entirely on one worker thread
        (morsels are claimed dynamically, so skewed morsels load-balance),
        and the per-morsel states return **in morsel order** — merging
        them left to right preserves every order property that survives
        concatenating the morsels' streams (exact for sharded hash builds
        and tagged top-k candidates; canonical for grouped aggregation,
        whose emission order is batch-boundary-dependent even serially).
        Exceptions from
        any worker (including ``OutOfMemoryError`` from budget charges in
        ``run``) re-raise in the calling thread.  The join is bounded and
        interruptible: it polls for worker errors and the query's
        cancellation handle instead of blocking indefinitely, and
        teardown stops and reaps the crew (with a grace bound) before the
        first error re-raises — one hung worker can no longer pin the
        consumer thread forever, and morsel streams are closed on their
        worker whichever way the fold ends.
        """
        from repro.exec.context import close_stream

        plans = self.plans
        states: list = [None] * len(plans)
        workers = min(getattr(ctx, "parallelism", 1), len(plans))
        faults = getattr(ctx, "faults", None)
        label = self.cached_label() if faults is not None else ""

        def consume(i: int, plan: Operator):
            stream = getattr(plan, protocol)(ctx)
            try:
                if faults is not None:
                    # The fold-mode exchange boundary: one injection point
                    # per morsel, mirroring the streaming merge's put/get.
                    faults.on_exchange(ctx, "fold", label)
                return run(i, stream)
            finally:
                close_stream(stream)

        if workers <= 1:
            for i, plan in enumerate(plans):
                states[i] = consume(i, plan)
            return states

        def body(i: int) -> None:
            states[i] = consume(i, plans[i])

        crew = _WorkerCrew(len(plans), workers, "repro-fold", body)
        crew.start()
        try:
            crew.join_interruptible(ctx)
        finally:
            crew.stop_and_reap()
        if crew.errors:
            raise crew.errors[0]
        return states

    def _label(self) -> str:
        src = f" ({self.source.cached_label()})" if self.source is not None else ""
        return f"EXCHANGE x{len(self.plans)}{src}"


def fold_source(child: Operator, ctx) -> "ExchangeOp | None":
    """``child`` as a fold target when the context is genuinely parallel.

    Pipeline breakers call this to decide between their serial streaming
    path and the per-worker partial-state fold; a serial context (or a
    degenerate single-morsel exchange) always takes the serial path, so
    ``parallelism=1`` behavior is byte-for-byte today's.
    """
    if (
        getattr(ctx, "parallelism", 1) > 1
        and isinstance(child, ExchangeOp)
        and len(child.plans) > 1
    ):
        return child
    return None


# ---------------------------------------------------------------------- #
# plan rewriting
# ---------------------------------------------------------------------- #

_CHILD_ATTRS = ("child", "left", "right", "graph_op")


def _chain_types() -> tuple:
    """Streaming unary operators safe to clone into per-morsel chains.

    Safe means: single ``child`` input, row-order preserving, and no
    cross-batch state beyond per-call locals (``ChunkSizer`` instances are
    created inside each pull of the chain, so clones never share them).
    ``LimitOp`` is deliberately absent — its early exit counts rows
    globally, so it must sit above the exchange, where the ordered merge
    feeds it the serial row order.
    """
    from repro.graph import physical as gph
    from repro.relational import physical as rel

    return (
        rel.FilterOp,
        rel.ProjectOp,
        rel.RowIdJoin,
        rel.CsrJoin,
        gph.ExpandEdge,
        gph.GetVertex,
        gph.Expand,
        gph.ExpandIntersect,
        gph.BranchReduce,
        gph.AllDistinct,
    )


def _leaf_rows(op: Operator, ctx=None) -> int | None:
    """Row count of a morsel-splittable leaf source, else None.

    With a snapshot-pinning context, the count is the leaf's *pinned*
    extent — the morsel grid then covers exactly the rows the scan will
    execute over, so live appends between the rewrite and execution can
    neither leak into a trailing morsel nor skew the grid.
    """
    from repro.graph import physical as gph
    from repro.relational import physical as rel

    def rows(table) -> int:
        if ctx is not None:
            return ctx.pin(table).num_rows
        return table.num_rows

    if getattr(op, "row_range", None) is not None:
        return None  # already a morsel
    if isinstance(op, rel.SeqScan):
        return rows(op.table)
    if isinstance(op, gph.ScanVertex):
        return rows(op.mapping.vertex_table(op.label))
    if isinstance(op, gph.EdgeTripleScan):
        # Without the graph index the scan derives its endpoint-rowid
        # columns at runtime (the EVJoin of Eq. 3); splitting would repeat
        # that whole-table work per morsel, so only index-backed scans split.
        if op.index is not None:
            return rows(op.mapping.edge_table(op.edge_label))
    return None


def parallelize_plan(
    plan: Operator, parallelism: int, batch_size: int, ctx=None
) -> Operator:
    """Rewrite ``plan`` for morsel-driven execution at ``parallelism``.

    Every maximal chain of streaming unary operators over a splittable leaf
    becomes an ordered :class:`ExchangeOp` whose subplans are shallow
    clones of the chain, each over one leaf morsel.  Everything else —
    pipeline breakers, joins, unsplittable leaves — is preserved, with
    children rewritten recursively (nodes on a rewritten path are shallow
    clones; the input tree is never mutated).

    Subtrees inside an **early-exit scope** — below a ``LimitOp``, until a
    full-drain boundary (aggregate, sort, top-k, materialize, or a join's
    build side) resets it — are left serial: parallel workers speculate
    ahead of the consumer, and a satisfied LIMIT would discard that
    run-ahead work, so the serial early exit is strictly better there.

    ``parallelism <= 1`` returns ``plan`` unchanged (same object).
    """
    if parallelism <= 1:
        return plan
    from repro.exec.operator import MaterializeOp
    from repro.relational import physical as rel

    chain_types = _chain_types()
    #: Operators that drain the named child completely before emitting a
    #: single row — an early-exit scope above them cannot save that work,
    #: so the scope resets below these edges.
    full_drain = (rel.AggregateOp, rel.SortOp, rel.TopKOp, MaterializeOp)
    build_side_attrs = {"right"}  # hash and pattern joins drain builds fully

    def rewrite(op: Operator, early_exit: bool) -> Operator:
        if isinstance(op, rel.LimitOp):
            early_exit = True
        if not early_exit:
            chain: list[Operator] = []
            cur = op
            while isinstance(cur, chain_types):
                chain.append(cur)
                cur = cur.child
            num_rows = _leaf_rows(cur, ctx)
            if num_rows is not None:
                ranges = morsel_ranges(num_rows, parallelism, batch_size)
                if len(ranges) > 1:
                    subplans: list[Operator] = []
                    for rng in ranges:
                        sub = copy.copy(cur)
                        sub.row_range = rng
                        for link in reversed(chain):
                            clone = copy.copy(link)
                            clone.child = sub
                            sub = clone
                        subplans.append(sub)
                    return ExchangeOp(subplans, source=cur)
        clone = None
        drains = isinstance(op, full_drain)
        for attr in _CHILD_ATTRS:
            node = getattr(op, attr, None)
            if isinstance(node, Operator):
                child_scope = (
                    False
                    if drains or attr in build_side_attrs
                    else early_exit
                )
                rewritten = rewrite(node, child_scope)
                if rewritten is not node:
                    if clone is None:
                        clone = copy.copy(op)
                    setattr(clone, attr, rewritten)
        return clone if clone is not None else op

    return rewrite(plan, False)


__all__ = [
    "MORSELS_PER_WORKER",
    "EXCHANGE_QUEUE_DEPTH",
    "REAP_GRACE_SECONDS",
    "ExchangeOp",
    "fold_source",
    "morsel_bounds",
    "morsel_ranges",
    "parallelize_plan",
    "resolve_parallelism",
    "spill_partition_count",
]
