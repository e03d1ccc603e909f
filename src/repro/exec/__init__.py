"""The converged batched streaming execution engine.

One operator protocol serves both the relational and the graph physical
layers (the runtime counterpart of the paper's converged optimizer stack):
every operator is pulled through ``columnar_batches(ctx) ->
Iterator[ColumnarBatch]``, taking chunks of ~:data:`DEFAULT_BATCH_SIZE` rows
from its children and yielding chunks downstream (relational operators keep
a second, row-tuple body as the reference; graph operators have one).
Pipelines therefore stream: a ``LIMIT`` stops pulling as soon as it is
satisfied, and only genuine pipeline breakers (hash-join builds, sort
buffers, aggregation state, distinct sets) hold intermediate state — which
is exactly what the memory budget charges.

* :mod:`repro.exec.context` — :class:`ExecutionContext` (budget, counters),
  :class:`Buffer` accounting handles, :class:`QueryResult`,
  :func:`open_plan` (the one query lifecycle) and :func:`execute_plan`.
* :mod:`repro.exec.operator` — the :class:`Operator` protocol shared by
  ``relational.physical`` and ``graph.physical``, the one rows boundary
  adapter (``to_rows``), plus the :class:`MaterializeOp` columnar spool
  used to model naive fully-materializing engines.
* :mod:`repro.exec.kernels` — the shared filter / project / hash-build /
  probe / expand kernels both operator families are built from, in row and
  columnar flavours, and the pair-key intersect kernel behind
  EXPAND_INTERSECT.
* :mod:`repro.exec.vector` — :class:`ColumnarBatch`, the struct-of-arrays
  chunk with selection vector that the vectorized kernels flow, with
  optional numpy-accelerated gather.
* :mod:`repro.exec.ordering` — the ordering kernel: sort keys of any
  column type as order-preserving integer rank vectors (``None`` first,
  NaN last, stable), with ``argsort`` and a bounded ``top_k`` behind
  ``SortOp`` / ``TopKOp``.
* :mod:`repro.exec.grouping` — the grouping engine: NaN-canonical grouping
  /dedup keys, the factorize + segment-reduction pipeline behind
  ``AggregateOp`` (``GroupedAggregation``) and the typed / seen-set dedup
  states behind ``DistinctOp`` (``StreamingDistinct``) — one algorithm
  each, numpy on or off.
* :mod:`repro.exec.scheduler` — morsel-driven parallel execution: the
  worker pool, the ordered :class:`ExchangeOp` merge, per-worker partial
  state folds for pipeline breakers, and the plan rewriter
  (:func:`parallelize_plan`, driven by ``REPRO_PARALLELISM`` /
  ``RelGoConfig.parallelism``; ``parallelism=1`` preserves serial
  execution byte for byte).
* :mod:`repro.exec.governor` — :class:`MemoryGovernor`, the process-level
  pool concurrent queries lease their per-query budgets from (default:
  unbounded — single-query semantics and the paper's OOM trip points are
  untouched).
* :mod:`repro.exec.faults` — the fault-injection harness
  (:class:`FaultInjector`, armed via ``REPRO_FAULTS``): deliberate
  errors/OOMs/delays/cancellations/disk faults at emit/grow/exchange/spill
  boundaries, used by the fault-matrix tests and the CI chaos leg to
  exercise unwind paths.
* :mod:`repro.exec.spill` — spill-to-disk out-of-core execution
  (:class:`SpillManager`, armed via ``RelGoConfig.spill`` /
  ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_THRESHOLD``): the buffering pipeline
  breakers degrade to partitioned disk state instead of tripping the
  budget OOM.  Disarmed by default — the paper's OOM trip points stay
  byte-exact.

The query lifecycle layer lives in :mod:`repro.exec.context`:
:class:`QueryHandle` (cooperative cancellation token + deadline, checked
at batch boundaries — ``REPRO_QUERY_TIMEOUT`` / ``execute_plan(timeout=)``)
raises :class:`~repro.errors.QueryTimeout` / ``QueryCancelled``, and
teardown is deterministic — streams are explicitly closed so operator
``finally`` blocks release every buffer whichever way a query ends.
"""

from repro.exec.context import (
    DEFAULT_BATCH_SIZE,
    MIN_BATCH_SIZE,
    Buffer,
    ExecutionContext,
    QueryHandle,
    QueryResult,
    close_stream,
    execute_plan,
    open_plan,
    resolve_timeout,
)
from repro.exec.faults import (
    Fault,
    FaultInjector,
    parse_faults,
    plan_boundaries,
    resolve_faults,
)
from repro.exec.governor import (
    MemoryGovernor,
    MemoryLease,
    global_governor,
    resolve_governor,
    set_global_governor,
)
from repro.exec.operator import MaterializeOp, Operator
from repro.exec.scheduler import (
    ExchangeOp,
    morsel_ranges,
    parallelize_plan,
)
from repro.exec.spill import SpillConfig, SpillManager, resolve_spill
from repro.exec.vector import (
    ColumnarBatch,
    numpy_available,
    numpy_enabled,
    set_numpy_enabled,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "MIN_BATCH_SIZE",
    "Buffer",
    "ExecutionContext",
    "QueryHandle",
    "QueryResult",
    "close_stream",
    "execute_plan",
    "open_plan",
    "resolve_timeout",
    "Fault",
    "FaultInjector",
    "parse_faults",
    "plan_boundaries",
    "resolve_faults",
    "MemoryGovernor",
    "MemoryLease",
    "global_governor",
    "resolve_governor",
    "set_global_governor",
    "Operator",
    "MaterializeOp",
    "ExchangeOp",
    "morsel_ranges",
    "parallelize_plan",
    "SpillConfig",
    "SpillManager",
    "resolve_spill",
    "ColumnarBatch",
    "numpy_available",
    "numpy_enabled",
    "set_numpy_enabled",
]
