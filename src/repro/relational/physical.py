"""Relational physical operators on the batched streaming engine.

All operators implement the shared :class:`repro.exec.Operator` protocol
twice: ``columnar_batches(ctx)`` yields columnar chunks (the engine's
path) and ``batches(ctx)`` chunks of row tuples (the reference the
columnar bodies are checked against).  Pipelines stream: scans, filters,
projections and join probes keep only one batch in flight, while genuine
pipeline breakers (hash builds, sort/aggregate/distinct state) acquire
:class:`repro.exec.Buffer` handles that the memory budget charges.
Columns are identified by qualified names (``alias.column``).

Besides the classic operators (scan, filter, project, hash join, aggregate,
sort, top-k, limit, distinct) this module implements the two
**predefined-join** operators that GRainDB contributes (Sec 3.2.1 of the
paper).  ``HashJoin``'s columnar body is the shared build / probe of
:mod:`repro.exec.kernels` (the graph ``PatternHashJoin`` calls the same
two); on zero keys it is also the cross and theta join, so there is no
nested-loop operator.  The predefined joins:

* :class:`RowIdJoin` — follows an EV-index pointer column (an edge tuple's
  stored rowid of its endpoint tuple) and fetches the vertex row by position,
  skipping hash-table build and probe entirely.
* :class:`CsrJoin` — follows the VE-index (CSR adjacency) from a vertex row's
  rowid to all joinable edge rows.

Scans can emit a hidden ``alias._rowid`` column and EV-index pointer columns
so that downstream predefined joins have something to follow; the planner
decides when to request them.

No operator here branches on numpy.  The numpy / pure-Python split lives in
the :mod:`repro.exec.vector` primitives (``take``, ``passing``,
``valid_rowids``, ...) and the :mod:`repro.exec.kernels` bodies built from
them; ``CsrJoin``'s columnar body is :func:`repro.exec.kernels.expand_columnar`,
the one CSR expansion the graph ``EXPAND`` / ``EXPAND_EDGE`` run too.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import threading
from typing import Any, Iterator, Sequence

from repro.errors import PlanError
from repro.exec import ordering
from repro.exec.context import Buffer, ExecutionContext, close_stream
from repro.exec.kernels import (
    ChunkSizer,
    build_hash_table,
    build_hash_table_columnar,
    chunk_columnar,
    chunked,
    emit_batches,
    emit_columnar,
    expand_columnar,
    filter_batches,
    filter_columnar,
    grace_hash_join,
    map_batches,
    merge_hash_tables,
    probe_hash_table,
    probe_hash_table_columnar,
    rows_to_columnar,
    scalar_key,
    tuple_key,
)
from repro.exec.grouping import (
    GroupedAggregation,
    StreamingDistinct,
    canonical_row,
    make_accumulator,
)
from repro.exec.operator import Batch, Operator, to_rows
from repro.exec.scheduler import fold_source, morsel_bounds, spill_partition_count
from repro.exec.spill import PartitionWriter, spill_hash
from repro.exec.vector import (
    ColumnarBatch,
    as_values,
    index_vector,
    passing,
    take,
    valid_rowids,
    vector_view,
)
from repro.relational.expr import (
    ColumnRef,
    Expr,
    _resolve_layout,
    compile_expr,
    compile_expr_columnar,
    compile_predicate,
    compile_predicate_columnar,
    rowid_mask,
    rowid_predicate,
)
from repro.relational.logical import AggregateSpec
from repro.relational.table import Table

ROWID_COLUMN = "_rowid"


class PhysicalOperator(Operator):
    """Base class; subclasses set ``output_columns`` in ``__init__``."""

    output_columns: list[str]

    def layout(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.output_columns)}


def _column_indices(
    exprs: list[tuple["Expr", str]], columns: Sequence[str]
) -> list[int] | None:
    """Source indices when every projection expression is a plain column
    reference; None when any expression needs real evaluation."""
    from repro.relational.expr import ColumnRef

    indices: list[int] = []
    for expr, _ in exprs:
        if not isinstance(expr, ColumnRef):
            return None
        try:
            indices.append(_resolve(columns, expr.name))
        except PlanError:
            return None
    return indices


def _plain_ref_index(expr: "Expr", columns: Sequence[str]) -> int | None:
    """Index of ``expr`` among ``columns`` when it is a plain column
    reference; None when it is computed or unresolvable (callers then use
    the generic evaluator path)."""
    from repro.relational.expr import ColumnRef

    if not isinstance(expr, ColumnRef):
        return None
    try:
        return _resolve(columns, expr.name)
    except PlanError:
        return None


def _resolve(columns: Sequence[str], name: str) -> int:
    """Index of ``name`` among ``columns``; tolerates unqualified names."""
    try:
        return list(columns).index(name)
    except ValueError:
        pass
    tail_matches = [i for i, c in enumerate(columns) if c.rsplit(".", 1)[-1] == name]
    if len(tail_matches) == 1:
        return tail_matches[0]
    raise PlanError(f"cannot resolve column {name!r} among {list(columns)}")


class SeqScan(PhysicalOperator):
    """Chunked scan of a base table with optional inline filter/projection.

    Args:
        table: the table to scan.
        alias: qualifier for output column names.
        predicate: pushed-down filter over the table's (unqualified or
            alias-qualified) columns.
        projected: unqualified column names to emit; None emits all.
        emit_rowid: additionally emit ``alias._rowid`` (physical position),
            enabling downstream predefined joins.
        pointer_columns: extra ``(name, values)`` pairs appended to the
            output — the EV-index rowid pointer columns of an edge table.

    The scan evaluates its predicate chunk by chunk, so a ``LIMIT`` above
    only pays for the prefix of the table it actually pulls.

    ``row_range`` restricts the scan to a contiguous ``(start, stop)``
    slice of the table — the morsel-driven scheduler clones the scan once
    per morsel.  Rowids, pointer columns and predicates are unaffected
    (they are addressed in the table's global row space).
    """

    #: Optional ``(start, stop)`` morsel bounds; None scans the full table.
    row_range: tuple[int, int] | None = None

    def __init__(
        self,
        table: Table,
        alias: str,
        predicate: Expr | None = None,
        projected: list[str] | None = None,
        emit_rowid: bool = False,
        pointer_columns: list[tuple[str, list[int]]] | None = None,
    ):
        self.table = table
        self.alias = alias
        self.predicate = predicate
        self.projected = (
            projected if projected is not None else table.schema.column_names
        )
        self.emit_rowid = emit_rowid
        self.pointer_columns = pointer_columns or []
        self._pointer_views: dict = {}
        self.output_columns = [f"{alias}.{c}" for c in self.projected]
        if emit_rowid:
            self.output_columns.append(f"{alias}.{ROWID_COLUMN}")
        self.output_columns.extend(name for name, _ in self.pointer_columns)

    def _base_layout(self) -> dict[str, int]:
        """Layout of the full base row (unqualified and alias-qualified)."""
        base_layout: dict[str, int] = {}
        for i, c in enumerate(self.table.schema.column_names):
            base_layout[c] = i
            base_layout[f"{self.alias}.{c}"] = i
        return base_layout

    def _output_column_storage(self, snap) -> list:
        """The output columns as shared base-table storage (zero copy when
        numpy is off; the snapshot's vectorized views otherwise).
        Pointer-column views are memoized per operator so repeated
        executions of one plan never re-copy the EV arrays."""
        from repro.exec.vector import cached_vector

        out: list = [snap.vector(c) for c in self.projected]
        if self.emit_rowid:
            out.append(index_vector(snap.num_rows))
        out.extend(
            cached_vector(self._pointer_views, name, values)
            for name, values in self.pointer_columns
        )
        return out

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._scan_columnar(ctx))

    def _scan_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Zero-copy chunked scan: every batch shares the table's column
        lists; only the selection vector (a range, or the surviving rowids
        after the pushed-down filter) is per-chunk state."""
        size = ctx.batch_size
        snap = ctx.pin(self.table)
        n = snap.num_rows
        first, last = morsel_bounds(self.row_range, n)
        out_columns = self._output_column_storage(snap)
        if self.predicate is None:
            for start in range(first, last, size):
                yield ColumnarBatch(
                    out_columns, n, range(start, min(start + size, last))
                )
            return
        selector = compile_predicate_columnar(self.predicate, self._base_layout())
        base_columns = [snap.vector(c) for c in self.table.schema.column_names]
        for start in range(first, last, size):
            chunk = range(start, min(start + size, last))
            # A chunk spanning the whole table evaluates as
            # ``selection=None`` — full-column compares, no index gather.
            sel = selector(base_columns, None if len(chunk) == n else chunk, n)
            if sel is None or len(sel):
                yield ColumnarBatch(out_columns, n, chunk if sel is None else sel)

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._scan(ctx))

    def _scan(self, ctx: ExecutionContext) -> Iterator[Batch]:
        size = ctx.batch_size
        n = ctx.pin(self.table).num_rows
        first, last = morsel_bounds(self.row_range, n)
        columns = [self.table.column(c) for c in self.projected]
        extras: list[list[Any]] = [values for _, values in self.pointer_columns]
        pred = None
        all_columns: list[list[Any]] = []
        if self.predicate is not None:
            # Evaluate the predicate against the full base row, then project;
            # the predicate may reference non-projected columns.
            pred = compile_predicate(self.predicate, self._base_layout())
            all_columns = [
                self.table.column(c) for c in self.table.schema.column_names
            ]
        for start in range(first, last, size):
            stop = min(start + size, last)
            if pred is None:
                # Assemble column-at-a-time, then zip into rows at C speed.
                parts: list = [c[start:stop] for c in columns]
                if self.emit_rowid:
                    parts.append(range(start, stop))
                parts.extend(e[start:stop] for e in extras)
                yield list(zip(*parts)) if parts else [()] * (stop - start)
                continue
            rows = zip(*(c[start:stop] for c in all_columns))
            rowids = [start + i for i, row in enumerate(rows) if pred(row)]
            if not rowids:
                continue
            parts = [[c[i] for i in rowids] for c in columns]
            if self.emit_rowid:
                parts.append(rowids)
            parts.extend([e[i] for i in rowids] for e in extras)
            yield list(zip(*parts)) if parts else [()] * len(rowids)

    def _label(self) -> str:
        pred = f" ({self.predicate})" if self.predicate is not None else ""
        return f"SCAN_TABLE {self.table.schema.name} as {self.alias}{pred}"


class FilterOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, predicate: Expr):
        self.child = child
        self.predicate = predicate
        self.output_columns = list(child.output_columns)

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        pred = compile_predicate(self.predicate, self.child.layout())
        return emit_batches(ctx, self, filter_batches(self.child.batches(ctx), pred))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        # Selection-vector refinement: no rows move, no closures per row.
        selector = compile_predicate_columnar(self.predicate, self.child.layout())
        return emit_columnar(
            ctx, self, filter_columnar(self.child.columnar_batches(ctx), selector)
        )

    def _label(self) -> str:
        return f"SELECTION ({self.predicate})"


class ProjectOp(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, exprs: list[tuple[Expr, str]]):
        self.child = child
        self.exprs = exprs
        self.output_columns = [alias for _, alias in exprs]

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        layout = self.child.layout()
        indices = _column_indices(self.exprs, self.child.output_columns)
        if indices is not None:
            # Rename-only projection: gather via a C-level itemgetter.
            if len(indices) == 1:
                i0 = indices[0]
                transform = lambda batch: [(row[i0],) for row in batch]  # noqa: E731
            else:
                getter = operator.itemgetter(*indices)
                transform = lambda batch: list(map(getter, batch))  # noqa: E731
        else:
            evaluators = [compile_expr(e, layout) for e, _ in self.exprs]
            transform = lambda batch: [  # noqa: E731
                tuple(ev(row) for ev in evaluators) for row in batch
            ]
        return emit_batches(ctx, self, map_batches(self.child.batches(ctx), transform))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._project_columnar(ctx))

    def _project_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        layout = self.child.layout()
        indices = _column_indices(self.exprs, self.child.output_columns)
        source = self.child.columnar_batches(ctx)
        if indices is not None:
            # Rename-only projection: reorder shared column references and
            # keep the selection vector — a true zero-copy gather.
            for cb in source:
                yield ColumnarBatch(
                    [cb.columns[i] for i in indices], cb.length, cb.selection
                )
            return
        evaluators = [compile_expr_columnar(e, layout) for e, _ in self.exprs]
        for cb in source:
            columns = [ev(cb.columns, cb.selection, cb.length) for ev in evaluators]
            yield ColumnarBatch(columns, len(cb), None)

    def _label(self) -> str:
        return "PROJECTION " + ", ".join(a for _, a in self.exprs)


class HashJoin(PhysicalOperator):
    """Inner equi-join: build a hash table on the right, probe with the left.

    The build side is the only buffered state (charged against the memory
    budget); probe output streams in re-chunked batches.  With no key
    columns every row hashes to the one key ``()``: a cross product the
    ``residual`` filters, which is how joins without an equi conjunct run.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: list[str],
        right_keys: list[str],
        residual: Expr | None = None,
    ):
        if len(left_keys) != len(right_keys):
            raise PlanError("hash join needs key lists of matching length")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.output_columns = list(left.output_columns) + list(right.output_columns)

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def _key_indices(self) -> tuple[list[int], list[int]]:
        l_idx = [_resolve(self.left.output_columns, k) for k in self.left_keys]
        r_idx = [_resolve(self.right.output_columns, k) for k in self.right_keys]
        return l_idx, r_idx

    def _row_keys(self):
        """(build, probe) row-key functions of the row body and the grace join."""
        l_idx, r_idx = self._key_indices()
        if len(r_idx) == 1:
            return scalar_key(r_idx[0]), scalar_key(l_idx[0])
        return tuple_key(r_idx), tuple_key(l_idx)

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        build_key, probe_key = self._row_keys()
        buffer = ctx.buffer(self, " build")
        try:
            if ctx.spill_limit() is not None:
                probe = grace_hash_join(
                    self.right.batches(ctx),
                    self.left.batches(ctx),
                    build_key,
                    probe_key,
                    buffer,
                    ctx,
                    self._label(),
                )
            else:
                table = build_hash_table(
                    self.right.batches(ctx), build_key, buffer
                )
                probe = probe_hash_table(
                    self.left.batches(ctx), table, probe_key, ctx.batch_size
                )
            if self.residual is None:
                yield from probe
                return
            pred = compile_predicate(self.residual, self.layout())
            yield from filter_batches(probe, pred)
        finally:
            buffer.release()

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        l_idx, r_idx = self._key_indices()
        buffer = ctx.buffer(self, " build")
        try:
            if ctx.spill_limit() is not None:
                # Out-of-core joins cross the rows boundary at the grace
                # kernel only (it partitions and pickles row tuples); the
                # exchange's merged stream serves parallel builds, so
                # partitions spill once, not per worker shard.
                build_key, probe_key = self._row_keys()
                probe = rows_to_columnar(
                    grace_hash_join(
                        to_rows(self.right.columnar_batches(ctx)),
                        to_rows(self.left.columnar_batches(ctx)),
                        build_key,
                        probe_key,
                        buffer,
                        ctx,
                        self._label(),
                    )
                )
            else:
                table = self._build_columnar(ctx, r_idx, buffer)
                probe = probe_hash_table_columnar(
                    self.left.columnar_batches(ctx), table, l_idx, ctx
                )
            if self.residual is not None:
                pred = compile_predicate_columnar(self.residual, self.layout())
                probe = filter_columnar(probe, pred)
            yield from probe
        finally:
            buffer.release()

    def _build_columnar(self, ctx: ExecutionContext, r_idx, buffer):
        """Drain the build side into the hash table.

        When the build child is a morsel exchange under a parallel context,
        each worker builds a private shard from its morsels and the shards
        merge in morsel order, so probe output is identical to a serial
        build.  Every worker charges the same shared (lock-protected)
        buffer: shards are disjoint, so the cumulative charge — and the OOM
        trip point — matches serial execution exactly.
        """
        exchange = fold_source(self.right, ctx)
        if exchange is None:
            return build_hash_table_columnar(
                self.right.columnar_batches(ctx), r_idx, buffer
            )
        return merge_hash_tables(
            exchange.fold(
                ctx,
                "columnar_batches",
                lambda i, stream: build_hash_table_columnar(stream, r_idx, buffer),
            )
        )

    def _label(self) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"HASH_JOIN ({keys})"


class RowIdJoin(PhysicalOperator):
    """GRainDB-style predefined join along an EV-index pointer column.

    For each input row, reads the pointer column (a rowid into ``table``) and
    fetches that row directly — no hash table, no buffered state.  A
    NULL/-1 pointer drops the row (inner-join semantics over a total mapping
    never produces these, but defensive plans may).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        pointer_column: str,
        table: Table,
        alias: str,
        projected: list[str] | None = None,
        predicate: Expr | None = None,
        emit_rowid: bool = False,
    ):
        self.child = child
        self.pointer_column = pointer_column
        self.table = table
        self.alias = alias
        self.projected = (
            projected if projected is not None else table.schema.column_names
        )
        self.predicate = predicate
        self.emit_rowid = emit_rowid
        self.output_columns = list(child.output_columns) + [
            f"{alias}.{c}" for c in self.projected
        ]
        if emit_rowid:
            self.output_columns.append(f"{alias}.{ROWID_COLUMN}")

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Columnar pointer-follow: the pointer column is extracted once per
        batch and the fetched columns are whole-column gathers through it —
        native ndarray fancy-indexing when the table exposes vector views.
        A predicate filters the pointers through its rowid mask."""
        ptr = _resolve(self.child.output_columns, self.pointer_column)
        snap = ctx.pin(self.table)
        columns = [snap.vector(c) for c in self.projected]
        mask = (
            rowid_mask(self.table, self.predicate, snap.num_rows)
            if self.predicate is not None
            else None
        )
        for cb in self.child.columnar_batches(ctx):
            pointers = cb.column_vector(ptr)
            keep = valid_rowids(pointers)
            if keep is not None:
                if not len(keep):
                    continue
                cb, pointers = cb.take(keep), take(pointers, keep)
            if mask is not None:
                kept = passing(mask, pointers)
                if kept is not None:
                    if not len(kept):
                        continue
                    cb, pointers = cb.take(kept), take(pointers, kept)
            fetched = [take(column, pointers) for column in columns]
            if self.emit_rowid:
                fetched.append(pointers)
            out = [cb.column_vector(i) for i in range(cb.width)]
            out.extend(fetched)
            yield ColumnarBatch(out, len(pointers), None)

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        ptr = _resolve(self.child.output_columns, self.pointer_column)
        columns = [self.table.column(c) for c in self.projected]
        check = (
            rowid_predicate(self.table, self.predicate)
            if self.predicate is not None
            else None
        )
        source = self.child.batches(ctx)
        if check is not None and not self.emit_rowid:
            # Evaluate the predicate once per base row (a bitmap over the
            # fetched table), then join with per-batch comprehensions.
            n = ctx.pin(self.table).num_rows
            mask = [check(i) for i in range(n)]
            if len(columns) == 1:
                c0 = columns[0]
                transform = lambda batch: [  # noqa: E731
                    row + (c0[row[ptr]],) for row in batch if mask[row[ptr]]
                ]
            elif len(columns) == 2:
                c0, c1 = columns
                transform = lambda batch: [  # noqa: E731
                    row + (c0[row[ptr]], c1[row[ptr]])
                    for row in batch
                    if mask[row[ptr]]
                ]
            else:
                transform = lambda batch: [  # noqa: E731
                    row + tuple(column[row[ptr]] for column in columns)
                    for row in batch
                    if mask[row[ptr]]
                ]
            yield from map_batches(source, transform)
            return
        # Pointer columns produced by the graph index are total (never NULL),
        # so the common cases vectorize into single comprehensions.
        if check is None and not self.emit_rowid:
            if len(columns) == 1:
                c0 = columns[0]
                transform = lambda batch: [  # noqa: E731
                    row + (c0[row[ptr]],) for row in batch
                ]
            elif len(columns) == 2:
                c0, c1 = columns
                transform = lambda batch: [  # noqa: E731
                    row + (c0[row[ptr]], c1[row[ptr]]) for row in batch
                ]
            else:
                transform = lambda batch: [  # noqa: E731
                    row + tuple(column[row[ptr]] for column in columns)
                    for row in batch
                ]
            yield from map_batches(source, transform)
            return
        for batch in source:
            out: list[tuple] = []
            for row in batch:
                rowid = row[ptr]
                if rowid is None or rowid < 0:
                    continue
                if check is not None and not check(rowid):
                    continue
                fetched = tuple(column[rowid] for column in columns)
                if self.emit_rowid:
                    out.append(row + fetched + (rowid,))
                else:
                    out.append(row + fetched)
            if out:
                yield out

    def _label(self) -> str:
        pred = f" ({self.predicate})" if self.predicate is not None else ""
        return (
            f"ROWID_JOIN {self.pointer_column} -> "
            f"{self.table.schema.name} as {self.alias}{pred}"
        )


class CsrJoin(PhysicalOperator):
    """GRainDB-style predefined join along a VE-index (CSR adjacency).

    For each input row, reads ``vertex_rowid_column`` and expands to every
    adjacent edge rowid recorded in the CSR, fetching edge columns (and the
    EV pointer to the far endpoint, so a subsequent :class:`RowIdJoin` can
    complete the hop).  Expansion output streams in bounded chunks.

    Args:
        csr_offsets / csr_edges: the CSR arrays — edges for vertex ``v`` are
            ``csr_edges[csr_offsets[v]:csr_offsets[v + 1]]``.
        far_pointer: optional ``(name, values)`` — the EV pointer column of
            the edge table toward the far endpoint, emitted per edge.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        vertex_rowid_column: str,
        csr_offsets: list[int],
        csr_edges: list[int],
        edge_table: Table,
        edge_alias: str,
        projected: list[str] | None = None,
        predicate: Expr | None = None,
        far_pointer: tuple[str, list[int]] | None = None,
    ):
        self.child = child
        self.vertex_rowid_column = vertex_rowid_column
        self.csr_offsets = csr_offsets
        self.csr_edges = csr_edges
        self.edge_table = edge_table
        self.edge_alias = edge_alias
        self.projected = (
            projected if projected is not None else edge_table.schema.column_names
        )
        self.predicate = predicate
        self.far_pointer = far_pointer
        self.output_columns = list(child.output_columns) + [
            f"{edge_alias}.{c}" for c in self.projected
        ]
        if far_pointer is not None:
            self.output_columns.append(far_pointer[0])

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Columnar CSR expansion: the kernels' one expansion body
        (:func:`~repro.exec.kernels.expand_columnar`), gathering the
        projected edge columns and the far pointer through the edge rowids.
        Rows whose vertex is NULL drop first, as in the row body; a
        predicate filters the edge rowids through its rowid mask, the way
        graph expansions do."""
        vid = _resolve(self.child.output_columns, self.vertex_rowid_column)
        snap = ctx.pin(self.edge_table)
        gathers = [snap.vector(c) for c in self.projected]
        if self.far_pointer is not None:
            gathers.append(vector_view(self.far_pointer[1]))
        emask = (
            rowid_mask(self.edge_table, self.predicate, snap.num_rows)
            if self.predicate is not None
            else None
        )

        def with_vertex() -> Iterator[ColumnarBatch]:
            for cb in self.child.columnar_batches(ctx):
                keep = valid_rowids(cb.column_vector(vid))
                if keep is None:
                    yield cb
                elif len(keep):
                    yield cb.take(keep)

        yield from expand_columnar(
            with_vertex(),
            ctx,
            vid,
            vector_view(self.csr_offsets),
            vector_view(self.csr_edges),
            gathers,
            emask=emask,
        )

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        vid = _resolve(self.child.output_columns, self.vertex_rowid_column)
        columns = [self.edge_table.column(c) for c in self.projected]
        check = (
            rowid_predicate(self.edge_table, self.predicate)
            if self.predicate is not None
            else None
        )
        far = self.far_pointer[1] if self.far_pointer is not None else None
        offsets, edges = self.csr_offsets, self.csr_edges
        sizer = ChunkSizer(ctx)
        out: list[tuple] = []
        if check is None and far is not None and len(columns) <= 2:
            # Fast paths for the dominant shapes (edge carries at most its
            # two FK columns plus the far pointer); inline comprehensions —
            # this is the predefined-join hot path.  Flushing follows the
            # fan-out-adaptive ChunkSizer contract.
            if len(columns) == 2:
                ca, cb = columns
                for batch in self.child.batches(ctx):
                    carry, flushed = len(out), 0
                    for row in batch:
                        v = row[vid]
                        if v is None:  # this shape used the guarded slow path
                            continue
                        out.extend(
                            [
                                row + (ca[e], cb[e], far[e])
                                for e in edges[offsets[v] : offsets[v + 1]]
                            ]
                        )
                        if len(out) >= sizer.size:
                            flushed += len(out)
                            yield out
                            out = []
                    sizer.observe(len(batch), flushed + len(out) - carry)
            elif columns:
                c0 = columns[0]
                for batch in self.child.batches(ctx):
                    carry, flushed = len(out), 0
                    for row in batch:
                        v = row[vid]
                        out.extend(
                            [
                                row + (c0[e], far[e])
                                for e in edges[offsets[v] : offsets[v + 1]]
                            ]
                        )
                        if len(out) >= sizer.size:
                            flushed += len(out)
                            yield out
                            out = []
                    sizer.observe(len(batch), flushed + len(out) - carry)
            else:
                for batch in self.child.batches(ctx):
                    carry, flushed = len(out), 0
                    for row in batch:
                        v = row[vid]
                        out.extend(
                            [
                                row + (far[e],)
                                for e in edges[offsets[v] : offsets[v + 1]]
                            ]
                        )
                        if len(out) >= sizer.size:
                            flushed += len(out)
                            yield out
                            out = []
                    sizer.observe(len(batch), flushed + len(out) - carry)
            if out:
                yield out
            return
        for batch in self.child.batches(ctx):
            carry, flushed = len(out), 0
            for row in batch:
                v = row[vid]
                if v is None:
                    continue
                for pos in range(offsets[v], offsets[v + 1]):
                    e = edges[pos]
                    if check is not None and not check(e):
                        continue
                    fetched = tuple(column[e] for column in columns)
                    if far is not None:
                        out.append(row + fetched + (far[e],))
                    else:
                        out.append(row + fetched)
                if len(out) >= sizer.size:
                    flushed += len(out)
                    yield out
                    out = []
            sizer.observe(len(batch), flushed + len(out) - carry)
        if out:
            yield out

    def _label(self) -> str:
        return (
            f"CSR_JOIN {self.vertex_rowid_column} -> "
            f"{self.edge_table.schema.name} as {self.edge_alias}"
        )


class _AggSpiller:
    """Hash-partitioned spill routing for out-of-core aggregation.

    Exported :class:`GroupedAggregation` states append as per-partition
    state frames to lazily created spill files (creation is locked so
    parallel fold workers routing to the same partition share one file —
    the frames themselves append under the file's own lock).  Drain
    re-absorbs one partition at a time: every frame of a group key lands
    in the same partition, so a partition's merged engine holds that key's
    complete aggregate.
    """

    __slots__ = ("_ctx", "_label", "num_keys", "funcs", "_parts", "_lock", "files")

    def __init__(self, ctx: ExecutionContext, label: str, num_keys: int, funcs):
        self._ctx = ctx
        self._label = label
        self.num_keys = num_keys
        self.funcs = funcs
        self._parts = spill_partition_count(ctx.parallelism)
        self._lock = threading.Lock()
        self.files: dict[int, Any] = {}

    def _file(self, p: int):
        with self._lock:
            f = self.files.get(p)
            if f is None:
                f = self.files[p] = self._ctx.spill.create_file(
                    f"{self._label} p{p}"
                )
            return f

    def export(self, engine: GroupedAggregation, charged: Buffer) -> None:
        """Move the engine's whole state out to its partitions' files and
        give the ``charged`` buffer the rows back."""
        keys, cells = engine.export_and_reset()
        if not keys:
            return
        parts: dict[int, list[int]] = {}
        P = self._parts
        for g, key in enumerate(keys):
            parts.setdefault(spill_hash(key) % P, []).append(g)
        for p in sorted(parts):
            gids = parts[p]
            self._file(p).append_state(
                [keys[g] for g in gids],
                [[col[g] for g in gids] for col in cells],
            )
        charged.shrink(len(keys))

    def export_groups(self, groups: dict, charged: Buffer) -> None:
        """Row-path export: a ``key tuple -> cells`` dict, re-keyed to the
        engine's frame format (bare values for single-key states)."""
        if not groups:
            return
        single = self.num_keys == 1
        parts: dict[int, tuple[list, list[list]]] = {}
        P = self._parts
        for key, cells in groups.items():
            ek = key[0] if single else key
            p = spill_hash(ek) % P
            entry = parts.get(p)
            if entry is None:
                entry = parts[p] = ([], [[] for _ in self.funcs])
            entry[0].append(ek)
            for i, cell in enumerate(cells):
                entry[1][i].append(cell)
        for p in sorted(parts):
            keys, cells = parts[p]
            self._file(p).append_state(keys, cells)
        charged.shrink(len(groups))
        groups.clear()

    def drain(self, charged: Buffer):
        """Yield one re-merged engine per partition.

        Each engine's groups are charged to ``charged`` while resident;
        the caller shrinks after emitting them.  Files are deleted as
        their partition completes.
        """
        for p in sorted(self.files):
            f = self.files[p]
            engine = GroupedAggregation(self.num_keys, self.funcs)
            for keys, cells in f.read_states():
                before = engine.num_groups
                engine.absorb(keys, cells)
                charged.grow(engine.num_groups - before)
            f.delete()
            yield engine


class AggregateOp(PhysicalOperator):
    """Hash aggregation with O(1) running state per (group, aggregate).

    The buffered state — one cell list per group — is charged per new
    group, so only genuinely wide aggregations trip the memory budget.

    The columnar path runs the factorize + segment-reduction engine of
    :mod:`repro.exec.grouping` (group keys factorized to dense codes,
    COUNT/SUM/AVG/MIN/MAX as NULL-aware segment reductions); the row path
    is the per-row reference it must agree with.  Both canonicalize NaN
    keys so all NaN rows fall into one group (SQL grouping semantics).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: list[tuple[Expr, str]],
        aggregates: list[AggregateSpec],
    ):
        self.child = child
        self.group_by = group_by
        self.aggregates = aggregates
        self.output_columns = [a for _, a in group_by] + [a.alias for a in aggregates]

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _column_getters(self, exprs: list["Expr | None"]):
        """Per-expression batch-column extractors.

        Plain column references read :meth:`ColumnarBatch.column_vector`
        directly so ndarray columns stay in the array domain (the factorize
        / segment-reduction fast paths); computed expressions evaluate to
        dense lists; None (COUNT(*)) passes through.
        """
        layout = self.child.layout()
        getters = []
        for expr in exprs:
            if expr is None:
                getters.append(None)
                continue
            idx = _plain_ref_index(expr, self.child.output_columns)
            if idx is not None:
                getters.append(
                    lambda cb, idx=idx: cb.column_vector(idx)
                )
            else:
                ev = compile_expr_columnar(expr, layout)
                getters.append(
                    lambda cb, ev=ev: ev(cb.columns, cb.selection, cb.length)
                )
        return getters

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Columnar aggregation through the grouping engine: per batch, key
        columns factorize to dense group codes and every aggregate runs as
        a segment reduction, so Python-level work scales with the batch's
        distinct keys.  Output is emitted column-major straight from the
        engine's grouped state — no row-tuple transpose.

        Over a morsel exchange under a parallel context, each worker folds
        its morsels into a private :class:`GroupedAggregation` and the
        partials merge in morsel order (the merge cells are associative;
        see :meth:`GroupedAggregation.merge_from`).  Per-worker partials
        charge untracked buffers — each is a subset of the merged state,
        which this (tracked) buffer charges in full, exactly like serial
        execution.
        """
        key_getters = self._column_getters([e for e, _ in self.group_by])
        arg_getters = self._column_getters([a.arg for a in self.aggregates])
        funcs = [a.func for a in self.aggregates]
        limit = ctx.spill_limit()
        spiller = (
            _AggSpiller(ctx, self._label(), len(key_getters), funcs)
            if limit is not None
            else None
        )

        def consume(engine: GroupedAggregation, stream, partial: Buffer) -> None:
            for cb in stream:
                n = len(cb)
                key_cols = [get(cb) for get in key_getters]
                arg_cols = [
                    get(cb) if get is not None else None for get in arg_getters
                ]
                before = engine.num_groups
                # A batch can open at most n new groups: export the state
                # to its spill partitions *before* the query's tracked
                # working set could pass the limit.
                if spiller is not None and before and ctx.buffered_rows + n > limit:
                    spiller.export(engine, partial)
                    before = 0
                engine.consume(key_cols, arg_cols, n)
                partial.grow(engine.num_groups - before)

        buffer = ctx.buffer(self)
        source = None
        try:
            exchange = fold_source(self.child, ctx)
            if exchange is None:
                engine = GroupedAggregation(len(key_getters), funcs)
                source = self.child.columnar_batches(ctx)
                consume(engine, source, buffer)
            else:

                def run(i: int, stream) -> GroupedAggregation:
                    partial = ctx.buffer(self, " partial", tracked=False)
                    state = GroupedAggregation(len(key_getters), funcs)
                    try:
                        consume(state, stream, partial)
                    finally:
                        partial.release()
                    return state

                engine = GroupedAggregation(len(key_getters), funcs)
                for state in exchange.fold(ctx, "columnar_batches", run):
                    if (
                        spiller is not None
                        and engine.num_groups
                        and ctx.buffered_rows + state.num_groups > limit
                    ):
                        spiller.export(engine, buffer)
                    before = engine.num_groups
                    engine.merge_from(state)
                    buffer.grow(engine.num_groups - before)
            if spiller is not None and spiller.files:
                # Something spilled: push the resident remainder out too and
                # drain partition by partition (each re-absorbed state is
                # charged while resident, then shrunk as it emits).
                spiller.export(engine, buffer)
                size = ctx.batch_size
                for part_engine in spiller.drain(buffer):
                    columns = part_engine.result_columns()
                    total = part_engine.num_groups
                    for start in range(0, total, size):
                        yield ColumnarBatch(
                            columns, total, range(start, min(start + size, total))
                        )
                    buffer.shrink(total)
                return
            engine.ensure_group()
            columns = engine.result_columns()
            total = engine.num_groups
            size = ctx.batch_size
            for start in range(0, total, size):
                yield ColumnarBatch(
                    columns, total, range(start, min(start + size, total))
                )
        finally:
            close_stream(source)
            buffer.release()

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        layout = self.child.layout()
        group_evs = [compile_expr(e, layout) for e, _ in self.group_by]
        agg_evs = [
            compile_expr(a.arg, layout) if a.arg is not None else None
            for a in self.aggregates
        ]
        accumulators = [make_accumulator(a.func) for a in self.aggregates]
        initials = [init for init, _, _ in accumulators]
        updates = [update for _, update, _ in accumulators]
        finals = [final for _, _, final in accumulators]
        buffer = ctx.buffer(self)
        source = self.child.batches(ctx)
        limit = ctx.spill_limit()
        spiller = (
            _AggSpiller(
                ctx, self._label(), len(self.group_by),
                [a.func for a in self.aggregates],
            )
            if limit is not None
            else None
        )
        try:
            groups: dict[tuple, list[Any]] = {}
            for batch in source:
                for row in batch:
                    # canonical_row folds every NaN key into one group —
                    # without it each NaN row would open its own group
                    # (dict identity), contradicting SQL semantics.
                    key = canonical_row(tuple(ev(row) for ev in group_evs))
                    cells = groups.get(key)
                    if cells is None:
                        if spiller is not None and groups and ctx.buffered_rows >= limit:
                            spiller.export_groups(groups, buffer)
                        cells = list(initials)
                        groups[key] = cells
                        buffer.grow(1)
                    for i, ev in enumerate(agg_evs):
                        cells[i] = updates[i](
                            cells[i], ev(row) if ev is not None else 1
                        )
            if spiller is not None and spiller.files:
                spiller.export_groups(groups, buffer)
                size = ctx.batch_size
                for engine in spiller.drain(buffer):
                    out = list(zip(*engine.result_columns()))
                    yield from chunked(out, size)
                    buffer.shrink(engine.num_groups)
                return
            if not groups and not self.group_by:
                groups[()] = list(initials)
            out = [
                key + tuple(final(cell) for final, cell in zip(finals, cells))
                for key, cells in groups.items()
            ]
            yield from chunked(out, ctx.batch_size)
        finally:
            close_stream(source)
            buffer.release()

    def _label(self) -> str:
        return "AGGREGATE " + ", ".join(str(a) for a in self.aggregates)


class _SortKeys:
    """How an ordering operator reads its keys off the child's batches.

    A bare column reference is read in place, in whatever domain the column
    arrives in; a computed key is evaluated per batch into an extra column
    after the child's.  A *keyed* batch is what the operator buffers: dense
    (array domain, nothing outside the visible rows referenced), computed
    keys appended — and stripped again on the way out (:meth:`payload`).
    """

    def __init__(self, keys: list[tuple[Expr, bool]], child: PhysicalOperator):
        layout = child.layout()
        self.width = len(layout)
        self.ascs = [asc for _, asc in keys]
        self.slots: list[int] = []
        self.computed: list = []
        for expr, _ in keys:
            if isinstance(expr, ColumnRef):
                self.slots.append(_resolve_layout(expr.name, layout))
            else:
                self.slots.append(self.width + len(self.computed))
                self.computed.append(compile_expr_columnar(expr, layout))

    def keyed(self, cb: ColumnarBatch) -> ColumnarBatch:
        dense = cb.dense()
        if not self.computed:
            return dense
        extra = [ev(cb.columns, cb.selection, cb.length) for ev in self.computed]
        return ColumnarBatch(dense.columns + extra, dense.length)

    def leading(self, cb: ColumnarBatch) -> Sequence:
        """The first key over a raw batch's visible rows."""
        slot = self.slots[0]
        if slot < self.width:
            return cb.column_vector(slot)
        return self.computed[0](cb.columns, cb.selection, cb.length)

    def of(self, keyed: ColumnarBatch) -> list[tuple[Sequence, bool]]:
        """A keyed batch's ``(key column, asc)`` pairs, as the kernel takes them."""
        return [(keyed.columns[s], asc) for s, asc in zip(self.slots, self.ascs)]

    def payload(self, keyed: ColumnarBatch, selection=None) -> ColumnarBatch:
        return ColumnarBatch(keyed.columns[: self.width], keyed.length, selection)


class SortOp(PhysicalOperator):
    """Full sort — a pipeline breaker whose buffer is charged as it fills."""

    def __init__(self, child: PhysicalOperator, keys: list[tuple[Expr, bool]]):
        self.child = child
        self.keys = keys
        self.output_columns = list(child.output_columns)

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        # The buffered input stays columnar: batches are held dense, one
        # kernel argsort over their concatenated key columns orders them,
        # and the output chunks are selections into the concatenation.
        buffer = ctx.buffer(self)
        source = self.child.columnar_batches(ctx)
        try:
            keys = _SortKeys(self.keys, self.child)
            limit = ctx.spill_limit()
            held: list[ColumnarBatch] = []
            for cb in source:
                if limit is not None and ctx.buffered_rows + len(cb) > limit:
                    # Past the working-set cliff: hand everything buffered
                    # so far (plus the rest of the input) to the external
                    # merge sort, which works on row tuples in the value
                    # domain.  Until this point the armed path is the
                    # disarmed path, so armed-but-under-limit costs only
                    # this comparison per batch.
                    def keyed(first=cb):
                        rest = map(keys.keyed, itertools.chain((first,), source))
                        for later in itertools.chain(held, rest):
                            parts = [as_values(column) for column, _ in keys.of(later)]
                            rows = keys.payload(later).to_rows()
                            yield list(zip(zip(*parts), rows))

                    buffer.shrink(buffer.rows)  # the external sort re-charges
                    for chunk in self._external_sort(ctx, buffer, keyed()):
                        yield ColumnarBatch.from_rows(chunk)
                    return
                if len(cb):
                    held.append(keys.keyed(cb))
                    buffer.grow(len(cb))
            if held:
                merged = ColumnarBatch.concat(held)
                ordered = keys.payload(merged, ordering.argsort(keys.of(merged)))
                yield from chunk_columnar(ordered, ctx.batch_size)
        finally:
            close_stream(source)
            buffer.release()

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        buffer = ctx.buffer(self)
        source = self.child.batches(ctx)
        try:
            layout = self.child.layout()
            limit = ctx.spill_limit()
            rows: list[tuple] = []
            for batch in source:
                if limit is not None and ctx.buffered_rows + len(batch) > limit:
                    # Past the working-set cliff: switch to the external
                    # merge sort, seeding it with the rows buffered so far.
                    # Under the limit the armed path stays byte-for-byte
                    # the disarmed in-memory cascade below.
                    evs = [compile_expr(e, layout) for e, _ in self.keys]

                    def keyed(first=batch):
                        for b in itertools.chain((rows,), (first,), source):
                            yield [
                                (tuple(ev(row) for ev in evs), row) for row in b
                            ]

                    buffer.shrink(len(rows))  # the external sort re-charges
                    yield from self._external_sort(ctx, buffer, keyed())
                    return
                rows.extend(batch)
                buffer.grow(len(batch))
            # Stable multi-key sort: apply keys from least to most significant.
            for expr, ascending in reversed(self.keys):
                ev = compile_expr(expr, layout)
                rows.sort(
                    key=lambda row: _null_safe_key(ev(row)),
                    reverse=not ascending,
                )
            yield from chunked(rows, ctx.batch_size)
        finally:
            close_stream(source)
            buffer.release()

    def _external_sort(
        self, ctx: ExecutionContext, buffer: Buffer, batches
    ) -> Iterator[Batch]:
        """External merge sort with *exact* order parity.

        ``batches`` yields lists of ``(key_values, row)`` pairs in arrival
        order.  Items carry a global arrival counter and sort by their
        fully decorated key — per-component NaN-canonical null-safe keys
        with descending components wrapped (:func:`_spill_decorated`), the
        counter last — which for totally ordered key values is precisely
        the order the in-memory reversed-stable-sort cascade produces.
        Sorted runs flush to spill files whenever the resident buffer
        would pass the working-set limit; the k-way ``heapq.merge`` over
        the runs (plus the final resident run) is then byte-identical to
        the in-memory sort, because every item's decorated key is
        globally unique.

        NaN key values are the one exception: ``heapq.merge`` (and any
        comparison sort) needs a total order, and NaN is incomparable, so
        the decoration canonicalizes it — all NaN keys tie (resolving by
        arrival) and order after every non-NaN value ascending, before
        them descending.  The disarmed in-memory sort leaves NaN
        comparisons to timsort, whose placement of NaN-keyed rows is a
        merge-pattern artifact no run-split can reproduce; the armed
        order is the better-defined of the two.
        """
        manager = ctx.spill
        limit = ctx.spill_limit()
        ascs = [asc for _, asc in self.keys]
        label = self._label()
        size = ctx.batch_size

        def decorate(item):
            return tuple(
                _spill_decorated(v, a) for v, a in zip(item[0], ascs)
            ) + (item[1],)

        runs: list = []
        pending: list = []
        seq = 0

        def flush_run() -> None:
            nonlocal pending
            pending.sort(key=decorate)
            run = manager.create_file(f"{label} run{len(runs)}")
            for start in range(0, len(pending), size):
                run.append_rows(pending[start : start + size])
            runs.append(run)
            buffer.shrink(len(pending))
            pending = []

        for items in batches:
            n = len(items)
            if not n:
                continue
            if pending and ctx.buffered_rows + n > limit:
                flush_run()
            for kv, row in items:
                pending.append((kv, seq, row))
                seq += 1
            buffer.grow(n)
        pending.sort(key=decorate)
        if not runs:
            yield from chunked([item[2] for item in pending], size)
            return

        def run_items(run):
            for frame in run.read_rows():
                yield from frame

        streams = [run_items(run) for run in runs]
        streams.append(iter(pending))
        out: list = []
        for item in heapq.merge(*streams, key=decorate):
            out.append(item[2])
            if len(out) >= size:
                yield out
                out = []
        if out:
            yield out
        for run in runs:
            run.delete()

    def _label(self) -> str:
        keys = ", ".join(f"{e} {'ASC' if asc else 'DESC'}" for e, asc in self.keys)
        return f"SORT {keys}"


def _null_safe_key(value: Any) -> tuple:
    return (value is not None, value if value is not None else 0)




class _Descending:
    """Inverts comparisons so DESC keys fit a smallest-first heap order."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.value == self.value


def _nan_total_key(value: Any) -> tuple:
    """Null-safe key with NaN canonicalized into a total order.

    NaN is incomparable under ``<``, which makes it poison for
    ``heapq.merge`` (heap invariants assume transitivity).  The external
    sort therefore maps every NaN to one sentinel component ordered after
    all non-NaN values, so run sorting and merging see a genuine total
    order.  Only :meth:`SortOp._external_sort` uses this — the disarmed
    in-memory sort keeps :func:`_null_safe_key` byte for byte.
    """
    if value is None:
        return (False, False, 0)
    if isinstance(value, float) and value != value:
        return (True, True, 0.0)
    return (True, False, value)


def _spill_decorated(value: Any, asc: bool):
    """One external-sort key component: NaN-canonical, DESC-wrapped."""
    key = _nan_total_key(value)
    return key if asc else _Descending(key)


class TopKOp(PhysicalOperator):
    """Streaming ``ORDER BY ... LIMIT k``: a bounded top-k selection.

    Instead of sorting (and buffering) the full input, only the best ``k``
    rows seen so far are kept, so the buffered state is O(k); ties resolve
    by arrival order, so the emitted rows are exactly what ``SORT`` +
    ``LIMIT`` would produce.  The columnar path keeps those rows as one
    dense batch and selects through the ordering kernel; the row twin
    decorates candidates into heap-ordered keys and prunes them with
    :func:`heapq.nsmallest` whenever the candidate buffer doubles.
    """

    def __init__(
        self, child: PhysicalOperator, keys: list[tuple[Expr, bool]], limit: int
    ):
        self.child = child
        self.keys = keys
        self.limit = limit
        self.output_columns = list(child.output_columns)

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def _selection_setup(self, k: int):
        """(select, tiebreak, uniform) for the configured key directions."""
        all_asc = all(asc for _, asc in self.keys)
        all_desc = all(not asc for _, asc in self.keys)
        if all_asc or all_desc:
            select = (
                (lambda cands: heapq.nsmallest(k, cands))
                if all_asc
                else (lambda cands: heapq.nlargest(k, cands))
            )
            return select, (1 if all_asc else -1), True
        return (lambda cands: heapq.nsmallest(k, cands)), 1, False

    def _prune_threshold(self, ctx: ExecutionContext, k: int) -> int:
        # Prune once candidates double past k — or sooner when a tighter
        # memory budget is in force, so any LIMIT that fits the budget
        # (k <= budget) streams without tripping it.
        threshold = max(2 * k, ctx.batch_size)
        if ctx.memory_budget_rows is not None:
            threshold = min(threshold, ctx.memory_budget_rows + 1)
        return threshold

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _best(self, parts: list[ColumnarBatch], keys: _SortKeys) -> ColumnarBatch:
        """The ``k`` best rows of keyed batches ``parts``, best first.

        ``parts`` must be in arrival order (each already best-first, or
        raw input): the kernel's selection is stable, so ties go to the
        earlier part and, inside a part, to the earlier row.
        """
        merged = ColumnarBatch.concat(parts)
        return merged.take(ordering.top_k(keys.of(merged), self.limit)).dense()

    def _collect_columnar(
        self, ctx: ExecutionContext, source, buffer: Buffer, keys: _SortKeys
    ) -> "ColumnarBatch | None":
        """Drain ``source`` into its ``k`` best rows (the shared body of
        the serial and per-worker top-k paths): one keyed batch, best
        first — the genuinely buffered state, charged to ``buffer``.

        Once ``k`` rows are held, the first key of the worst of them is an
        **admission bound**: rows of a new batch that cannot order before
        it are dropped straight off the key column, and only the survivors
        are gathered and merged with the held rows.
        """
        k = self.limit
        first, asc = keys.slots[0], keys.ascs[0]
        strict = len(keys.slots) == 1
        best: ColumnarBatch | None = None
        for cb in source:
            if not len(cb):
                continue
            if best is not None and best.length == k:
                bound = best.columns[first][k - 1]
                keep = ordering.admit(keys.leading(cb), asc, bound, strict)
                if keep is not None:
                    if not len(keep):
                        continue
                    cb = cb.take(keep)
            cand = keys.keyed(cb)
            best = self._best([cand] if best is None else [best, cand], keys)
            delta = best.length - buffer.rows
            if delta >= 0:
                buffer.grow(delta)
            else:
                buffer.shrink(-delta)
        return best

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        if self.limit <= 0:
            return
        buffer = ctx.buffer(self)
        source = None
        try:
            keys = _SortKeys(self.keys, self.child)
            exchange = fold_source(self.child, ctx)
            if exchange is None:
                source = self.child.columnar_batches(ctx)
                best = self._collect_columnar(ctx, source, buffer, keys)
            else:
                # Per-worker top-k over the morsel exchange: each worker
                # keeps its own k best (untracked O(k) partials) and one
                # final selection merges them.  Morsels are contiguous
                # input ranges and the fold returns them in morsel order,
                # so the stable merge breaks ties exactly as the serial
                # stream does.
                def run(morsel: int, stream) -> "ColumnarBatch | None":
                    partial = ctx.buffer(self, " partial", tracked=False)
                    try:
                        return self._collect_columnar(ctx, stream, partial, keys)
                    finally:
                        partial.release()

                parts = [
                    part
                    for part in exchange.fold(ctx, "columnar_batches", run)
                    if part is not None
                ]
                best = self._best(parts, keys) if parts else None
                if best is not None:
                    buffer.grow(best.length)
            if best is not None:
                yield from chunk_columnar(keys.payload(best), ctx.batch_size)
        finally:
            close_stream(source)
            buffer.release()

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        k = self.limit
        if k <= 0:
            return
        layout = self.child.layout()
        evs = [(compile_expr(e, layout), asc) for e, asc in self.keys]
        select, tiebreak, uniform = self._selection_setup(k)
        if uniform:
            # Uniform direction: plain comparable key tuples, selected with
            # nsmallest/nlargest.  The arrival counter breaks ties — negated
            # for nlargest so earlier rows still win — and shields rows
            # themselves from ever being compared.
            if len(evs) == 1:
                ev0 = evs[0][0]
                key_of = lambda row: _null_safe_key(ev0(row))  # noqa: E731
            else:
                key_of = lambda row: tuple(  # noqa: E731
                    _null_safe_key(ev(row)) for ev, _ in evs
                )
        else:

            def key_of(row: tuple) -> tuple:
                return tuple(
                    _null_safe_key(ev(row))
                    if asc
                    else _Descending(_null_safe_key(ev(row)))
                    for ev, asc in evs
                )

        threshold = self._prune_threshold(ctx, k)
        buffer = ctx.buffer(self)
        source = self.child.batches(ctx)
        try:
            candidates: list[tuple] = []  # (key, ±arrival, row)
            arrival = 0
            for batch in source:
                for row in batch:
                    candidates.append((key_of(row), tiebreak * arrival, row))
                    arrival += 1
                if len(candidates) >= threshold:
                    candidates = select(candidates)
                # Charge the retained candidates (post-prune); the
                # just-consumed batch is in-flight, not buffered state.
                delta = len(candidates) - buffer.rows
                if delta >= 0:
                    buffer.grow(delta)
                else:
                    buffer.shrink(-delta)
            top = select(candidates)
            yield from chunked([entry[2] for entry in top], ctx.batch_size)
        finally:
            close_stream(source)
            buffer.release()

    def _label(self) -> str:
        keys = ", ".join(f"{e} {'ASC' if asc else 'DESC'}" for e, asc in self.keys)
        return f"TOPK {self.limit} BY {keys}"


class LimitOp(PhysicalOperator):
    """Emit the first ``limit`` rows, then stop pulling from upstream."""

    def __init__(self, child: PhysicalOperator, limit: int):
        self.child = child
        self.limit = limit
        self.output_columns = list(child.output_columns)

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        remaining = self.limit
        if remaining <= 0:
            return
        source = self.child.batches(ctx)
        try:
            for batch in source:
                if len(batch) >= remaining:
                    out = batch[:remaining]
                    ctx.emit(len(out), self)
                    yield out
                    return
                remaining -= len(batch)
                ctx.emit(len(batch), self)
                yield batch
        finally:
            # Covers the satisfied-early return too: upstream breakers see
            # the close (not an eventual GC) and release their buffers now.
            close_stream(source)

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        remaining = self.limit
        if remaining <= 0:
            return
        source = self.child.columnar_batches(ctx)
        try:
            for cb in source:
                n = len(cb)
                if not n:
                    continue
                if n >= remaining:
                    out = cb.head(remaining)
                    ctx.emit(len(out), self)
                    yield out
                    return
                remaining -= n
                ctx.emit(n, self)
                yield cb
        finally:
            close_stream(source)

    def _label(self) -> str:
        return f"LIMIT {self.limit}"


class _DistinctSpiller:
    """Spilled phase of out-of-core DISTINCT.

    At switchover the streamed seen-set exports to per-partition key files
    (those keys were already emitted); every later input row routes — by
    its canonical key's partition — to a pending file, dedup deferred.
    Drain replays one partition at a time: the partition's emitted-keys
    set loads (re-canonicalized, since NaN identity does not survive a
    pickle round-trip), pending rows replay in arrival order, and unseen
    rows emit.  A key's occurrences all land in one partition, so the
    per-partition seen state is complete for its keys.
    """

    __slots__ = ("_ctx", "_label", "_parts", "keys", "pending")

    def __init__(self, ctx: ExecutionContext, label: str):
        self._ctx = ctx
        self._label = label
        self._parts = spill_partition_count(ctx.parallelism)
        self.keys: dict[int, PartitionWriter] = {}
        self.pending: dict[int, PartitionWriter] = {}

    def export_seen(self, seen_keys) -> None:
        manager = self._ctx.spill
        for key in seen_keys:
            p = spill_hash(key) % self._parts
            writer = self.keys.get(p)
            if writer is None:
                writer = self.keys[p] = PartitionWriter(
                    manager, f"{self._label} keys p{p}"
                )
            writer.append(key)

    def route_rows(self, rows) -> None:
        manager = self._ctx.spill
        for row in rows:
            key = canonical_row(row)
            p = spill_hash(key) % self._parts
            writer = self.pending.get(p)
            if writer is None:
                writer = self.pending[p] = PartitionWriter(
                    manager, f"{self._label} pending p{p}"
                )
            writer.append(row)

    def drain_rows(self, buffer: Buffer) -> Iterator[Batch]:
        size = self._ctx.batch_size
        for p in sorted(set(self.keys) | set(self.pending)):
            key_writer = self.keys.pop(p, None)
            pending_writer = self.pending.pop(p, None)
            seen: set[tuple] = set()
            if key_writer is not None:
                for frame in key_writer.drain():
                    seen.update(canonical_row(key) for key in frame)
                key_writer.delete()
            if pending_writer is None:
                continue
            buffer.grow(len(seen))
            charged = len(seen)
            out: list[tuple] = []
            for frame in pending_writer.drain():
                for row in frame:
                    key = canonical_row(row)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(row)
                    if len(out) >= size:
                        buffer.grow(len(out))
                        charged += len(out)
                        yield out
                        out = []
            if out:
                buffer.grow(len(out))
                charged += len(out)
                yield out
            pending_writer.delete()
            buffer.shrink(charged)


class DistinctOp(PhysicalOperator):
    """Streaming dedup; the seen-set is the charged buffered state.

    Keys are NaN-canonical (all-NaN rows dedup together, matching the
    grouping engine and SQL semantics).  The columnar path dedups one
    typed column against a sorted seen-array and anything else against
    the canonical seen-set, row by row
    (:class:`repro.exec.grouping.StreamingDistinct`); survivors are emitted
    as a selection over the input batch — no row materialization.

    Out-of-core: when the seen-set would pass ``ctx.spill_limit()`` the
    operator switches over — exported keys and all later rows go to hash
    partitions on disk (:class:`_DistinctSpiller`) and dedup completes
    partition by partition on drain, so the tracked state never exceeds
    the working-set limit.
    """

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.output_columns = list(child.output_columns)

    def children(self) -> list[Operator]:
        return [self.child]

    def batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return emit_batches(ctx, self, self._stream(ctx))

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        exchange = fold_source(self.child, ctx)
        if exchange is not None:
            yield from self._parallel_columnar(ctx, exchange)
            return
        yield from self._columnar_dedup(ctx, self.child.columnar_batches(ctx))

    def _columnar_dedup(
        self, ctx: ExecutionContext, source: Iterator[ColumnarBatch]
    ) -> Iterator[ColumnarBatch]:
        state = StreamingDistinct()
        buffer = ctx.buffer(self)
        limit = ctx.spill_limit()
        spiller: _DistinctSpiller | None = None
        try:
            for cb in source:
                n = len(cb)
                if spiller is None and limit is not None and ctx.buffered_rows + n > limit:
                    spiller = _DistinctSpiller(ctx, self._label())
                    charged = state.seen_count
                    spiller.export_seen(state.export_keys())
                    buffer.shrink(charged)
                if spiller is not None:
                    spiller.route_rows(cb.to_rows())
                    continue
                columns = [cb.column_vector(i) for i in range(cb.width)]
                kept = state.positions(columns, n)
                if not kept:
                    continue
                buffer.grow(len(kept))
                yield cb if len(kept) == len(cb) else cb.take(kept)
            if spiller is not None:
                for rows in spiller.drain_rows(buffer):
                    yield ColumnarBatch.from_rows(rows)
        finally:
            close_stream(source)
            buffer.release()

    def _parallel_columnar(
        self, ctx: ExecutionContext, exchange
    ) -> Iterator[ColumnarBatch]:
        """Per-worker partial dedup over a morsel exchange — streaming.

        Each morsel subplan is wrapped in a :class:`_PartialDistinct`
        stage, so workers emit only their within-morsel first occurrences
        (compacted) into the exchange's bounded queues; this pass then
        re-dedups the merged stream.  First occurrences across ordered
        morsels are the serial first occurrences, so output rows and order
        match serial execution, and resident survivor state is bounded by
        the exchange's run-ahead window plus the final seen-set — which
        charges this operator's tracked buffer exactly as the serial path
        does (no morsel-count-times-footprint barrier).
        """
        from repro.exec.scheduler import ExchangeOp

        pre = ExchangeOp(
            [_PartialDistinct(plan) for plan in exchange.plans],
            source=exchange.source,
        )
        yield from self._columnar_dedup(ctx, pre.columnar_batches(ctx))

    def _stream(self, ctx: ExecutionContext) -> Iterator[Batch]:
        buffer = ctx.buffer(self)
        source = self.child.batches(ctx)
        limit = ctx.spill_limit()
        spiller: _DistinctSpiller | None = None
        try:
            seen: set[tuple] = set()
            add = seen.add
            for batch in source:
                if spiller is None and limit is not None and ctx.buffered_rows + len(batch) > limit:
                    spiller = _DistinctSpiller(ctx, self._label())
                    # Row-path keys may be the raw row tuples themselves
                    # (clean rows skip canonicalization); canonicalize at
                    # export so partition routing matches drain-time keys.
                    spiller.export_seen(canonical_row(key) for key in seen)
                    buffer.shrink(len(seen))
                    seen = set()
                if spiller is not None:
                    spiller.route_rows(batch)
                    continue
                out: list[tuple] = []
                for row in batch:
                    # Inline NaN probe: clean rows (the overwhelming case)
                    # dedup on the tuple itself, no canonicalization call.
                    key = row
                    for v in row:
                        if v != v:
                            key = canonical_row(row)
                            break
                    if key not in seen:
                        add(key)
                        out.append(row)
                if out:
                    buffer.grow(len(out))
                    yield out
            if spiller is not None:
                yield from spiller.drain_rows(buffer)
        finally:
            close_stream(source)
            buffer.release()

    def _label(self) -> str:
        return "DISTINCT"


class _PartialDistinct(PhysicalOperator):
    """Within-stream dedup stage of the parallel DISTINCT.

    Runs on a worker inside the morsel exchange: emits the child stream's
    first occurrences (compacted, so queued batches never pin full backing
    columns) and nothing else — no emit counting, no buffer charge.  Its
    seen-set is morsel-local in-flight state; the consuming
    :class:`DistinctOp` re-dedups the merged stream and owns the tracked
    (budget-charged) global seen-set.
    """

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.output_columns = list(child.output_columns)

    def children(self) -> list[Operator]:
        return [self.child]

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        state = StreamingDistinct()
        for cb in self.child.columnar_batches(ctx):
            columns = [cb.column_vector(i) for i in range(cb.width)]
            kept = state.positions(columns, len(cb))
            if kept:
                yield cb.take(kept).compact()

    def _label(self) -> str:
        return "DISTINCT(partial)"
