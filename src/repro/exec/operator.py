"""The shared operator protocol of the converged execution engine.

Both operator families — ``repro.relational.physical.PhysicalOperator`` and
``repro.graph.physical.GraphOperator`` — subclass :class:`Operator` and
speak two pull protocols:

* :meth:`Operator.batches` yields chunks of row tuples (the original
  streaming protocol, kept as the compatibility/reference path);
* :meth:`Operator.columnar_batches` yields
  :class:`~repro.exec.vector.ColumnarBatch` chunks — the vectorized path.
  The default implementation adapts any row-protocol operator by
  transposing its batches, so a columnar pipeline can sit on top of an
  unported operator; ported operators override it with genuinely
  column-at-a-time kernels.

Because batches are pulled lazily under both protocols, downstream
operators control how much upstream work happens: a satisfied ``LIMIT``
simply stops iterating and the whole upstream pipeline halts.

:meth:`Operator.execute` is the materializing compatibility entry point
(tests and ad-hoc callers); it drains :meth:`batches` into one list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.exec.vector import ColumnarBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.context import ExecutionContext

Batch = list  # a chunk of row tuples


class Operator:
    """Base class of all physical operators (relational and graph)."""

    def batches(self, ctx: "ExecutionContext") -> Iterator[Batch]:
        """Yield the operator's output as chunks of row tuples."""
        raise NotImplementedError(f"{type(self).__name__} does not implement batches()")

    def columnar_batches(self, ctx: "ExecutionContext") -> Iterator[ColumnarBatch]:
        """Yield the operator's output as columnar chunks.

        The default is the row-protocol boundary: it transposes
        :meth:`batches` output, so an unported operator (and its subtree,
        which it pulls through the row protocol) keeps exact row-level
        semantics inside a columnar pipeline.
        """
        from repro.exec.kernels import rows_to_columnar

        return rows_to_columnar(self.batches(ctx))

    def execute(self, ctx: "ExecutionContext") -> list[tuple]:
        """Materialize the full output (compatibility/testing entry point)."""
        rows: list[tuple] = []
        for batch in self.batches(ctx):
            rows.extend(batch)
        return rows

    def children(self) -> list["Operator"]:
        return []

    def cached_label(self) -> str:
        """Memoized :meth:`_label`.

        Labels can stringify whole predicate trees; the emit wrappers ask
        for them on every execution, so the text is computed once per
        operator instance (operators are immutable after construction).
        """
        cached = getattr(self, "_label_text", None)
        if cached is None:
            cached = self._label()
            self._label_text = cached
        return cached

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self._label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


class MaterializeOp(Operator):
    """Pipeline breaker: fully buffers the child's output before emitting.

    This is how the pre-streaming engine behaved at *every* operator
    boundary.  It remains in two roles:

    * modelling naive tuple-materializing engines (the Kùzu-like baseline
      materializes each traversal step, which is what blows its memory
      budget on cyclic queries — the paper's Kùzu OOM entries);
    * as the "before" engine in executor microbenchmarks
      (``benchmarks/bench_exec_streaming.py``).

    The buffered rows are charged against the memory budget.
    """

    def __init__(self, child: Operator):
        self.child = child
        columns = getattr(child, "output_columns", None)
        if columns is not None:
            self.output_columns = list(columns)
        output_vars = getattr(child, "output_vars", None)
        if output_vars is not None:
            self.output_vars = list(output_vars)

    def children(self) -> list[Operator]:
        return [self.child]

    def var_index(self, name: str) -> int:
        return self.child.var_index(name)

    def layout(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.output_columns)}

    def batches(self, ctx: "ExecutionContext") -> Iterator[Batch]:
        from repro.exec.context import close_stream

        buffer = ctx.buffer(self._label())
        source = self.child.batches(ctx)
        spool = None
        try:
            limit = ctx.spill_limit()
            rows: list[tuple] = []
            for batch in source:
                if spool is not None or (
                    limit is not None and ctx.buffered_rows + len(batch) > limit
                ):
                    # Out-of-core: past the working-set limit the remainder
                    # spools to disk (never reverting to memory, so arrival
                    # order is preserved: resident prefix, then the spool).
                    if spool is None:
                        spool = ctx.spill.create_file(self._label())
                    spool.append_rows(list(batch))
                    continue
                rows.extend(batch)
                buffer.grow(len(batch))
            size = ctx.batch_size
            for start in range(0, len(rows), size):
                batch = rows[start : start + size]
                ctx.emit(len(batch), self._label())
                yield batch
            if spool is not None:
                pending: list[tuple] = []
                for frame in spool.read_rows():
                    pending.extend(frame)
                    while len(pending) >= size:
                        chunk = pending[:size]
                        del pending[:size]
                        ctx.emit(len(chunk), self._label())
                        yield chunk
                if pending:
                    ctx.emit(len(pending), self._label())
                    yield pending
                spool.delete()
        finally:
            close_stream(source)
            buffer.release()

    def _label(self) -> str:
        return "MATERIALIZE"


_CHILD_ATTRS = ("child", "left", "right", "graph_op")


def materialize_plan(op: Operator) -> Operator:
    """Wrap every operator of a plan in :class:`MaterializeOp` (in place).

    Reproduces the pre-streaming engine's execution profile — every
    intermediate fully materialized and charged — for before/after
    comparisons.  The tree is mutated; apply only to plans built for this
    purpose.
    """
    for attr in _CHILD_ATTRS:
        child = getattr(op, attr, None)
        if isinstance(child, Operator):
            setattr(op, attr, materialize_plan(child))
    return MaterializeOp(op)
