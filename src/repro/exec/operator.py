"""The shared operator protocol of the converged execution engine.

Both operator families — ``repro.relational.physical.PhysicalOperator`` and
``repro.graph.physical.GraphOperator`` — subclass :class:`Operator`.  The
engine's protocol is :meth:`Operator.columnar_batches`, which yields
:class:`~repro.exec.vector.ColumnarBatch` chunks; **graph operators speak
only that one**.  Relational operators speak two: beside their columnar
body each keeps a :meth:`Operator.batches` body yielding chunks of row
tuples — the reference the columnar bodies are checked against
(``execute_plan(columnar=False)``, the benchmark oracle).

Rows and columns meet at exactly two adapters, the defaults of the two
methods: an operator with only a row body joins a columnar pipeline through
:func:`~repro.exec.kernels.rows_to_columnar`, and an operator with only a
columnar body — every graph operator, ``ScanGraphTableOp``,
:class:`MaterializeOp` — hands rows to a row-protocol parent, to
``grace_hash_join`` and to :meth:`Operator.execute` through :func:`to_rows`.
The grace join is also the one place a columnar body crosses to rows on
purpose: a spilling ``HashJoin`` or ``PatternHashJoin`` feeds it its
children's columnar streams through :func:`to_rows`, because spill
partitions pickle row tuples.

Because batches are pulled lazily under both protocols, downstream
operators control how much upstream work happens: a satisfied ``LIMIT``
simply stops iterating and the whole upstream pipeline halts.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.exec.context import close_stream
from repro.exec.kernels import chunk_columnar, emit_columnar, rows_to_columnar
from repro.exec.vector import ColumnarBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.context import ExecutionContext

Batch = list  # a chunk of row tuples


def to_rows(stream: Iterable[ColumnarBatch]) -> Iterator[Batch]:
    """The rows boundary: a columnar stream as chunks of plain row tuples.

    The mirror of :func:`~repro.exec.kernels.rows_to_columnar`.  Values
    cross through :meth:`ColumnarBatch.to_rows` (ndarray columns convert
    with ``tolist()``, so no numpy scalar reaches a row tuple; a zero-width
    batch yields its ``()`` rows), and ``stream`` is closed on any exit, so
    a row consumer that stops early still runs the upstream ``finally``
    blocks that release buffers.
    """
    try:
        for cb in stream:
            if len(cb):
                yield cb.to_rows()
    finally:
        close_stream(stream)


class Operator:
    """Base class of all physical operators (relational and graph).

    A subclass implements :meth:`columnar_batches`, :meth:`batches`, or
    both; whichever it leaves out is adapted from the other.
    """

    def batches(self, ctx: "ExecutionContext") -> Iterator[Batch]:
        """Yield the operator's output as chunks of row tuples.

        The default adapts :meth:`columnar_batches` (and with it the whole
        columnar subtree) through :func:`to_rows`.
        """
        if type(self).columnar_batches is Operator.columnar_batches:
            raise self._no_protocol()
        return to_rows(self.columnar_batches(ctx))

    def columnar_batches(self, ctx: "ExecutionContext") -> Iterator[ColumnarBatch]:
        """Yield the operator's output as columnar chunks.

        The default transposes :meth:`batches` output, so a row-only
        operator (and its subtree, which it pulls through the row protocol)
        keeps exact row-level semantics inside a columnar pipeline.
        """
        if type(self).batches is Operator.batches:
            raise self._no_protocol()
        return rows_to_columnar(self.batches(ctx))

    def _no_protocol(self) -> NotImplementedError:
        # Each default adapts the other method: without this check an
        # operator that overrides neither would recurse until the stack ends.
        return NotImplementedError(
            f"{type(self).__name__} implements neither batches() nor "
            "columnar_batches()"
        )

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

        Labels can stringify whole predicate trees; an armed fault
        injector matches one on every emit, so the text is computed once
        per operator instance (operators do not change once lowered; a
        graph plan's liveness walk runs inside lowering).
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

    A columnar spool: the child's batches are held as they arrive (dense,
    so nothing outside their visible rows stays referenced), every held
    row is charged against the memory budget, and the spool replays in
    arrival order once the child is exhausted.  It models naive
    materializing engines — the Kùzu-like baseline materializes each
    traversal step, which is what blows its memory budget on cyclic
    queries (the paper's Kùzu OOM entries).
    """

    def __init__(self, child: Operator):
        self.child = child
        columns = getattr(child, "output_columns", None)
        if columns is not None:
            self.output_columns = list(columns)

    @property
    def output_vars(self):
        """A graph child's variables, as they stand (a liveness walk may
        narrow them after this spool is built); AttributeError for a
        relational child."""
        return self.child.output_vars

    def children(self) -> list[Operator]:
        return [self.child]

    def var_index(self, name: str) -> int:
        return self.child.var_index(name)

    def layout(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.output_columns)}

    def columnar_batches(self, ctx: "ExecutionContext") -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._replay(ctx))

    def _replay(self, ctx: "ExecutionContext") -> Iterator[ColumnarBatch]:
        buffer = ctx.buffer(self)
        source = self.child.columnar_batches(ctx)
        try:
            limit = ctx.spill_limit()
            held: list[ColumnarBatch] = []
            spilled = None
            for cb in source:
                n = len(cb)
                if spilled is not None or (
                    limit is not None and ctx.buffered_rows + n > limit
                ):
                    # Out-of-core: past the working-set limit the remainder
                    # spools to disk (never reverting to memory, so arrival
                    # order is preserved: resident prefix, then the file).
                    if spilled is None:
                        spilled = ctx.spill.create_file(self._label())
                    spilled.append_batch(cb)
                    continue
                held.append(cb.dense())
                buffer.grow(n)
            replay = held if spilled is None else chain(held, spilled.read_batches())
            for cb in replay:
                yield from chunk_columnar(cb, ctx.batch_size)
            if spilled is not None:
                spilled.delete()
        finally:
            close_stream(source)
            buffer.release()

    def _label(self) -> str:
        return "MATERIALIZE"
