"""Graph physical operators (Sec 3.2.2 of the paper) on the streaming engine.

These operators compute graph relations: rows of rowids, one column per
pattern variable (vertex or edge).  The column metadata is a
:class:`GraphVar` carrying the variable name, kind and label — the label is
static, so rows store bare rowids.

Graph operators speak one protocol: each has a single body behind
:meth:`~repro.exec.Operator.columnar_batches`.  Where rows are needed — a
row-protocol relational parent, ``grace_hash_join``,
:meth:`~repro.exec.Operator.execute` — they come from the one boundary
adapter, :func:`repro.exec.operator.to_rows`; the reference these bodies are
checked against shares no code with them
(:func:`repro.graph.matching.match_pattern`).  No graph operator builds
row tuples itself.  ``EXPAND``, ``EXPAND_EDGE`` and the relational
``CSR_JOIN`` run one CSR expansion body,
:func:`repro.exec.kernels.expand_columnar`, and no operator here branches on
numpy: the split lives in the kernels and the :mod:`repro.exec.vector`
primitives.  Expansions stream bounded chunks, and only the
genuinely stateful operator (the pattern hash join) holds — and charges —
buffered rows, as dense columnar batches.  Its build and probe are the
:mod:`repro.exec.kernels` calls the relational ``HashJoin`` makes; there is
one implementation, not two.

Operators:

* :class:`ScanVertex` — the plan entry point, matching a single-vertex
  pattern by scanning its vertex relation.
* :class:`ExpandEdge` + :class:`GetVertex` — Case II with a graph index:
  VE-index lookup for adjacent edges, then EV-index lookup for the far
  endpoint.
* :class:`Expand` — the fused operator TrimAndFuseRule produces: neighbors
  directly, edge column trimmed (multiplicity preserved — one output row per
  adjacent *edge*).
* :class:`ExpandIntersect` — Case III: close a complete star by intersecting
  the neighbor sets of all bound leaf vertices (wco-style).
* :class:`BranchReduce` — DeadBranchRule's per-anchor reduction: keep the
  rows whose bound anchor vertex matches every stripped branch hanging
  from it, and append the MIN / MAX of each attribute a branch is read
  for, without binding the branches' vertices (with nothing to reduce,
  the EXISTS semi-join).
* :class:`PatternHashJoin` — Case I: natural join of two graph relations on
  their common variables.
* :class:`EdgeTripleScan` — materializes ``(src, dst, edge)`` rowid triples
  of one edge relation; with the graph index it reads the EV columns, without
  it it performs the EVJoin of Eq. 3 as runtime hash joins (the no-index
  execution mode, e.g. RelGoHash).
* :class:`AllDistinct` — the paper's all-distinct operator for isomorphism /
  edge-distinct semantics.

``EXPAND``, ``EXPAND_EDGE``, ``GET_VERTEX`` and ``EXPAND_INTERSECT``
build every output batch anew (:class:`Extension`): they carry only the
input variables the liveness walk (:func:`repro.graph.optimizer.carry_live`)
found read above them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from repro.errors import PlanError
from repro.exec.context import ExecutionContext, close_stream
from repro.exec.kernels import (
    BranchStep,
    IntersectLeg,
    branch_reduce,
    build_hash_table_columnar,
    emit_columnar,
    expand_columnar,
    grace_hash_join,
    intersect_expand,
    probe_hash_table_columnar,
    rows_to_columnar,
    scalar_key,
    tuple_key,
)
from repro.exec.operator import Operator
from repro.exec.scheduler import morsel_bounds
from repro.exec.vector import (
    ColumnarBatch,
    LazyMask,
    distinct_positions,
    index_vector,
    passing,
    take,
    vector_view,
)
from repro.graph.index import GraphIndex
from repro.graph.matching import rowid_selection
from repro.graph.rgmapping import RGMapping
from repro.relational.expr import Expr, rowid_mask


@dataclass(frozen=True)
class GraphVar:
    """One graph-relation column: pattern variable name, kind ('v'/'e'), label.

    Kind 'value' is a column of reduced attribute values a
    :class:`BranchReduce` appends (named by :func:`value_var`, labelled
    with the vertex label it was read from), not rowids."""

    name: str
    kind: str
    label: str


class GraphOperator(Operator):
    """Base class; subclasses set ``output_vars`` in ``__init__``.

    The liveness walk (:func:`repro.graph.optimizer.carry_live`) narrows a
    lowered plan to the variables read above each operator: it asks each
    operator what it :meth:`reads` of its inputs, narrows the inputs, then
    lets the operator :meth:`carry` what is still live.
    """

    output_vars: list[GraphVar]

    def var_index(self, name: str) -> int:
        for i, var in enumerate(self.output_vars):
            if var.name == name:
                return i
        raise PlanError(f"variable {name!r} not in {[v.name for v in self.output_vars]}")

    def reads(self) -> frozenset[str]:
        """The input variables the operator itself reads: keys, anchors,
        compared columns."""
        return frozenset()

    def carry(self, live: frozenset[str]) -> None:
        """Re-derive the output once the inputs are narrowed; an operator
        that builds its batches anew (:class:`Extension`) also keeps only
        the input variables in ``live``."""
        self._derive()

    def _derive(self) -> None:
        """Set ``output_vars``, and whatever else follows from the inputs'
        variables, from the inputs; a leaf's never change."""


class Extension(GraphOperator):
    """A graph operator that builds every output batch anew from its
    child's (EXPAND, EXPAND_EDGE, GET_VERTEX, EXPAND_INTERSECT): the output
    is the child variables it carries, then the ones it appends.  It carries
    every child variable until :meth:`carry` narrows it to those read
    above."""

    child: GraphOperator

    def _extend(self, appended: list[GraphVar]) -> None:
        self.carried = list(self.child.output_vars)
        self.appended = appended
        self.output_vars = self.carried + appended

    def children(self) -> list[Operator]:
        return [self.child]

    def carry(self, live: frozenset[str]) -> None:
        self.carried = [v for v in self.child.output_vars if v.name in live]
        self.output_vars = self.carried + self.appended

    def carried_columns(self) -> list[int]:
        """The carried variables' positions in the child's batches."""
        return [self.child.var_index(v.name) for v in self.carried]

    def _dropped(self) -> str:
        """`` drop [x, y]`` naming the child variables this operator stops
        carrying, for its label; empty when it carries them all."""
        gone = [v.name for v in self.child.output_vars if v not in self.carried]
        return f" drop [{', '.join(gone)}]" if gone else ""


class ScanVertex(GraphOperator):
    """SCAN: match a single-vertex pattern by scanning its vertex relation.

    ``row_range`` restricts the scan to a contiguous ``(start, stop)``
    rowid slice — the morsel-driven scheduler clones the scan per morsel;
    emitted rowids stay global, so downstream expansions are unaffected.
    """

    #: Optional ``(start, stop)`` morsel bounds; None scans every vertex.
    row_range: tuple[int, int] | None = None

    def __init__(
        self,
        mapping: RGMapping,
        var: str,
        label: str,
        predicate: Expr | None = None,
    ):
        self.mapping = mapping
        self.var = var
        self.label = label
        self.predicate = predicate
        self.output_vars = [GraphVar(var, "v", label)]

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._scan_columnar(ctx))

    def _scan_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Zero-copy vertex scan: the single rowid column *is* ``range(n)``
        and each chunk is a selection over it; the attribute predicate, if
        any, vectorizes over the vertex table's base columns."""
        table = self.mapping.vertex_table(self.label)
        n = ctx.pin(table).num_rows
        first, last = morsel_bounds(self.row_range, n)
        size = ctx.batch_size
        rowids = index_vector(n)
        selector = (
            rowid_selection(table, self.predicate, num_rows=n)
            if self.predicate is not None
            else None
        )
        for start in range(first, last, size):
            chunk = range(start, min(start + size, last))
            if selector is None:
                sel = chunk
            else:
                # A chunk spanning the whole relation evaluates as
                # ``candidates=None`` — full-column compares, no per-chunk
                # index gather.
                sel = selector(None if len(chunk) == n else chunk)
                if sel is None:
                    sel = chunk
            if len(sel):
                yield ColumnarBatch([rowids], n, sel)

    def _label(self) -> str:
        pred = f" ({self.predicate})" if self.predicate is not None else ""
        return f"SCAN {self.var}:{self.label}{pred}"


def _mask(ctx: ExecutionContext, table, predicate: Expr | None):
    """``predicate`` as a rowid mask over ``table``'s pinned extent."""
    if predicate is None:
        return None
    return rowid_mask(table, predicate, ctx.pin(table).num_rows)


class ExpandEdge(Extension):
    """EXPAND_EDGE: append the adjacent-edge column via the VE-index."""

    def __init__(
        self,
        child: GraphOperator,
        index: GraphIndex,
        mapping: RGMapping,
        from_var: str,
        edge_var: str,
        edge_label: str,
        direction: str,
        edge_predicate: Expr | None = None,
    ):
        self.child = child
        self.index = index
        self.mapping = mapping
        self.from_var = from_var
        self.edge_var = edge_var
        self.edge_label = edge_label
        self.direction = direction
        self.edge_predicate = edge_predicate
        self._extend([GraphVar(edge_var, "e", edge_label)])

    def reads(self) -> frozenset[str]:
        return frozenset([self.from_var])

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        from_idx = self.child.var_index(self.from_var)
        from_label = self.child.output_vars[from_idx].label
        adjacency = self.index.adjacency(from_label, self.edge_label, self.direction)
        yield from expand_columnar(
            self.child.columnar_batches(ctx),
            ctx,
            from_idx,
            *adjacency.vectors(),
            [None],
            emask=_mask(
                ctx, self.mapping.edge_table(self.edge_label), self.edge_predicate
            ),
            carry=self.carried_columns(),
        )

    def _label(self) -> str:
        return (
            f"EXPAND_EDGE {self.from_var} -[{self.edge_label} {self.direction}]-> "
            f"{self.edge_var}{self._dropped()}"
        )


class GetVertex(Extension):
    """GET_VERTEX: append the far endpoint of a bound edge via the EV-index."""

    def __init__(
        self,
        child: GraphOperator,
        index: GraphIndex,
        mapping: RGMapping,
        edge_var: str,
        to_var: str,
        to_label: str,
        direction: str,
        vertex_predicate: Expr | None = None,
    ):
        self.child = child
        self.index = index
        self.mapping = mapping
        self.edge_var = edge_var
        self.to_var = to_var
        self.to_label = to_label
        self.direction = direction
        self.vertex_predicate = vertex_predicate
        self._extend([GraphVar(to_var, "v", to_label)])

    def reads(self) -> frozenset[str]:
        return frozenset([self.edge_var])

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        carry = self.carried_columns()
        edge_idx = self.child.var_index(self.edge_var)
        edge_label = self.child.output_vars[edge_idx].label
        far = self.index.edge_index(edge_label).endpoint_vector(self.direction)
        vmask = _mask(
            ctx, self.mapping.vertex_table(self.to_label), self.vertex_predicate
        )
        for cb in self.child.columnar_batches(ctx):
            # One gather through the EV column — native when both the bound
            # edge column and the index array live in the array domain.
            targets = take(far, cb.column_vector(edge_idx))
            if vmask is not None:
                kept = passing(vmask, targets)
                if kept is not None:
                    if not len(kept):
                        continue
                    cb = cb.take(kept)
                    targets = take(targets, kept)
            columns = [cb.column_vector(i) for i in carry]
            columns.append(targets)
            yield ColumnarBatch(columns, len(targets), None)

    def _label(self) -> str:
        return f"GET_VERTEX {self.edge_var} -> {self.to_var}:{self.to_label}{self._dropped()}"


class Expand(Extension):
    """EXPAND: the fused EXPAND_EDGE + GET_VERTEX (TrimAndFuseRule output).

    Emits one row per adjacent edge, but only the neighbor column — edge
    multiplicity (parallel edges) is preserved without materializing the
    edge variable.
    """

    def __init__(
        self,
        child: GraphOperator,
        index: GraphIndex,
        mapping: RGMapping,
        from_var: str,
        to_var: str,
        to_label: str,
        edge_label: str,
        direction: str,
        edge_predicate: Expr | None = None,
        vertex_predicate: Expr | None = None,
    ):
        self.child = child
        self.index = index
        self.mapping = mapping
        self.from_var = from_var
        self.to_var = to_var
        self.to_label = to_label
        self.edge_label = edge_label
        self.direction = direction
        self.edge_predicate = edge_predicate
        self.vertex_predicate = vertex_predicate
        self._extend([GraphVar(to_var, "v", to_label)])

    def reads(self) -> frozenset[str]:
        return frozenset([self.from_var])

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        from_idx = self.child.var_index(self.from_var)
        from_label = self.child.output_vars[from_idx].label
        adjacency = self.index.adjacency(from_label, self.edge_label, self.direction)
        # One row per adjacent edge, neighbor column only.
        yield from expand_columnar(
            self.child.columnar_batches(ctx),
            ctx,
            from_idx,
            *adjacency.vectors(),
            [self.index.edge_index(self.edge_label).endpoint_vector(self.direction)],
            emask=_mask(
                ctx, self.mapping.edge_table(self.edge_label), self.edge_predicate
            ),
            vmask=_mask(
                ctx, self.mapping.vertex_table(self.to_label), self.vertex_predicate
            ),
            carry=self.carried_columns(),
        )

    def _label(self) -> str:
        return (
            f"EXPAND {self.from_var} -[{self.edge_label} {self.direction}]-> "
            f"{self.to_var}{self._dropped()}"
        )


@dataclass(frozen=True)
class StarLeg:
    """One leg of a complete star: bound leaf -> (new) root.

    ``direction`` is the traversal direction *leaving the bound leaf*.
    ``edge_var`` is None when the edge column is trimmed.
    """

    from_var: str
    edge_label: str
    direction: str
    edge_var: str | None = None
    edge_predicate: Expr | None = None


class ExpandIntersect(Extension):
    """EXPAND_INTERSECT: close a complete star by neighbor intersection.

    For each input row, the root candidates are the intersection of the
    bound leaves' neighbor sets: per slice of rows the leg with the smallest
    summed degree expands, and every other leg is probed in its
    adjacency's neighbor-ordered key view
    (:meth:`~repro.graph.index.Adjacency.key_view`): one gather from its
    slot table when the view is dense, a binary search when it is not.  Homomorphism
    semantics: parallel edges multiply — either as explicit edge-variable
    combinations (``with edge vars``) or as row multiplicity (edge columns
    trimmed).  The body is one call to the pair-key kernel
    :func:`~repro.exec.kernels.intersect_expand`; it buffers nothing across
    batches, so nothing is charged against the memory budget.
    """

    def __init__(
        self,
        child: GraphOperator,
        index: GraphIndex,
        mapping: RGMapping,
        legs: list[StarLeg],
        to_var: str,
        to_label: str,
        vertex_predicate: Expr | None = None,
    ):
        if len(legs) < 2:
            raise PlanError("EXPAND_INTERSECT needs at least two legs; use EXPAND")
        self.child = child
        self.index = index
        self.mapping = mapping
        self.legs = legs
        self.to_var = to_var
        self.to_label = to_label
        self.vertex_predicate = vertex_predicate
        self._extend(
            [GraphVar(leg.edge_var, "e", leg.edge_label) for leg in legs if leg.edge_var is not None]
            + [GraphVar(to_var, "v", to_label)]
        )

    def reads(self) -> frozenset[str]:
        return frozenset(leg.from_var for leg in self.legs)

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Output columns: the carried child columns, the kept legs' edge
        rowids, the root."""
        root = self.mapping.vertex_table(self.to_label)
        radix = ctx.pin(root).num_rows
        legs = []
        for leg in self.legs:
            from_idx = self.child.var_index(leg.from_var)
            from_label = self.child.output_vars[from_idx].label
            adjacency = self.index.adjacency(from_label, leg.edge_label, leg.direction)
            far = self.index.edge_index(leg.edge_label).endpoint_vector(leg.direction)
            legs.append(
                IntersectLeg(
                    from_idx,
                    adjacency.vectors()[0],
                    adjacency.key_view(far, radix),
                    _mask(ctx, self.mapping.edge_table(leg.edge_label), leg.edge_predicate),
                    leg.edge_var is not None,
                )
            )
        yield from intersect_expand(
            self.child.columnar_batches(ctx),
            ctx,
            legs,
            radix,
            _mask(ctx, root, self.vertex_predicate),
            self.carried_columns(),
        )

    def _label(self) -> str:
        legs = ", ".join(f"{leg.from_var}-[{leg.edge_label}]" for leg in self.legs)
        return f"EXPAND_INTERSECT ({legs}) -> {self.to_var}:{self.to_label}{self._dropped()}"


def value_var(var: str, attr: str) -> str:
    """The output variable of :class:`BranchReduce` that holds the reduced
    values of ``var.attr`` (pattern variables hold no dot)."""
    return f"{var}.{attr}"


@dataclass(frozen=True)
class Branch:
    """One pattern branch stripped below a bound vertex: the edge leaving it
    (``direction`` is the traversal direction from the bound side), the far
    vertex the edge reaches, both predicates, the far vertex's own
    sub-branches, and the far vertex's attributes the branch reduces —
    ``(func, attr)`` pairs, func MIN or MAX."""

    edge_label: str
    direction: str
    to_var: str
    to_label: str
    edge_predicate: Expr | None = None
    vertex_predicate: Expr | None = None
    branches: tuple["Branch", ...] = ()
    reduce: tuple[tuple[str, str], ...] = ()

    def variables(self) -> list[str]:
        """The branch's vertices, this one first."""
        return [self.to_var] + [v for b in self.branches for v in b.variables()]

    def reductions(self) -> list[tuple["Branch", str, str]]:
        """``(branch, func, attr)`` per attribute the branch reduces, this
        vertex's first, then each sub-branch's in turn — the order of
        :class:`BranchReduce`'s value columns."""
        own = [(self, func, attr) for func, attr in self.reduce]
        return own + [r for b in self.branches for r in b.reductions()]

    def describe(self, parent: str) -> list[str]:
        """One ``parent -[label dir]-> var:label (pred)`` entry per edge of
        the branch, parents first."""
        preds = [p for p in (self.edge_predicate, self.vertex_predicate) if p is not None]
        text = f"{parent} -[{self.edge_label} {self.direction}]-> {self.to_var}:{self.to_label}"
        if preds:
            text += " (" + " AND ".join(map(str, preds)) + ")"
        return [text] + [entry for b in self.branches for entry in b.describe(self.to_var)]

    def summary(self, parent: str) -> str:
        """The branch's entries on one line, after its reductions (``MIN
        n.name: t -[...]-> ci:cast_info, ...``) when it has any."""
        text = ", ".join(self.describe(parent))
        reduced = ", ".join(f"{func} {b.to_var}.{attr}" for b, func, attr in self.reductions())
        return f"{reduced}: {text}" if reduced else text


class BranchReduce(GraphOperator):
    """Per-anchor reduction of the pattern branches DeadBranchRule strips:
    keep the rows whose bound ``anchor`` has at least one match of every
    branch hanging from it, and append one value column per reduced
    attribute — its MIN or MAX over the anchor's matches of the branch.

    The branches' vertices are never bound: under a consumer that ignores
    duplicates, a branch matters only through whether it matches and
    through the least or greatest value it offers each MIN / MAX, not
    through how often it matches.  Without reductions this is the EXISTS
    check (explained as ``EXISTS``), whose output is the input's rows,
    unchanged and in order; with them it is explained as ``REDUCE``.  The
    body is one call to :func:`~repro.exec.kernels.branch_reduce`, which
    answers once per distinct anchor rowid.
    """

    def __init__(
        self,
        child: GraphOperator,
        index: GraphIndex,
        mapping: RGMapping,
        anchor: str,
        branches: tuple[Branch, ...],
    ):
        self.child = child
        self.index = index
        self.mapping = mapping
        self.anchor = anchor
        self.branches = branches
        self._derive()

    def children(self) -> list[Operator]:
        return [self.child]

    def reads(self) -> frozenset[str]:
        return frozenset([self.anchor])

    def _derive(self) -> None:
        """The input's rows pass through whole: the output is the child's
        variables, then the value columns."""
        self.output_vars = list(self.child.output_vars) + [
            GraphVar(value_var(b.to_var, attr), "value", b.to_label)
            for branch in self.branches
            for b, _, attr in branch.reductions()
        ]

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        column = self.child.var_index(self.anchor)
        label = self.child.output_vars[column].label
        yield from branch_reduce(
            self.child.columnar_batches(ctx), column, self._steps(ctx, label, self.branches)
        )

    def _steps(self, ctx, label: str, branches) -> tuple[BranchStep, ...]:
        steps = []
        for branch in branches:
            adjacency = self.index.adjacency(label, branch.edge_label, branch.direction)
            offsets, edges = adjacency.vectors()
            table = self.mapping.vertex_table(branch.to_label)
            steps.append(
                BranchStep(
                    offsets,
                    edges,
                    self.index.edge_index(branch.edge_label).endpoint_vector(branch.direction),
                    _mask(ctx, self.mapping.edge_table(branch.edge_label), branch.edge_predicate),
                    _mask(ctx, table, branch.vertex_predicate),
                    self._steps(ctx, branch.to_label, branch.branches),
                    tuple((func, table.vector(attr)) for func, attr in branch.reduce),
                )
            )
        return tuple(steps)

    def _label(self) -> str:
        kind = "REDUCE" if any(b.reductions() for b in self.branches) else "EXISTS"
        entries = ", ".join(b.summary(self.anchor) for b in self.branches)
        return f"{kind} {self.anchor} ({entries})"


class EdgeTripleScan(GraphOperator):
    """Scan one edge relation as (src, dst, edge) rowid triples.

    With the graph index this reads the precomputed EV columns; without it,
    it executes the EVJoin of Eq. 3 as two runtime hash joins (building
    pk -> rowid maps over the endpoint tables), which is exactly what a
    relational engine without predefined joins must do.  With ``src_var ==
    dst_var`` it scans a self-loop: one vertex column, and only the edges
    whose two endpoints are the same vertex.

    ``row_range`` restricts the scan to a contiguous ``(start, stop)``
    slice of the edge relation (morsel-driven scheduling); the scheduler
    only splits index-backed scans — the runtime EVJoin derives whole-table
    endpoint columns, which morsels would recompute.
    """

    #: Optional ``(start, stop)`` morsel bounds; None scans every edge.
    row_range: tuple[int, int] | None = None

    def __init__(
        self,
        mapping: RGMapping,
        edge_label: str,
        src_var: str,
        dst_var: str,
        edge_var: str | None,
        index: GraphIndex | None = None,
        edge_predicate: Expr | None = None,
        src_predicate: Expr | None = None,
        dst_predicate: Expr | None = None,
    ):
        self.mapping = mapping
        self.edge_label = edge_label
        self.src_var = src_var
        self.dst_var = dst_var
        self.edge_var = edge_var
        self.index = index
        self.edge_predicate = edge_predicate
        self.src_predicate = src_predicate
        self.dst_predicate = dst_predicate
        em = mapping.edge(edge_label)
        self.output_vars = [GraphVar(src_var, "v", em.source_label)]
        if dst_var != src_var:
            self.output_vars.append(GraphVar(dst_var, "v", em.target_label))
        if edge_var is not None:
            self.output_vars.append(GraphVar(edge_var, "e", edge_label))

    def _endpoint_rowids(self, ctx):
        """(src_rowids, dst_rowids) of every edge of this scan's relation."""
        if self.index is not None:
            ev = self.index.edge_index(self.edge_label)
            return ev.src_rowids, ev.dst_rowids
        # Runtime EVJoin: probe the endpoint tables' primary-key hash
        # indexes (built once per table, like any engine's PK index).
        # The foreign-key columns are sliced to the pinned extent, so
        # edges appended after the query's epoch are never resolved.
        em = self.mapping.edge(self.edge_label)
        edge_table = self.mapping.edge_table(self.edge_label)
        n = ctx.pin(edge_table).num_rows
        src_map = self.mapping.vertex_table(em.source_label).pk_index()
        dst_map = self.mapping.vertex_table(em.target_label).pk_index()
        src_fk = edge_table.column(em.source_key)[:n]
        dst_fk = edge_table.column(em.target_key)[:n]
        return (
            list(map(src_map.__getitem__, src_fk)),
            list(map(dst_map.__getitem__, dst_fk)),
        )

    def _masks(self, ctx):
        """The (edge, source, target) predicates as rowid masks; None where
        the scan has no predicate."""
        em = self.mapping.edge(self.edge_label)
        return [
            _mask(ctx, table, predicate)
            for table, predicate in (
                (self.mapping.edge_table(self.edge_label), self.edge_predicate),
                (self.mapping.vertex_table(em.source_label), self.src_predicate),
                (self.mapping.vertex_table(em.target_label), self.dst_predicate),
            )
        ]

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        """Zero-copy triple scan: the EV columns (or the EVJoin-derived
        rowid lists) are shared across all batches; the predicates' rowid
        masks shrink the per-chunk selection vector."""
        src_rowids, dst_rowids = self._endpoint_rowids(ctx)
        if self.index is not None:
            ev = self.index.edge_index(self.edge_label)
            columns: list = [ev.near_vector("out"), ev.endpoint_vector("out")]
        else:
            columns = [vector_view(src_rowids), vector_view(dst_rowids)]
        masks = self._masks(ctx)
        n = min(
            ctx.pin(self.mapping.edge_table(self.edge_label)).num_rows,
            len(src_rowids),
        )
        first, last = morsel_bounds(self.row_range, n)
        edge_ids = index_vector(n)
        # Each mask looks up its own column (edge rowid, source, target) at
        # the positions still selected.
        lookups = [
            (mask, column)
            for mask, column in zip(masks, [edge_ids] + columns)
            if mask is not None
        ]
        if self.dst_var == self.src_var:
            # A self-loop binds one vertex: only the edges whose endpoints
            # agree match, and the vertex is one column.
            loop = LazyMask.per_rowid(lambda e: src_rowids[e] == dst_rowids[e], n)
            lookups.append((loop, edge_ids))
            del columns[1]
        if self.edge_var is not None:
            columns.append(edge_ids)
        size = ctx.batch_size
        for start in range(first, last, size):
            stop = min(start + size, last)
            sel = edge_ids[start:stop] if lookups else range(start, stop)
            for mask, column in lookups:
                kept = passing(mask, take(column, sel))
                if kept is not None:
                    sel = take(sel, kept)
            if len(sel):
                yield ColumnarBatch(columns, n, sel)

    def _label(self) -> str:
        mode = "EV-index" if self.index is not None else "EVJoin"
        return (
            f"EDGE_SCAN {self.src_var} -[{self.edge_label}]-> {self.dst_var} ({mode})"
        )


class PatternHashJoin(GraphOperator):
    """Natural join of two graph relations on their common variables.

    The operator only decides which side builds; build and probe are the
    shared columnar kernels the relational ``HashJoin`` runs.  The smaller
    input builds, chosen without materializing the probe side: the right
    input is drained first, then left batches are buffered only until they
    outnumber it — at which point the right side builds and the remaining
    left input streams straight through the probe.  Join *output* always
    streams, so only the inputs' buffered rows charge the memory budget;
    exploding star materializations (the NoEI / naive plans) still trip the
    paper's OOMs during their build drain.
    """

    def __init__(self, left: GraphOperator, right: GraphOperator):
        self.left = left
        self.right = right
        self._derive()
        if not self.join_vars:
            raise PlanError("pattern join requires common variables (Eq. 2)")

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def reads(self) -> frozenset[str]:
        return frozenset(self.join_vars)

    def _derive(self) -> None:
        """Join on the inputs' common variables; the output is the left
        input's variables, then the right's others."""
        left_names = [v.name for v in self.left.output_vars]
        right_names = [v.name for v in self.right.output_vars]
        self.join_vars = [n for n in left_names if n in right_names]
        self.right_keep = [
            i for i, v in enumerate(self.right.output_vars) if v.name not in left_names
        ]
        self.output_vars = list(self.left.output_vars) + [
            self.right.output_vars[i] for i in self.right_keep
        ]

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        l_idx = [self.left.var_index(n) for n in self.join_vars]
        r_idx = [self.right.var_index(n) for n in self.join_vars]
        if ctx.spill_limit() is not None:
            yield from self._grace(ctx, l_idx, r_idx)
            return
        right_buffer = ctx.buffer(self, " build")
        left_buffer = ctx.buffer(self, " lookahead")
        right_stream = None
        left_stream = None
        try:
            right: list[ColumnarBatch] = []
            right_rows = 0
            right_stream = self.right.columnar_batches(ctx)
            for cb in right_stream:
                right.append(cb.dense())
                right_rows += len(cb)
                right_buffer.grow(len(cb))
            # Bounded lookahead on the left: once it outnumbers the right
            # side, the right side is the smaller build input for sure.
            left: list[ColumnarBatch] = []
            left_rows = 0
            left_stream = self.left.columnar_batches(ctx)
            for cb in left_stream:
                left.append(cb.dense())
                left_rows += len(cb)
                if left_rows > right_rows:
                    # The left side turns out to be the probe side: its
                    # prefix is in-flight probe input, not build state, so
                    # it must not charge the budget.
                    left_buffer.release()
                    break
                left_buffer.grow(len(cb))
            else:
                # Build on the (fully seen) left, probe with the right; the
                # probe emits right ++ left, reordered to left ++ right_keep.
                table = build_hash_table_columnar(left, l_idx, None)
                del left
                width = len(self.right.output_vars)
                order = [width + i for i in range(len(self.left.output_vars))]
                order += self.right_keep
                for cb in probe_hash_table_columnar(right, table, r_idx, ctx):
                    columns = [cb.columns[i] for i in order]
                    yield ColumnarBatch(columns, cb.length, cb.selection)
                return
            table = build_hash_table_columnar(right, r_idx, None, keep=self.right_keep)
            del right
            yield from probe_hash_table_columnar(
                chain(left, left_stream), table, l_idx, ctx
            )
        finally:
            # A budget trip during either buffering loop leaves that input
            # suspended in this (traceback-pinned) frame: close both so
            # upstream finallys release their buffers deterministically.
            close_stream(right_stream)
            close_stream(left_stream)
            right_buffer.release()
            left_buffer.release()

    def _grace(self, ctx: ExecutionContext, l_idx, r_idx) -> Iterator[ColumnarBatch]:
        """Out-of-core: the adaptive lookahead would buffer an unbounded
        probe prefix, so always grace-build the right side (values trimmed
        to ``right_keep``, output ``left ++ right_keep``).  The grace kernel
        partitions and pickles row tuples, so both inputs cross the rows
        boundary."""
        if len(r_idx) == 1:
            right_key, left_key = scalar_key(r_idx[0]), scalar_key(l_idx[0])
        else:
            right_key, left_key = tuple_key(r_idx), tuple_key(l_idx)
        keep = self.right_keep
        buffer = ctx.buffer(self, " build")
        try:
            yield from rows_to_columnar(
                grace_hash_join(
                    self.right.batches(ctx),
                    self.left.batches(ctx),
                    right_key,
                    left_key,
                    buffer,
                    ctx,
                    self._label(),
                    value_of=lambda row: tuple(row[i] for i in keep),
                )
            )
        finally:
            buffer.release()

    def _label(self) -> str:
        return f"PATTERN_HASH_JOIN on ({', '.join(self.join_vars)})"


class AllDistinct(GraphOperator):
    """The all-distinct operator: keep rows whose vertex (or edge) bindings
    are pairwise distinct — upgrades homomorphism to isomorphism semantics.

    Distinctness only needs checking between bindings of the *same* label
    (cross-label bindings address different relations), so the operator
    precomputes those column pairs.  It compares whole columns pairwise
    through one primitive (:func:`repro.exec.vector.distinct_positions`)
    instead of building a Python set per row; bound columns are int rowids
    by construction, so plain ``!=`` is binding equality.
    """

    def __init__(self, child: GraphOperator, kind: str = "v"):
        self.child = child
        self.kind = kind
        self._derive()

    def children(self) -> list[Operator]:
        return [self.child]

    def reads(self) -> frozenset[str]:
        return frozenset(v.name for v in self.child.output_vars if v.kind == self.kind)

    def _derive(self) -> None:
        """The input's rows pass through whole; the compared column pairs
        follow from its variables."""
        self.output_vars = list(self.child.output_vars)
        by_label: dict[str, list[int]] = {}
        for i, var in enumerate(self.child.output_vars):
            if var.kind == self.kind:
                by_label.setdefault(var.label, []).append(i)
        self._pairs = [
            (a, b)
            for columns in by_label.values()
            for pos, a in enumerate(columns)
            for b in columns[pos + 1 :]
        ]

    def columnar_batches(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnarBatch]:
        pairs = self._pairs
        if not pairs:
            yield from self.child.columnar_batches(ctx)
            return
        for cb in self.child.columnar_batches(ctx):
            vectors = {i: cb.column_vector(i) for i in {i for p in pairs for i in p}}
            keep = distinct_positions(
                [(vectors[a], vectors[b]) for a, b in pairs], len(cb)
            )
            if keep is None:
                yield cb
            elif len(keep):
                yield cb.take(keep)

    def _label(self) -> str:
        return f"ALL_DISTINCT ({self.kind})"


__all__ = [
    "GraphVar",
    "GraphOperator",
    "Extension",
    "ScanVertex",
    "ExpandEdge",
    "GetVertex",
    "Expand",
    "StarLeg",
    "ExpandIntersect",
    "Branch",
    "BranchReduce",
    "EdgeTripleScan",
    "PatternHashJoin",
    "AllDistinct",
]
