"""SCAN_GRAPH_TABLE: the bridge between graph and relational optimization.

``LogicalScanGraphTable`` encapsulates the optimal graph sub-plan for
``M(P)`` plus the ``π̂`` projection (Sec 4.2.2).  To the relational
optimizer it *is* a scan: it exposes qualified output columns, an estimated
cardinality (from the graph cost model, i.e. GLogue-backed), and per-column
distinct counts — which is exactly how high-order graph statistics reach
relational join ordering.

``ScanGraphTableOp`` is its physical counterpart: it executes the lowered
graph operator pipeline and flattens the resulting graph relation into
relational tuples by fetching the projected attributes (id / label /
properties) of each bound element.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BindError
from repro.graph.index import GraphIndex
from repro.exec.kernels import emit_columnar
from repro.exec.vector import ColumnarBatch, take
from repro.graph.optimizer import GraphPlan, LoweringConfig, lower_plan
from repro.graph.physical import GraphOperator, value_var
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.exec.context import ExecutionContext
from repro.relational.logical import LogicalNode
from repro.relational.physical import PhysicalOperator
from repro.core.spjm import GraphTableClause, MatchColumn


class LogicalScanGraphTable(LogicalNode):
    """A relational-facing leaf wrapping an optimized graph plan."""

    def __init__(
        self,
        clause: GraphTableClause,
        mapping: RGMapping,
        index: GraphIndex | None,
        graph_plan: GraphPlan,
        lowering: LoweringConfig,
    ):
        self.clause = clause
        self.mapping = mapping
        self.index = index
        self.graph_plan = graph_plan
        self.lowering = lowering
        self._columns = [f"{clause.alias}.{c.alias}" for c in clause.columns]

    # -- LogicalNode interface ------------------------------------------ #

    @property
    def output_columns(self) -> list[str]:
        return self._columns

    def children(self) -> list[LogicalNode]:
        return []

    def _label(self) -> str:
        return (
            f"ScanGraphTable {self.clause.graph_name} as {self.clause.alias} "
            f"(card≈{self.estimated_rows:.1f})"
        )

    # -- optimizer protocol --------------------------------------------- #

    @property
    def estimated_rows(self) -> float:
        return self.graph_plan.cardinality

    def column_ndv(self, column: str) -> float | None:
        """Distinct-count estimate for one output column.

        A ``var.attr`` column cannot have more distinct values than the
        attribute has in the base relation, nor than the match count.
        """
        mc = self.clause.column_map().get(column)
        if mc is None:
            return None
        if mc.var in self.clause.pattern.vertices:
            label = self.clause.pattern.vertices[mc.var].label
            table = self.mapping.vertex_table(label)
        elif mc.var in self.clause.pattern.edges:
            label = self.clause.pattern.edges[mc.var].label
            table = self.mapping.edge_table(label)
        else:
            return None
        if mc.special in ("id",):
            return min(float(table.num_rows), self.estimated_rows)
        if mc.special == "label":
            return 1.0
        stats = self.mapping.catalog.stats(table.schema.name)
        return min(float(stats.distinct(mc.attr or "")), self.estimated_rows)

    # -- lowering --------------------------------------------------------#

    def to_physical(self, catalog: Catalog) -> "ScanGraphTableOp":
        graph_op = lower_plan(
            self.graph_plan,
            self.mapping,
            self.index,
            self.lowering,
            live=columns_read(self.clause),
        )
        return ScanGraphTableOp(self.clause, self.mapping, graph_op)


def columns_read(clause: GraphTableClause) -> frozenset[str]:
    """The graph variables the ``COLUMNS`` of ``clause`` read: each
    entry's variable, and for an attribute the value column a REDUCE
    appends in its place (:class:`ScanGraphTableOp` reads whichever the
    plan binds)."""
    return frozenset(
        name
        for c in clause.columns
        for name in (c.var, value_var(c.var, c.attr or ""))
    )


@dataclass
class _ColumnFetcher:
    """Compiled accessor for one projected output column."""

    var_position: int
    kind: str  # "attr" | "id" | "label" | "value" (a BranchReduce column)
    values: list | None = None  # attribute column or key column
    constant: str | None = None


class ScanGraphTableOp(PhysicalOperator):
    """Physical SCAN_GRAPH_TABLE: run the graph plan, project attributes."""

    def __init__(
        self,
        clause: GraphTableClause,
        mapping: RGMapping,
        graph_op: GraphOperator,
    ):
        self.clause = clause
        self.mapping = mapping
        self.graph_op = graph_op
        self.output_columns = [f"{clause.alias}.{c.alias}" for c in clause.columns]

    def columnar_batches(self, ctx: ExecutionContext):
        return emit_columnar(ctx, self, self._stream_columnar(ctx))

    def _stream_columnar(self, ctx: ExecutionContext):
        """Columnar π̂ flattening: each projected attribute is one gather of
        the base attribute column through the bound variable's rowid column
        — no per-row tuples anywhere on the graph-to-relational bridge, and
        a native ndarray fancy-index when the base column has a typed
        vector view.  Typed base columns therefore reach downstream
        consumers — in particular the grouped-aggregation engine's
        factorize / segment-reduction fast paths — still in the array
        domain.  Gathers are deduplicated per (variable, base column), so a
        projection naming the same attribute (or the same label constant)
        twice gathers once and shares the result.  An attribute a
        :class:`~repro.graph.physical.BranchReduce` reduced is read from
        the value column it appended, not gathered."""
        fetchers = [self._fetcher(c) for c in self.clause.columns]
        for cb in self.graph_op.columnar_batches(ctx):
            n = len(cb)
            rowid_cols: dict[int, object] = {}
            gathered: dict[tuple[int, int], object] = {}
            constants: dict[str, list] = {}
            columns = []
            for f in fetchers:
                if f.kind == "label":
                    column = constants.get(f.constant)
                    if column is None:
                        column = [f.constant] * n
                        constants[f.constant] = column
                    columns.append(column)
                    continue
                if f.kind == "value":
                    columns.append(cb.column_vector(f.var_position))
                    continue
                assert f.values is not None
                key = (f.var_position, id(f.values))
                column = gathered.get(key)
                if column is None:
                    rowids = rowid_cols.get(f.var_position)
                    if rowids is None:
                        rowids = cb.column_vector(f.var_position)
                        rowid_cols[f.var_position] = rowids
                    column = take(f.values, rowids)
                    gathered[key] = column
                columns.append(column)
            yield ColumnarBatch(columns, n, None)

    def _fetcher(self, column: MatchColumn) -> _ColumnFetcher:
        var_names = [v.name for v in self.graph_op.output_vars]
        reduced = value_var(column.var, column.attr or "")
        if column.special is None and reduced in var_names:
            return _ColumnFetcher(var_names.index(reduced), "value")
        if column.var not in var_names:
            raise BindError(
                f"graph plan does not bind variable {column.var!r} "
                f"(bound: {var_names}); was it trimmed?"
            )
        position = var_names.index(column.var)
        var = self.graph_op.output_vars[position]
        if var.kind == "v":
            table = self.mapping.vertex_table(var.label)
            key = self.mapping.vertex(var.label).key
        else:
            table = self.mapping.edge_table(var.label)
            key = table.schema.primary_key
        if column.special == "label":
            return _ColumnFetcher(position, "label", constant=var.label)
        if column.special == "id":
            if key is None:
                raise BindError(
                    f"relation {table.schema.name!r} has no key column for id()"
                )
            return _ColumnFetcher(position, "id", values=table.vector(key))
        return _ColumnFetcher(position, "attr", values=table.vector(column.attr or ""))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        cols = ", ".join(c.alias for c in self.clause.columns)
        lines = [f"{pad}SCAN_GRAPH_TABLE {self.clause.graph_name} [{cols}]"]
        lines.append(self.graph_op.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return f"SCAN_GRAPH_TABLE {self.clause.graph_name}"
