"""The Kùzu-like GDBMS baseline (Sec 5.1 / 5.3.3).

Kùzu is a native graph system with its own storage; the paper uses it as a
baseline that "may not sufficiently exploit graph-specific optimizations as
RelGo does".  This stand-in captures that role:

* native adjacency storage — it reads the same CSR structures the graph
  index provides (fair: Kùzu materializes adjacency natively);
* **no cost-based pattern planning** — edges are traversed in declaration
  order, expanding from the first vertex of the first path, and an edge
  between two bound vertices closes its cycle by a scan of the edge
  relation joined on both endpoints (no EXPAND_INTERSECT and no GLogue
  statistics);
* the relational remainder is planned greedily without graph knowledge.

Because declaration order is frequently terrible (e.g. IC patterns anchored
on selective filters declared late), it explodes intermediates and hits the
memory budget on cyclic queries — the paper's Kùzu OOM entries.
"""

from __future__ import annotations

from repro.core.framework import RelGoConfig
from repro.core.scan_graph_table import LogicalScanGraphTable, ScanGraphTableOp, columns_read
from repro.core.spjm import GraphTableClause
from repro.errors import PlanError, UnsupportedFeatureError
from repro.exec import MaterializeOp
from repro.graph.index import GraphIndex
from repro.graph.optimizer import carry_live
from repro.graph.pattern import PatternGraph
from repro.graph.physical import (
    EdgeTripleScan,
    ExpandEdge,
    GetVertex,
    GraphOperator,
    PatternHashJoin,
    ScanVertex,
)
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.systems.base import System


def naive_declaration_order_plan(
    pattern: PatternGraph, mapping: RGMapping, index: GraphIndex
) -> GraphOperator:
    """Bind every edge in declaration order, closing cycles by edge scans."""
    edges = list(pattern.edges.values())  # dict preserves declaration order
    if not edges:
        vertex = next(iter(pattern.vertices.values()))
        return ScanVertex(mapping, vertex.name, vertex.label, vertex.predicate)
    bound: set[str] = set()
    op: GraphOperator | None = None
    pending = edges[:]
    while pending:
        progress = False
        for i, edge in enumerate(pending):
            if op is None:
                start = pattern.vertices[edge.src]
                op = ScanVertex(mapping, start.name, start.label, start.predicate)
                bound.add(start.name)
            if edge.src not in bound and edge.dst not in bound:
                continue
            from_var = edge.src if edge.src in bound else edge.dst
            to_var = edge.other(from_var)
            if to_var in bound:
                # Scan the edge relation and join on both endpoints so the
                # edge variable survives (a tuple-at-a-time engine would do
                # an index-nested-loop; the topology is the same).
                triples = EdgeTripleScan(
                    mapping,
                    edge.label,
                    src_var=edge.src,
                    dst_var=edge.dst,
                    edge_var=edge.name,
                    index=index,
                    edge_predicate=edge.predicate,
                )
                op = PatternHashJoin(op, triples)
            else:
                direction = edge.direction_from(from_var)
                target = pattern.vertices[to_var]
                expanded = ExpandEdge(
                    op, index, mapping,
                    from_var=from_var,
                    edge_var=edge.name,
                    edge_label=edge.label,
                    direction=direction,
                    edge_predicate=edge.predicate,
                )
                op = GetVertex(
                    expanded, index, mapping,
                    edge_var=edge.name,
                    to_var=to_var,
                    to_label=target.label,
                    direction=direction,
                    vertex_predicate=target.predicate,
                )
            # A naive tuple-at-a-time engine materializes every traversal
            # step; the barrier keeps that cost model (and its memory-budget
            # blowups on cyclic queries — the paper's Kùzu OOM entries) now
            # that the shared operators themselves stream.
            op = MaterializeOp(op)
            bound.add(to_var)
            pending.pop(i)
            progress = True
            break
        if not progress:  # pragma: no cover - connected patterns always progress
            raise PlanError("disconnected pattern in declaration-order planner")
    assert op is not None
    return op


class _NaiveGraphTable(LogicalScanGraphTable):
    """A SCAN_GRAPH_TABLE whose inner plan is the declaration-order chain."""

    def __init__(self, clause: GraphTableClause, mapping: RGMapping, index: GraphIndex):
        if clause.semantics != "homomorphism":
            # The declaration-order chain binds every pattern edge with no
            # all-distinct post filter, so it only matches homomorphically.
            raise UnsupportedFeatureError(
                "the Kùzu-like planner implements homomorphism semantics; "
                "all-distinct post filters are not planned"
            )
        # A placeholder GraphPlan is not needed: estimated rows are a crude
        # volume guess (no statistics — that's the point of this baseline).
        self.clause = clause
        self.mapping = mapping
        self.index = index
        self._columns = [f"{clause.alias}.{c.alias}" for c in clause.columns]

    @property
    def estimated_rows(self) -> float:
        # No cardinality model: a flat guess, as a statistics-free engine.
        return 10_000.0

    def to_physical(self, catalog: Catalog) -> ScanGraphTableOp:
        # A GDBMS without field trimming materializes every pattern element:
        # every edge variable is bound, which is part of why the baseline
        # trails.  Like every graph plan, it carries a binding only while
        # something above reads it.
        graph_op = naive_declaration_order_plan(
            self.clause.pattern, self.mapping, self.index
        )
        carry_live(graph_op, columns_read(self.clause))
        return ScanGraphTableOp(self.clause, self.mapping, graph_op)


class KuzuLikeSystem(System):
    """System wrapper substituting the naive graph planner."""

    def __init__(
        self,
        catalog: Catalog,
        graph_name: str | None = None,
        memory_budget_rows: int | None = None,
        spill=False,
    ):
        config = RelGoConfig(
            graph_aware=True,
            use_graph_index=True,
            enable_rules=True,  # Kùzu does push filters into matching
            join_enumeration="greedy",
        )
        super().__init__(
            "kuzu",
            catalog,
            graph_name,
            config=config,
            memory_budget_rows=memory_budget_rows,
            spill=spill,
        )
        # Substitute the graph planner: patch the framework's converged path
        # by overriding optimize() below.

    def optimize(self, query):
        import time as _time

        from repro.core.framework import OptimizedQuery
        from repro.core.rules import apply_filter_into_match, apply_trim_and_fuse

        query = self.bind(query)
        started = _time.perf_counter()
        query, _ = apply_filter_into_match(query)
        query, _ = apply_trim_and_fuse(query)
        clause = query.graph_table
        if clause is None:
            return self.framework.optimize(query)
        index = self.framework.ensure_index()
        sgt = _NaiveGraphTable(clause, self.framework.mapping, index)
        block = self.framework._relational_block(query, extra_leaves=[sgt])
        plan, report = self.framework._relational_optimizer().optimize(block)
        physical = self.framework._lower(plan)
        return OptimizedQuery(
            physical=physical,
            logical=plan,
            optimization_time=_time.perf_counter() - started,
            relational_report=report,
        )
