"""Lowering: logical plans → physical operators.

Two modes:

* **plain** — scans, hash joins, filters, projections (the DuckDB baseline).
* **graph-indexed** — GRainDB's improvement (Sec 4.1): eligible hash joins
  are replaced by *predefined joins*.  A join ``edge.fk = vertex.pk`` whose
  edge tuples are already flowing becomes a :class:`RowIdJoin` following the
  EV-index pointer; a join ``vertex.pk = edge.fk`` whose vertex tuples are
  flowing becomes a :class:`CsrJoin` walking the VE-index.  Joins the order
  does not make eligible (the paper's GRainDB weakness — "relational
  optimizers can occasionally alter the order of EVJoin operations, making
  graph index ineffective") silently fall back to hash joins.

The substitution needs leaves to emit hidden columns (vertex rowids, edge
EV pointers), so lowering runs in two passes: an analysis pass walks the
join tree, decides each join's strategy and records which scans must emit
what; the build pass then constructs operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.relational.catalog import Catalog
from repro.relational.expr import (
    Expr,
    conjoin,
    is_equi_join_condition,
    split_conjuncts,
)
from repro.relational.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.relational.physical import (
    AggregateOp,
    CsrJoin,
    DistinctOp,
    FilterOp,
    HashJoin,
    LimitOp,
    PhysicalOperator,
    ProjectOp,
    RowIdJoin,
    SeqScan,
    SortOp,
    TopKOp,
)


def ptr_column(edge_alias: str, endpoint: str) -> str:
    """Name of the hidden EV-pointer column for one endpoint of an edge scan."""
    return f"{edge_alias}._ptr_{endpoint}"


def rowid_column(alias: str) -> str:
    return f"{alias}._rowid"


@dataclass
class _JoinDecision:
    strategy: str  # "hash" | "rowid" | "csr"
    # rowid: pointer column to follow + matched condition index
    pointer: str | None = None
    matched: tuple[str, str] | None = None
    # csr: probe vertex alias + adjacency key + far endpoint
    vertex_alias: str | None = None
    adjacency_key: tuple[str, str, str] | None = None
    far_endpoint: str | None = None
    swap: bool = False


@dataclass
class _Analysis:
    decisions: dict[int, _JoinDecision] = field(default_factory=dict)
    # edge scan alias -> endpoints ("src"/"dst") whose pointers must be emitted
    pointer_reqs: dict[str, set[str]] = field(default_factory=dict)
    # vertex aliases whose rowid must be emitted by whatever attaches them
    rowid_reqs: set[str] = field(default_factory=set)


class PhysicalPlanner:
    """Lowers logical plans, optionally substituting predefined joins."""

    def __init__(
        self,
        catalog: Catalog,
        use_graph_index: bool = False,
        graph_name: str | None = None,
    ):
        self.catalog = catalog
        self.use_graph_index = use_graph_index
        self.mapping = None
        self.index = None
        if use_graph_index:
            if graph_name is None:
                graph_name = catalog.default_graph().name
            self.mapping = catalog.graph(graph_name)
            self.index = catalog.graph_index(graph_name)
            if self.index is None:
                raise PlanError(
                    f"graph {graph_name!r} has no graph index; build it first"
                )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def lower(self, node: LogicalNode) -> PhysicalOperator:
        analysis = _Analysis()
        if self.use_graph_index:
            self._analyze(node, analysis)
        return self._build(node, analysis)

    # ------------------------------------------------------------------ #
    # analysis pass
    # ------------------------------------------------------------------ #

    def _scan_tables(self, node: LogicalNode) -> dict[str, str]:
        """alias -> table name for every base scan in the subtree."""
        out: dict[str, str] = {}
        stack = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, LogicalScan):
                out[n.alias] = n.table_name
            stack.extend(n.children())
        return out

    def _analyze(self, node: LogicalNode, analysis: _Analysis) -> None:
        if isinstance(node, LogicalJoin):
            self._analyze(node.left, analysis)
            self._analyze(node.right, analysis)
            decision = self._decide_join(node, analysis)
            analysis.decisions[id(node)] = decision
            return
        for child in node.children():
            self._analyze(child, analysis)

    def _decide_join(self, node: LogicalJoin, analysis: _Analysis) -> _JoinDecision:
        assert self.mapping is not None
        if node.condition is None:
            return _JoinDecision("hash")
        conjuncts = split_conjuncts(node.condition)
        equi = [is_equi_join_condition(c) for c in conjuncts]
        pairs = [p for p in equi if p is not None]
        # Predefined joins handle exactly one FK equality and nothing else;
        # composite, residual-carrying and keyless joins stay hash joins.
        if len(conjuncts) != 1 or len(pairs) != 1:
            return _JoinDecision("hash")
        lcol, rcol = pairs[0]
        left_tables = self._scan_tables(node.left)
        right_tables = self._scan_tables(node.right)
        for swap in (False, True):
            pipe_tables = right_tables if swap else left_tables
            scan_side = node.left if swap else node.right
            # The extension side must be a bare scan (possibly filtered).
            scan = _bare_scan(scan_side)
            if scan is None:
                continue
            pipe_col, scan_col = (rcol, lcol) if swap else (lcol, rcol)
            if scan_col.split(".", 1)[0] != scan.alias:
                pipe_col, scan_col = scan_col, pipe_col
            if scan_col.split(".", 1)[0] != scan.alias:
                continue
            pipe_alias = pipe_col.split(".", 1)[0]
            if pipe_alias not in pipe_tables:
                continue
            decision = self._match_predefined(
                pipe_alias,
                pipe_tables[pipe_alias],
                pipe_col.rsplit(".", 1)[-1],
                scan,
                scan_col.rsplit(".", 1)[-1],
                analysis,
            )
            if decision is not None:
                decision.swap = swap
                decision.matched = (pipe_col, scan_col)
                return decision
        return _JoinDecision("hash")

    def _match_predefined(
        self,
        pipe_alias: str,
        pipe_table: str,
        pipe_column: str,
        scan: LogicalScan,
        scan_column: str,
        analysis: _Analysis,
    ) -> _JoinDecision | None:
        assert self.mapping is not None
        # Pattern A: pipeline has the edge tuples, the scan is the vertex
        # relation -> RowIdJoin along the EV pointer.
        for em in self.mapping.edges.values():
            if em.table_name != pipe_table:
                continue
            for endpoint, fk, vlabel in (
                ("src", em.source_key, em.source_label),
                ("dst", em.target_key, em.target_label),
            ):
                vm = self.mapping.vertex(vlabel)
                if (
                    pipe_column == fk
                    and scan.table_name == vm.table_name
                    and scan_column == vm.key
                ):
                    analysis.pointer_reqs.setdefault(pipe_alias, set()).add(endpoint)
                    return _JoinDecision(
                        "rowid", pointer=ptr_column(pipe_alias, endpoint)
                    )
        # Pattern B: pipeline has the vertex tuples, the scan is the edge
        # relation -> CsrJoin along the VE adjacency.
        for em in self.mapping.edges.values():
            if em.table_name != scan.table_name:
                continue
            for direction, fk, vlabel in (
                ("out", em.source_key, em.source_label),
                ("in", em.target_key, em.target_label),
            ):
                vm = self.mapping.vertex(vlabel)
                if (
                    scan_column == fk
                    and pipe_table == vm.table_name
                    and pipe_column == vm.key
                ):
                    assert self.index is not None
                    if not self.index.has_adjacency(vlabel, em.label, direction):
                        continue
                    analysis.rowid_reqs.add(pipe_alias)
                    far = "dst" if direction == "out" else "src"
                    return _JoinDecision(
                        "csr",
                        vertex_alias=pipe_alias,
                        adjacency_key=(vlabel, em.label, direction),
                        far_endpoint=far,
                    )
        return None

    # ------------------------------------------------------------------ #
    # build pass
    # ------------------------------------------------------------------ #

    def _build(self, node: LogicalNode, analysis: _Analysis) -> PhysicalOperator:
        to_physical = getattr(node, "to_physical", None)
        if to_physical is not None:
            return to_physical(self.catalog)
        if isinstance(node, LogicalScan):
            return self._build_scan(node, analysis)
        if isinstance(node, LogicalFilter):
            return FilterOp(self._build(node.child, analysis), node.predicate)
        if isinstance(node, LogicalProject):
            return ProjectOp(self._build(node.child, analysis), node.exprs)
        if isinstance(node, LogicalJoin):
            return self._build_join(node, analysis)
        if isinstance(node, LogicalAggregate):
            return AggregateOp(
                self._build(node.child, analysis), node.group_by, node.aggregates
            )
        if isinstance(node, LogicalSort):
            return SortOp(self._build(node.child, analysis), node.keys)
        if isinstance(node, LogicalLimit):
            # ORDER BY ... LIMIT k fuses into a streaming top-k selection:
            # O(k) buffered state instead of a full sort, identical rows.
            if isinstance(node.child, LogicalSort):
                return TopKOp(
                    self._build(node.child.child, analysis),
                    node.child.keys,
                    node.limit,
                )
            return LimitOp(self._build(node.child, analysis), node.limit)
        if isinstance(node, LogicalDistinct):
            return DistinctOp(self._build(node.child, analysis))
        raise PlanError(f"cannot lower {type(node).__name__}")

    def _build_scan(self, node: LogicalScan, analysis: _Analysis) -> PhysicalOperator:
        table = self.catalog.table(node.table_name)
        pointer_columns: list[tuple[str, list[int]]] = []
        endpoints = analysis.pointer_reqs.get(node.alias, set())
        if endpoints:
            assert self.mapping is not None and self.index is not None
            edge_label = self._edge_label_of(node.table_name)
            ev = self.index.edge_index(edge_label)
            if "src" in endpoints:
                pointer_columns.append((ptr_column(node.alias, "src"), ev.src_rowids))
            if "dst" in endpoints:
                pointer_columns.append((ptr_column(node.alias, "dst"), ev.dst_rowids))
        return SeqScan(
            table,
            node.alias,
            predicate=node.predicate,
            projected=node.projected,
            emit_rowid=node.alias in analysis.rowid_reqs,
            pointer_columns=pointer_columns,
        )

    def _edge_label_of(self, table_name: str) -> str:
        assert self.mapping is not None
        for em in self.mapping.edges.values():
            if em.table_name == table_name:
                return em.label
        raise PlanError(f"table {table_name!r} is not an edge relation")

    def _build_join(self, node: LogicalJoin, analysis: _Analysis) -> PhysicalOperator:
        decision = analysis.decisions.get(id(node), _JoinDecision("hash"))
        if decision.strategy == "rowid":
            return self._build_rowid_join(node, decision, analysis)
        if decision.strategy == "csr":
            return self._build_csr_join(node, decision, analysis)
        left = self._build(node.left, analysis)
        right = self._build(node.right, analysis)
        if node.condition is None:
            return HashJoin(left, right, [], [])
        conjuncts = split_conjuncts(node.condition)
        left_cols, right_cols, residual = [], [], []
        left_quals = {c.split(".", 1)[0] for c in left.output_columns if "." in c}
        for c in conjuncts:
            pair = is_equi_join_condition(c)
            if pair is None:
                residual.append(c)
                continue
            a, b = pair
            if a.split(".", 1)[0] in left_quals:
                left_cols.append(a)
                right_cols.append(b)
            else:
                left_cols.append(b)
                right_cols.append(a)
        if not left_cols:
            # No equi conjunct: one bucket, the whole condition as residual.
            return HashJoin(left, right, [], [], residual=node.condition)
        return HashJoin(left, right, left_cols, right_cols, residual=conjoin(residual))

    def _build_rowid_join(
        self, node: LogicalJoin, decision: _JoinDecision, analysis: _Analysis
    ) -> PhysicalOperator:
        pipe_node = node.right if decision.swap else node.left
        scan_node = node.left if decision.swap else node.right
        scan = _bare_scan(scan_node)
        assert scan is not None and decision.pointer is not None
        pipe = self._build(pipe_node, analysis)
        table = self.catalog.table(scan.table_name)
        return RowIdJoin(
            pipe,
            pointer_column=decision.pointer,
            table=table,
            alias=scan.alias,
            projected=scan.projected,
            predicate=_scan_filter(scan_node),
            emit_rowid=scan.alias in analysis.rowid_reqs,
        )

    def _build_csr_join(
        self, node: LogicalJoin, decision: _JoinDecision, analysis: _Analysis
    ) -> PhysicalOperator:
        assert self.index is not None
        pipe_node = node.right if decision.swap else node.left
        scan_node = node.left if decision.swap else node.right
        scan = _bare_scan(scan_node)
        assert scan is not None and decision.adjacency_key is not None
        pipe = self._build(pipe_node, analysis)
        adjacency = self.index.adjacency(*decision.adjacency_key)
        edge_label = decision.adjacency_key[1]
        ev = self.index.edge_index(edge_label)
        far_values = ev.dst_rowids if decision.far_endpoint == "dst" else ev.src_rowids
        far_name = ptr_column(scan.alias, decision.far_endpoint or "dst")
        return CsrJoin(
            pipe,
            vertex_rowid_column=rowid_column(decision.vertex_alias or ""),
            csr_offsets=adjacency.offsets,
            csr_edges=adjacency.edge_rowids,
            edge_table=self.catalog.table(scan.table_name),
            edge_alias=scan.alias,
            projected=scan.projected,
            predicate=_scan_filter(scan_node),
            far_pointer=(far_name, far_values),
        )


def _bare_scan(node: LogicalNode) -> LogicalScan | None:
    """The scan beneath at most one filter, else None."""
    if isinstance(node, LogicalScan):
        return node
    if isinstance(node, LogicalFilter) and isinstance(node.child, LogicalScan):
        return node.child
    return None


def _scan_filter(node: LogicalNode) -> Expr | None:
    """Combined predicate of a (possibly filtered) scan node."""
    if isinstance(node, LogicalScan):
        return node.predicate
    if isinstance(node, LogicalFilter) and isinstance(node.child, LogicalScan):
        child_pred = node.child.predicate
        if child_pred is None:
            return node.predicate
        from repro.relational.expr import and_

        return and_(child_pred, node.predicate)
    return None
