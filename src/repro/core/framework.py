"""RelGo: the converged relational-graph optimization framework (Sec 4).

``RelGoFramework`` owns one property graph (RGMapping + optional graph
index + GLogue statistics) over a catalog, and optimizes SPJM queries
end-to-end::

    SPJM query
      └─ heuristic rules (FilterIntoMatchRule, TrimAndFuseRule,
         DeadBranchRule)                                            [4.2.3]
      └─ graph optimization of M(P) -> decomposition tree            [4.2.1]
      └─ SCAN_GRAPH_TABLE wraps the graph plan as a relational leaf  [4.2.2]
      └─ relational optimization (DP join ordering) + lowering
         (predefined joins when the graph index is available)

Setting ``graph_aware=False`` switches the same entry point to the
graph-agnostic pipeline of Sec 4.1 (Lemma 1 translation + purely relational
optimization), which is how the DuckDB / GRainDB / Umbra / Calcite baselines
are realized — one framework, different configs, identical execution engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.errors import CatalogError, PlanError
from repro.graph.cost import CardinalityEstimator
from repro.graph.glogue import GLogue
from repro.graph.index import GraphIndex, build_graph_index
from repro.graph.optimizer import (
    GraphOptimizer,
    GraphOptimizerConfig,
    GraphPlan,
    LoweringConfig,
    dead_branches,
)
from repro.exec import QueryResult, execute_plan, open_plan
from repro.relational.catalog import Catalog
from repro.relational.expr import col, substitute_columns
from repro.relational.logical import AggregateSpec, LogicalNode
from repro.relational.lowering import PhysicalPlanner
from repro.relational.optimizer import (
    QueryBlock,
    RelationalOptimizer,
    RelationalOptimizerConfig,
)
from repro.relational.physical import PhysicalOperator
from repro.core.rules import (
    RuleReport,
    apply_dead_branch,
    apply_filter_into_match,
    apply_trim_and_fuse,
)
from repro.core.scan_graph_table import LogicalScanGraphTable
from repro.core.spjm import SPJMQuery
from repro.core.transform import translate_match


@dataclass
class RelGoConfig:
    """All the paper's system variants are points in this config space.

    ========================  =============================================
    paper system              config
    ========================  =============================================
    RelGo                     defaults
    RelGoNoRule               ``enable_rules=False``
    RelGoNoEI                 ``enable_expand_intersect=False``
    RelGoHash                 ``use_graph_index=False``
    DuckDB (graph-agnostic)   ``graph_aware=False, use_graph_index=False``
    GRainDB                   ``graph_aware=False`` (index on)
    Umbra plans               ``graph_aware=False, histograms=True``
    Calcite (Fig 4b)          ``graph_aware=False,
                              join_enumeration="exhaustive"``
    ========================  =============================================
    """

    graph_aware: bool = True
    use_graph_index: bool = True
    enable_rules: bool = True
    enable_expand_intersect: bool = True
    use_glogue: bool = True
    histograms: bool = False
    join_enumeration: str = "dp"
    optimizer_timeout: float | None = None
    memory_budget_rows: int | None = None
    # Target chunk size of the streaming executor; None keeps the engine
    # default (repro.exec.DEFAULT_BATCH_SIZE).
    batch_size: int | None = None
    # Pull plans through the vectorized columnar protocol (default) or the
    # relational operators' row-tuple reference bodies (what the benchmark
    # oracle runs; graph operators have one, columnar, body either way);
    # results are identical (parity-tested).
    columnar: bool = True
    # Degree of morsel-driven parallelism for plan execution; None defers
    # to REPRO_PARALLELISM (default 1 = serial).  The optimizer and its
    # plan traces are unaffected — parallel plans are rewritten per
    # execution (exchange operators over leaf morsels).
    parallelism: int | None = None
    # Per-query execution deadline in seconds; None defers to
    # REPRO_QUERY_TIMEOUT (default: no deadline).  Expiry raises
    # QueryTimeout at the next batch boundary with full teardown —
    # distinct from optimizer_timeout, the paper's OT knob.
    query_timeout: float | None = None
    # Spill-to-disk (out-of-core) execution.  None defers to
    # REPRO_SPILL_DIR / REPRO_SPILL_THRESHOLD (default: disarmed — the
    # paper's OOM trip points stay byte-exact); False disarms regardless
    # of the environment; True / a directory path / a threshold int / a
    # SpillConfig arms it (see repro.exec.spill.resolve_spill).
    spill: Any = None

    def execution_settings(self) -> dict[str, Any]:
        """This config as ``open_plan`` / ``execute_plan`` keywords."""
        return {
            "memory_budget_rows": self.memory_budget_rows,
            "batch_size": self.batch_size,
            "columnar": self.columnar,
            "parallelism": self.parallelism,
            "timeout": self.query_timeout,
            "spill": self.spill,
        }


@dataclass
class OptimizedQuery:
    """An optimized SPJM query ready for execution."""

    physical: PhysicalOperator
    logical: LogicalNode
    optimization_time: float
    graph_plan: GraphPlan | None = None
    rule_report: RuleReport | None = None
    relational_report: Any = None

    def explain(self) -> str:
        return self.physical.explain()


class RelGoFramework:
    """The converged optimizer bound to one catalog + property graph."""

    def __init__(
        self,
        catalog: Catalog,
        graph_name: str | None = None,
        config: RelGoConfig | None = None,
    ):
        self.catalog = catalog
        self.config = config or RelGoConfig()
        if graph_name:
            self.mapping = catalog.graph(graph_name)
        elif catalog.graph_names():
            self.mapping = catalog.default_graph()
        else:
            # Relational-only catalog: the framework still optimizes and
            # executes plain SQL blocks; only graph queries need a mapping.
            self.mapping = None
        self.graph_name = None if self.mapping is None else self.mapping.name
        self._glogue: GLogue | None = None
        self._estimator: CardinalityEstimator | None = None

    # ------------------------------------------------------------------ #
    # preparation (offline statistics / index, excluded from opt time)
    # ------------------------------------------------------------------ #

    def ensure_index(self) -> GraphIndex:
        if self.mapping is None:
            raise CatalogError("no property graph is registered in this catalog")
        index = self.catalog.graph_index(self.graph_name)
        if index is None:
            index = build_graph_index(self.mapping)
            self.catalog.register_graph_index(index)
        return index

    @property
    def glogue(self) -> GLogue:
        if self._glogue is None:
            self._glogue = GLogue(self.mapping, self.ensure_index(), sample_ratio=0.1)
        return self._glogue

    @property
    def estimator(self) -> CardinalityEstimator:
        if self._estimator is None:
            self._estimator = CardinalityEstimator(
                self.glogue, self.catalog, use_glogue=self.config.use_glogue
            )
        return self._estimator

    def prepare(self) -> None:
        """Build the graph index and warm statistics (an offline step)."""
        if self.mapping is not None:
            self.ensure_index()
        self.catalog.analyze()
        if self.mapping is not None:
            _ = self.glogue

    # ------------------------------------------------------------------ #
    # optimization
    # ------------------------------------------------------------------ #

    def optimize(self, query: SPJMQuery) -> OptimizedQuery:
        started = time.perf_counter()
        if query.graph_table is None:
            optimized = self._optimize_relational_only(query)
        elif self.config.graph_aware:
            optimized = self._optimize_converged(query)
        else:
            optimized = self._optimize_agnostic(query)
        optimized.optimization_time = time.perf_counter() - started
        return optimized

    def execute(self, optimized: OptimizedQuery, handle=None) -> QueryResult:
        return execute_plan(
            optimized.physical, handle=handle, **self.config.execution_settings()
        )

    def execute_iter(self, optimized: OptimizedQuery, handle=None):
        """Stream result batches without materializing the full result.

        Unlike :meth:`execute`, nothing is retained across batches, so
        arbitrarily large results can be consumed under a fixed memory
        budget; only genuinely buffering operators (hash builds, sorts)
        charge the budget.  Yields lists of row tuples.

        The full query lifecycle applies (:func:`~repro.exec.open_plan`):
        a consumer that abandons the iterator (``break``, ``close()``, or
        an exception in the loop body) tears the query down when this
        generator closes, not at GC time.
        """
        keywords = self.config.execution_settings()
        with open_plan(optimized.physical, handle=handle, **keywords) as (_, stream):
            if self.config.columnar:
                # Rows materialize only at this yield boundary.
                for batch in stream:
                    yield batch.to_rows()
            else:
                yield from stream

    def run(self, query: SPJMQuery) -> tuple[QueryResult, OptimizedQuery]:
        optimized = self.optimize(query)
        return self.execute(optimized), optimized

    # ------------------------------------------------------------------ #
    # converged pipeline (Sec 4.2)
    # ------------------------------------------------------------------ #

    def _optimize_converged(self, query: SPJMQuery) -> OptimizedQuery:
        clause = query.graph_table
        assert clause is not None
        if clause.graph_name != self.graph_name:
            raise CatalogError(
                f"query targets graph {clause.graph_name!r}, framework is bound "
                f"to {self.graph_name!r}"
            )
        rule_report = RuleReport()
        if self.config.enable_rules:
            query, push_report = apply_filter_into_match(query)
            query, trim_report = apply_trim_and_fuse(query)
            live, reducible = apply_dead_branch(query, trim_report) or (None, {})
            rule_report = RuleReport(
                pushed_constraints=push_report.pushed_constraints,
                trimmed_columns=trim_report.trimmed_columns,
                trimmed_edge_vars=trim_report.trimmed_edge_vars,
                needed_edge_vars=trim_report.needed_edge_vars,
                live_vertices=live,
                reducible=reducible,
            )
        clause = query.graph_table
        assert clause is not None
        graph_optimizer = GraphOptimizer(
            self.mapping,
            self.estimator,
            GraphOptimizerConfig(use_graph_index=self.config.use_graph_index),
        )
        graph_plan = graph_optimizer.optimize(clause.pattern)
        index = self.ensure_index() if self.config.use_graph_index else None
        stripped = {}
        if rule_report.live_vertices is not None and index is not None:
            stripped = dead_branches(
                graph_plan, rule_report.live_vertices, index, rule_report.reducible
            )
            for anchor, branches in stripped.items():
                for b in branches:
                    if b.reductions():
                        rule_report.reduced_branches.append(b.summary(anchor))
                    else:
                        rule_report.pruned_branches.append(b.summary(anchor))
        lowering = LoweringConfig(
            use_graph_index=self.config.use_graph_index,
            enable_expand_intersect=self.config.enable_expand_intersect,
            needed_edge_vars=(
                rule_report.needed_edge_vars
                if self.config.enable_rules
                else frozenset(clause.pattern.edges)
            ),
            fuse=self.config.enable_rules,
            semantics=clause.semantics,
            stripped=stripped,
        )
        sgt = LogicalScanGraphTable(clause, self.mapping, index, graph_plan, lowering)
        block = self._relational_block(query, extra_leaves=[sgt])
        plan, report = self._relational_optimizer().optimize(block)
        physical = self._lower(plan)
        return OptimizedQuery(
            physical=physical,
            logical=plan,
            optimization_time=0.0,
            graph_plan=graph_plan,
            rule_report=rule_report,
            relational_report=report,
        )

    # ------------------------------------------------------------------ #
    # graph-agnostic pipeline (Sec 4.1)
    # ------------------------------------------------------------------ #

    def _optimize_agnostic(self, query: SPJMQuery) -> OptimizedQuery:
        clause = query.graph_table
        assert clause is not None
        translation = translate_match(clause, self.mapping, self.catalog)
        substitution = translation.column_exprs
        predicates = translation.join_predicates + [
            substitute_columns(p, substitution) for p in query.predicates
        ]
        projections = None
        if query.projections is not None:
            projections = [
                (substitute_columns(e, substitution), a)
                for e, a in query.projections
            ]
        elif not query.aggregates and not query.group_by:
            # SELECT * over the graph table: the output is the COLUMNS clause
            # (plus any joined relations' columns), matching what the
            # converged SCAN_GRAPH_TABLE path produces.
            projections = [
                (substitution[f"{clause.alias}.{c.alias}"], f"{clause.alias}.{c.alias}")
                for c in clause.columns
            ]
            for table_name, alias in query.relations:
                for column in self.catalog.table(table_name).schema.column_names:
                    name = f"{alias}.{column}"
                    projections.append((substitute_columns(col(name), {}), name))
        group_by = [
            (substitute_columns(e, substitution), a) for e, a in query.group_by
        ]
        aggregates = [
            AggregateSpec(
                s.func,
                substitute_columns(s.arg, substitution) if s.arg is not None else None,
                s.alias,
            )
            for s in query.aggregates
        ]
        order_by = [
            (substitute_columns(e, substitution), asc) for e, asc in query.order_by
        ]
        leaves: list[LogicalNode] = list(translation.scans)
        leaves.extend(self._relation_scans(query))
        block = QueryBlock(
            relations=leaves,
            predicates=predicates,
            projections=projections,
            group_by=group_by,
            aggregates=aggregates,
            order_by=order_by,
            limit=query.limit,
            distinct=query.distinct,
        )
        plan, report = self._relational_optimizer().optimize(block)
        physical = self._lower(plan)
        return OptimizedQuery(
            physical=physical,
            logical=plan,
            optimization_time=0.0,
            relational_report=report,
        )

    def _optimize_relational_only(self, query: SPJMQuery) -> OptimizedQuery:
        block = self._relational_block(query, extra_leaves=[])
        plan, report = self._relational_optimizer().optimize(block)
        return OptimizedQuery(
            physical=self._lower(plan),
            logical=plan,
            optimization_time=0.0,
            relational_report=report,
        )

    # ------------------------------------------------------------------ #
    # shared plumbing
    # ------------------------------------------------------------------ #

    def _relation_scans(self, query: SPJMQuery) -> list[LogicalNode]:
        from repro.relational.logical import LogicalScan

        out: list[LogicalNode] = []
        for table_name, alias in query.relations:
            schema = self.catalog.table(table_name).schema
            out.append(LogicalScan(table_name, alias, schema.column_names))
        return out

    def _relational_block(
        self, query: SPJMQuery, extra_leaves: list[LogicalNode]
    ) -> QueryBlock:
        leaves = list(extra_leaves)
        leaves.extend(self._relation_scans(query))
        if not leaves:
            raise PlanError("query has neither a graph table nor relations")
        return QueryBlock(
            relations=leaves,
            predicates=list(query.predicates),
            projections=query.projections,
            group_by=list(query.group_by),
            aggregates=list(query.aggregates),
            order_by=list(query.order_by),
            limit=query.limit,
            distinct=query.distinct,
        )

    def _relational_optimizer(self) -> RelationalOptimizer:
        return RelationalOptimizer(
            self.catalog,
            RelationalOptimizerConfig(
                join_enumeration=self.config.join_enumeration,
                histograms=self.config.histograms,
                timeout=self.config.optimizer_timeout,
            ),
        )

    def _lower(self, plan: LogicalNode) -> PhysicalOperator:
        use_index = (
            self.config.use_graph_index
            and self.catalog.graph_index(self.graph_name) is not None
        )
        planner = PhysicalPlanner(
            self.catalog,
            use_graph_index=use_index,
            graph_name=self.graph_name if use_index else None,
        )
        return planner.lower(plan)
