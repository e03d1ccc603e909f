"""The relational optimizer facade.

Takes a :class:`QueryBlock` — leaves (scans / SCAN_GRAPH_TABLE), a bag of
conjuncts, projections, aggregates, ordering — and produces an optimized
logical plan:

1. classify conjuncts: single-leaf predicates are pushed into scans,
   two-leaf equality of columns becomes a join edge, the rest is residual;
2. enumerate the join order (DPsub / greedy / exhaustive per profile);
3. assemble joins (probe side = larger input), residual filter, projection
   pruning, then the requested projection/aggregation/sort/limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.relational.catalog import Catalog
from repro.relational.expr import (
    Expr,
    and_,
    col,
    conjoin,
    eq,
    is_equi_join_condition,
    referenced_columns,
    split_conjuncts,
    substitute_columns,
)
from repro.relational.logical import (
    AggregateSpec,
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
from repro.relational.optimizer.cardinality import CardinalityModel
from repro.relational.optimizer.dp import (
    JoinProblem,
    JoinTree,
    dp_order,
    greedy_order,
)
from repro.relational.optimizer.volcano import ExhaustiveEnumerator


@dataclass
class QueryBlock:
    """A single SELECT block in conjunctive normal form."""

    relations: list[LogicalNode]
    predicates: list[Expr] = field(default_factory=list)
    projections: list[tuple[Expr, str]] | None = None
    group_by: list[tuple[Expr, str]] = field(default_factory=list)
    aggregates: list[AggregateSpec] = field(default_factory=list)
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False


@dataclass
class RelationalOptimizerConfig:
    join_enumeration: str = "dp"  # "dp" | "greedy" | "exhaustive"
    dp_threshold: int = 12
    histograms: bool = False
    timeout: float | None = None  # exhaustive profile's wall-clock budget
    prune_projections: bool = True


@dataclass
class OptimizationReport:
    """Optimizer telemetry surfaced by the benchmark harness."""

    optimization_time: float = 0.0
    trees_visited: int = 0
    strategy: str = "dp"


class RelationalOptimizer:
    """Optimizes one query block against a catalog."""

    def __init__(self, catalog: Catalog, config: RelationalOptimizerConfig | None = None):
        self.catalog = catalog
        self.config = config or RelationalOptimizerConfig()
        self.card_model = CardinalityModel(catalog, histograms=self.config.histograms)

    def optimize(self, block: QueryBlock) -> tuple[LogicalNode, OptimizationReport]:
        started = time.perf_counter()
        report = OptimizationReport(strategy=self.config.join_enumeration)
        leaves, leaf_aliases = self._leaves_with_aliases(block.relations)
        leaves, join_edges, residual = self._classify(block, leaves, leaf_aliases)
        problem = JoinProblem(
            leaves=leaves,
            leaf_aliases=leaf_aliases,
            edges=join_edges,
            card_model=self.card_model,
        )
        tree = self._enumerate(problem, report)
        plan = self._assemble(problem, tree)
        if residual:
            plan = LogicalFilter(plan, and_(*residual))
        plan = self._finish(block, plan)
        if self.config.prune_projections:
            self._prune_projections(block, plan)
        report.optimization_time = time.perf_counter() - started
        return plan, report

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #

    @staticmethod
    def _leaves_with_aliases(
        relations: list[LogicalNode],
    ) -> tuple[list[LogicalNode], list[frozenset[str]]]:
        leaves = list(relations)
        aliases = []
        for leaf in leaves:
            quals = {
                c.split(".", 1)[0] for c in leaf.output_columns if "." in c
            }
            if not quals:
                raise PlanError(
                    f"leaf {leaf!r} must expose qualified output columns"
                )
            aliases.append(frozenset(quals))
        return leaves, aliases

    def _classify(
        self,
        block: QueryBlock,
        leaves: list[LogicalNode],
        leaf_aliases: list[frozenset[str]],
    ):
        alias_to_leaf: dict[str, int] = {}
        for i, quals in enumerate(leaf_aliases):
            for q in quals:
                if q in alias_to_leaf:
                    raise PlanError(f"alias {q!r} provided by two relations")
                alias_to_leaf[q] = i
        join_edges: dict[frozenset[int], list[tuple[str, str]]] = {}
        residual: list[Expr] = []
        single_leaf: dict[int, list[Expr]] = {}
        for conjunct in [c for p in block.predicates for c in split_conjuncts(p)]:
            owners = set()
            for name in referenced_columns(conjunct):
                qual = name.split(".", 1)[0] if "." in name else None
                if qual is not None and qual in alias_to_leaf:
                    owners.add(alias_to_leaf[qual])
                else:
                    owners.add(-1)  # unqualified / unknown: keep residual
            if owners == set() or -1 in owners:
                residual.append(conjunct)
                continue
            if len(owners) == 1:
                single_leaf.setdefault(owners.pop(), []).append(conjunct)
                continue
            pair = is_equi_join_condition(conjunct)
            if pair is not None and len(owners) == 2:
                i, j = sorted(owners)
                lcol, rcol = pair
                # Normalize so the first column belongs to leaf i.
                if alias_to_leaf[lcol.split(".", 1)[0]] != i:
                    lcol, rcol = rcol, lcol
                join_edges.setdefault(frozenset({i, j}), []).append((lcol, rcol))
            else:
                residual.append(conjunct)
        # Push single-leaf predicates.
        for i, conjuncts in single_leaf.items():
            leaf = leaves[i]
            pred = and_(*conjuncts)
            if isinstance(leaf, LogicalScan):
                merged = pred if leaf.predicate is None else and_(leaf.predicate, pred)
                # Scans evaluate predicates against unqualified base columns
                # as well as alias-qualified ones; keep as-is.
                leaves[i] = LogicalScan(
                    leaf.table_name,
                    leaf.alias,
                    leaf.table_columns,
                    predicate=merged,
                    projected=leaf.projected,
                )
            else:
                leaves[i] = LogicalFilter(leaf, pred)
        return leaves, join_edges, residual

    # ------------------------------------------------------------------ #
    # enumeration & assembly
    # ------------------------------------------------------------------ #

    def _enumerate(self, problem: JoinProblem, report: OptimizationReport) -> JoinTree:
        if problem.size == 1:
            from repro.relational.optimizer.dp import make_leaf

            return make_leaf(problem, 0)
        mode = self.config.join_enumeration
        if mode == "exhaustive":
            enumerator = ExhaustiveEnumerator(problem, timeout=self.config.timeout)
            tree = enumerator.best_plan_allow_cross()
            report.trees_visited = enumerator.trees_visited
            return tree
        if mode == "greedy" or problem.size > self.config.dp_threshold:
            report.strategy = "greedy"
            return greedy_order(problem)
        return dp_order(problem)

    def _assemble(self, problem: JoinProblem, tree: JoinTree) -> LogicalNode:
        if tree.leaf is not None:
            return problem.leaves[tree.leaf]
        assert tree.left is not None and tree.right is not None
        # Probe side (left) is the larger input; build side the smaller.
        left_tree, right_tree = tree.left, tree.right
        conditions = tree.conditions
        if left_tree.rows < right_tree.rows:
            left_tree, right_tree = right_tree, left_tree
            conditions = [(r, l) for l, r in conditions]
        left = self._assemble(problem, left_tree)
        right = self._assemble(problem, right_tree)
        condition = conjoin([eq(col(l), col(r)) for l, r in conditions])
        return LogicalJoin(left, right, condition)

    def _finish(self, block: QueryBlock, plan: LogicalNode) -> LogicalNode:
        sorted_early = limited = False
        if block.group_by or block.aggregates:
            plan = LogicalAggregate(plan, block.group_by, block.aggregates)
        elif block.projections is not None:
            # ORDER BY may reference columns the projection drops (SQL
            # permits this); in that case sort before projecting, rewriting
            # any references to projection aliases back to their expressions.
            if block.order_by and not self._keys_resolve(
                block.order_by, [a for _, a in block.projections]
            ):
                alias_exprs = {alias: expr for expr, alias in block.projections}
                keys = [
                    (substitute_columns(key, alias_exprs), asc)
                    for key, asc in block.order_by
                ]
                plan = LogicalSort(plan, keys)
                sorted_early = True
                # A projection keeps every row in order, so the limit
                # applies right above the sort, where lowering fuses the
                # pair into a top-k: O(k) buffered rows, not the input.
                # DISTINCT drops rows, so it keeps the limit above itself.
                if block.limit is not None and not block.distinct:
                    plan = LogicalLimit(plan, block.limit)
                    limited = True
            plan = LogicalProject(plan, block.projections)
        if block.distinct:
            plan = LogicalDistinct(plan)
        if block.order_by and not sorted_early:
            plan = LogicalSort(plan, block.order_by)
        if block.limit is not None and not limited:
            plan = LogicalLimit(plan, block.limit)
        return plan

    @staticmethod
    def _keys_resolve(order_by: list[tuple[Expr, bool]], aliases: list[str]) -> bool:
        available = set(aliases)
        for key, _ in order_by:
            if not referenced_columns(key) <= available:
                return False
        return True

    # ------------------------------------------------------------------ #
    # projection pruning
    # ------------------------------------------------------------------ #

    def _prune_projections(self, block: QueryBlock, plan: LogicalNode) -> None:
        """Restrict every base scan to the columns the query references.

        Scan predicates are evaluated against the base row during the scan,
        so filter-only columns need not be projected.
        """
        if block.projections is None and not block.aggregates and not block.group_by:
            # SELECT *: every column is part of the output; nothing to prune.
            return
        needed: set[str] = set()
        for p in block.predicates:
            needed |= referenced_columns(p)
        if block.projections:
            for e, _ in block.projections:
                needed |= referenced_columns(e)
        for e, _ in block.group_by:
            needed |= referenced_columns(e)
        for spec in block.aggregates:
            if spec.arg is not None:
                needed |= referenced_columns(spec.arg)
        for e, _ in block.order_by:
            needed |= referenced_columns(e)
        from repro.relational.logical import walk

        for node in walk(plan):
            if isinstance(node, LogicalScan) and node.projected is None:
                keep = []
                for column in node.table_columns:
                    if f"{node.alias}.{column}" in needed or column in needed:
                        keep.append(column)
                node.projected = keep
