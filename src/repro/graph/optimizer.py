"""The graph-aware optimizer: decomposition-tree search and plan lowering.

Search (Sec 3.1.2 / 4.2.1)
--------------------------
The optimizer explores decomposition trees whose nodes are **induced,
connected sub-patterns** of the query pattern ``P`` and whose leaves are
Minimum Matching Components (single vertices and complete stars):

* **Star step** — remove a vertex ``u`` whose removal keeps the sub-pattern
  connected; the right child is the complete star ``P(u; N(u))``, realized
  physically by EXPAND (one leg) or EXPAND_INTERSECT (≥ 2 legs).
* **Binary join** — split into two overlapping induced connected
  sub-patterns joined on their common vertices (Case I, HASH_JOIN).

Memoization is keyed by the sub-pattern's vertex set (induced sub-patterns
of a fixed ``P`` are uniquely determined by it), so the search is a shortest
path through exactly the GLogue-shaped space the paper describes.  Vertex
sets are bitmasks (:class:`~repro.graph.pattern.VertexMasks`): candidates
are generated and checked for connectivity at the bit level, cardinalities
come from one per-mask estimator, and a candidate is priced from numbers
alone (its children's memo entries and its legs' degrees).  A
``PatternGraph``, ``StarStep`` and ``GraphPlan`` are built only for the
chosen plan's nodes, once the search is done.

Lowering (Sec 3.2.2)
--------------------
``lower_plan`` turns the winning decomposition tree into physical graph
operators.  Flags reproduce the paper's ablations:

* ``use_graph_index=False`` — every step becomes EVJoin-based hash joins
  (the RelGoHash variant / no-index execution);
* ``enable_expand_intersect=False`` — complete stars are implemented as
  "traditional multiple joins" (the RelGoNoEI variant of Fig 9);
* ``needed_edge_vars`` — the TrimAndFuseRule outcome: edge variables absent
  from the set are trimmed and EXPAND_EDGE + GET_VERTEX fuse into EXPAND;
* ``stripped`` — the DeadBranchRule outcome (:func:`dead_branches`): the
  star steps of each stripped dangling branch are dropped, and the
  operator that binds the branch's anchor vertex is followed by one EXISTS
  check for the anchor's branches that reduce nothing and one REDUCE for
  those read inside MIN / MAX (both :class:`BranchReduce`).  The chosen
  plan, its costs and ``GraphPlan.explain()`` are untouched.

A self-loop is never a star leg.  Once a scan or star step binds its
vertex, the plan joins the loop's edges (an ``EDGE_SCAN v -[L]-> v``), in
every mode.

Lowering ends with one liveness walk (:func:`carry_live`): each operator
that builds its batches anew carries only the variables read above it,
and ``explain()`` names the ones it stops carrying.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.errors import PlanError
from repro.exec.operator import Operator
from repro.graph.cost import CardinalityEstimator, CostModel, MaskEstimates, StarStep
from repro.graph.index import GraphIndex
from repro.graph.pattern import PatternEdge, PatternGraph, PatternVertex, VertexMasks
from repro.graph.physical import (
    AllDistinct,
    Branch,
    BranchReduce,
    EdgeTripleScan,
    Expand,
    ExpandEdge,
    ExpandIntersect,
    GetVertex,
    GraphOperator,
    PatternHashJoin,
    ScanVertex,
    StarLeg,
)
from repro.graph.rgmapping import RGMapping


@dataclass
class GraphPlan:
    """One node of the chosen decomposition tree (a logical graph plan)."""

    pattern: PatternGraph
    kind: str  # "scan" | "expand" | "join"
    cardinality: float
    cost: float
    child: "GraphPlan | None" = None  # expand: the P'_l sub-plan
    step: StarStep | None = None  # expand: the star being closed
    left: "GraphPlan | None" = None  # join children
    right: "GraphPlan | None" = None

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.kind == "scan":
            v = next(iter(self.pattern.vertices.values()))
            return f"{pad}MATCH_SCAN {v.name}:{v.label} (card≈{self.cardinality:.1f})"
        if self.kind == "expand":
            assert self.step is not None and self.child is not None
            legs = ", ".join(
                f"{leaf}-[{e.label}]" for leaf, e in self.step.legs
            )
            op = "EXPAND" if len(self.step.legs) == 1 else "EXPAND_INTERSECT"
            lines = [
                f"{pad}{op} -> {self.step.center} via ({legs}) "
                f"(card≈{self.cardinality:.1f})"
            ]
            lines.append(self.child.explain(indent + 1))
            return "\n".join(lines)
        assert self.left is not None and self.right is not None
        lines = [f"{pad}PATTERN_JOIN (card≈{self.cardinality:.1f})"]
        lines.append(self.left.explain(indent + 1))
        lines.append(self.right.explain(indent + 1))
        return "\n".join(lines)

    def operators(self) -> list[str]:
        """Flat list of operator kinds, for plan-shape assertions in tests."""
        if self.kind == "scan":
            return ["scan"]
        if self.kind == "expand":
            assert self.child is not None and self.step is not None
            op = "expand" if len(self.step.legs) == 1 else "intersect"
            return self.child.operators() + [op]
        assert self.left is not None and self.right is not None
        return self.left.operators() + self.right.operators() + ["join"]


@dataclass
class GraphOptimizerConfig:
    """Knobs reproducing the paper's system variants."""

    use_graph_index: bool = True
    # Patterns with at most this many vertices search binary joins; larger
    # ones rely on star steps only (keeps the search polynomial in practice).
    binary_join_limit: int = 8


#: One searched mask: ``(cost, cardinality, decision)`` of its cheapest
#: plan, the decision being ``("scan", 0, 0)`` or a :func:`decompositions`
#: candidate.
SearchEntry = tuple[float, float, tuple[str, int, int]]


class GraphOptimizer:
    """Cost-based decomposition search over one pattern."""

    def __init__(
        self,
        mapping: RGMapping,
        estimator: CardinalityEstimator,
        config: GraphOptimizerConfig | None = None,
    ):
        self.mapping = mapping
        self.estimator = estimator
        self.config = config or GraphOptimizerConfig()
        self.cost_model = CostModel(
            estimator.glogue, use_graph_index=self.config.use_graph_index
        )

    def optimize(self, pattern: PatternGraph) -> GraphPlan:
        if not pattern.is_connected():
            raise PlanError("can only optimize connected patterns")
        masks = VertexMasks(pattern)
        memo: dict[int, SearchEntry] = {}
        self._best(masks, self.estimator.over(masks), masks.full, memo)
        return _build(masks, memo, masks.full, {})

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #

    def _best(
        self,
        masks: VertexMasks,
        cards: MaskEstimates,
        mask: int,
        memo: dict[int, SearchEntry],
    ) -> SearchEntry:
        """The :data:`SearchEntry` of ``mask``'s sub-pattern; the first of
        equally cheap candidates wins."""
        entry = memo.get(mask)
        if entry is not None:
            return entry
        card = cards.cardinality(mask)
        costs = self.cost_model
        best = decision = None
        if mask & (mask - 1) == 0:
            best = costs.scan_cost(masks.labels[mask.bit_length() - 1], card)
            decision = ("scan", 0, 0)
        for candidate in decompositions(masks, mask, self.config):
            kind, a, b = candidate
            if kind == "expand":
                child_cost, child_card, _ = self._best(masks, cards, b, memo)
                cost = child_cost + costs.star_cost(child_card, card, cards.legs(a, mask))
            else:
                left_cost, left_card, _ = self._best(masks, cards, a, memo)
                right_cost, right_card, _ = self._best(masks, cards, b, memo)
                cost = left_cost + right_cost + costs.join_cost(left_card, right_card, card)
            if best is None or cost < best:
                best, decision = cost, candidate
        if decision is None:  # pragma: no cover - connected patterns always split
            raise PlanError(f"no decomposition found for {masks.names_of(mask)!r}")
        entry = memo[mask] = (best, card, decision)
        return entry


def _build(
    masks: VertexMasks,
    memo: dict[int, SearchEntry],
    mask: int,
    built: dict[int, GraphPlan],
) -> GraphPlan:
    """The plan node of ``mask`` the search decided on, with its sub-pattern,
    star step and children (one node per mask, shared where sub-plans
    overlap)."""
    plan = built.get(mask)
    if plan is None:
        cost, card, (kind, a, b) = memo[mask]
        sub = masks.induced(mask)
        if kind == "scan":
            plan = GraphPlan(sub, kind, card, cost)
        elif kind == "expand":
            step = StarStep(masks.names[a], masks.legs(a, mask))
            plan = GraphPlan(
                sub, kind, card, cost, child=_build(masks, memo, b, built), step=step
            )
        else:
            left = _build(masks, memo, a, built)
            plan = GraphPlan(
                sub, kind, card, cost, left=left, right=_build(masks, memo, b, built)
            )
        built[mask] = plan
    return plan


def decompositions(masks: VertexMasks, mask: int, config: GraphOptimizerConfig):
    """The candidates the search costs for a connected ``mask``, in its
    order: every star step ``("expand", center bit index, rest)`` (remove a
    vertex keeping the rest connected; the right child is the complete star
    around it), then — when the mask has 4 to ``config.binary_join_limit``
    vertices — every overlapping binary join ``("join", left, right)``
    (Case I).  A single vertex has none."""
    for center, rest in masks.peels(mask):
        yield "expand", center, rest
    if 4 <= mask.bit_count() <= config.binary_join_limit:
        for left, right in masks.splits(mask):
            yield "join", left, right


# ---------------------------------------------------------------------- #
# lowering
# ---------------------------------------------------------------------- #


@dataclass
class LoweringConfig:
    """Physical-implementation switches (paper ablations)."""

    use_graph_index: bool = True
    enable_expand_intersect: bool = True
    # Edge variables that must survive into the output; everything else is
    # trimmed and the corresponding EXPAND_EDGE/GET_VERTEX pair is fused.
    needed_edge_vars: frozenset[str] = frozenset()
    # When False, EXPAND_EDGE + GET_VERTEX are kept as separate operators
    # and all edge columns are carried (the RelGoNoRule behaviour).
    fuse: bool = True
    semantics: str = "homomorphism"
    # DeadBranchRule's outcome (:func:`dead_branches`): per anchor vertex,
    # the branches a BranchReduce replaces; their star steps are dropped.
    stripped: dict[str, tuple[Branch, ...]] = field(default_factory=dict)

    @property
    def pruned(self) -> frozenset[str]:
        """The vertices the stripped branches stand for: never bound."""
        return frozenset(
            v for branches in self.stripped.values() for b in branches for v in b.variables()
        )


def dead_branches(
    plan: GraphPlan,
    live: frozenset[str],
    index: GraphIndex,
    reducible: Mapping[str, tuple[tuple[str, str], ...]] | None = None,
) -> dict[str, tuple[Branch, ...]]:
    """DeadBranchRule's lowering half: the branches of ``plan``'s pattern
    that fan out and can be stripped, grouped by the vertex they hang from.

    A vertex outside ``live`` with exactly one remaining incident edge is
    stripped, repeatedly, so chains and trees of dead vertices come off
    whole; a self-loop pins its vertex, and so does being the plan's root
    scan (every other vertex is bound from it).  A dead vertex between two
    pinned ones is never a leaf, so it stays.  Each stripped tree hangs off
    one remaining vertex, its *anchor*, by one edge, and is bound only
    after the anchor: its star steps can be dropped and one per-anchor
    check on the anchor put in their place.  A branch whose first edge
    reaches at most one vertex from any anchor (every degree of that
    adjacency is at most 1) multiplies nothing, so it is left in the plan.
    Plans with a binary pattern join are left alone.

    ``reducible`` maps the live vertices read only inside MIN / MAX
    arguments to their ``(func, attr)`` reads.  Such a vertex is stripped
    like a dead one, and its branch reduces those attributes per anchor
    instead of binding it, where that removes a cross product: only
    pattern leaves reduce, and only where two or more reducing branches
    hang from one anchor.  A lone reducing branch is one chain, which the
    aggregate above folds as cheaply as a per-anchor reduction would, so
    its vertices stay bound.
    """
    if "join" in plan.operators():
        return {}
    pattern = plan.pattern
    reducible = {
        v: reads
        for v, reads in (reducible or {}).items()
        if len(pattern.incident_edges(v)) == 1
    }
    while True:
        stripped = _strip(plan, set(live) - set(reducible), index, reducible)
        lone = [
            b
            for branches in stripped.values()
            for b in branches
            if b.reductions() and sum(bool(o.reductions()) for o in branches) == 1
        ]
        if not lone:
            return stripped
        for b in lone:
            for reduced, _, _ in b.reductions():
                reducible.pop(reduced.to_var)


def _strip(
    plan: GraphPlan,
    pinned: set[str],
    index: GraphIndex,
    reducible: Mapping[str, tuple[tuple[str, str], ...]],
) -> dict[str, tuple[Branch, ...]]:
    """The fanning branches that come off ``plan``'s pattern when every
    vertex but ``pinned``, the root scan's and the self-looped ones is
    stripped (see :func:`dead_branches`)."""
    root = plan
    while root.child is not None:
        root = root.child
    pattern = plan.pattern
    pinned = pinned | set(root.pattern.vertices)
    pinned |= {e.src for e in pattern.edges.values() if e.src == e.dst}
    remaining = set(pattern.vertices)
    hang: dict[str, PatternEdge] = {}  # stripped vertex -> its edge inward
    leaves = [v for v in pattern.vertices if v not in pinned]
    while leaves:
        v = leaves.pop()
        if v not in remaining or v in pinned:
            continue
        edges = [e for e in pattern.incident_edges(v) if e.other(v) in remaining]
        if len(edges) != 1:
            continue
        remaining.discard(v)
        hang[v] = edges[0]
        leaves.append(edges[0].other(v))

    def branch(parent: str, edge: PatternEdge) -> Branch:
        var = edge.other(parent)
        vertex = pattern.vertices[var]
        return Branch(
            edge.label,
            edge.direction_from(parent),
            var,
            vertex.label,
            edge.predicate,
            vertex.predicate,
            tuple(
                branch(var, e)
                for e in pattern.incident_edges(var)
                if e is not edge and hang.get(e.other(var)) is e
            ),
            reducible.get(var, ()),
        )

    stripped: dict[str, tuple[Branch, ...]] = {}
    for anchor in pattern.vertices:
        if anchor not in remaining:
            continue
        label = pattern.vertices[anchor].label
        fanning = tuple(
            branch(anchor, e)
            for e in pattern.incident_edges(anchor)
            if hang.get(e.other(anchor)) is e
            and index.adjacency(label, e.label, e.direction_from(anchor)).max_degree() > 1
        )
        if fanning:
            stripped[anchor] = fanning
    return stripped


def lower_plan(
    plan: GraphPlan,
    mapping: RGMapping,
    index: GraphIndex | None,
    config: LoweringConfig,
    live: Iterable[str],
) -> GraphOperator:
    """Lower a decomposition tree into executable graph operators, each
    carrying only the variables read above it (:func:`carry_live`).

    ``live`` names the variables the consumer reads — a REDUCE value
    column by its :func:`~repro.graph.physical.value_var` name."""
    if not config.use_graph_index:
        index = None  # every step is an EVJoin-based edge scan
    elif index is None:
        raise PlanError("lowering with use_graph_index=True requires an index")
    if config.semantics == "edge_distinct":
        # The all-distinct check compares every edge binding: none is fused.
        config = replace(config, needed_edge_vars=frozenset(plan.pattern.edges))
    op = _lower(plan, mapping, index, config, frozenset())
    if config.semantics == "isomorphism":
        op = AllDistinct(op, kind="v")
    elif config.semantics == "edge_distinct":
        op = AllDistinct(op, kind="e")
    carry_live(op, frozenset(live))
    return op


def carry_live(op: Operator, live: frozenset[str]) -> None:
    """The liveness walk: narrow the graph operators under ``op``, top-down,
    to the variables still read above each one.

    Above an operator, a variable is read when the consumer reads it
    (``live``: the ``COLUMNS`` references, REDUCE value columns included)
    or when an operator above reads it itself
    (:meth:`~repro.graph.physical.GraphOperator.reads`): a later leg's
    bound leaf, a join's keys, a REDUCE or EXISTS anchor, ALL_DISTINCT's
    compared columns.  Each input is narrowed first; then every operator
    that builds its batches anew (EXPAND, EXPAND_EDGE, GET_VERTEX,
    EXPAND_INTERSECT) carries only its input's variables in ``live``, and
    the others re-derive their output from their narrowed inputs.  A
    non-graph operator between graph operators (the materializing spool of
    the Kùzu-like plans) passes its input through and reads nothing.
    Multiplicities, row order and chunks do not change, only the columns.
    """
    graph = isinstance(op, GraphOperator)
    below = live | op.reads() if graph else live
    for child in op.children():
        carry_live(child, below)
    if graph:
        op.carry(live)


def _keep_edge(edge: PatternEdge, config: LoweringConfig) -> bool:
    if not config.fuse:
        return True
    return edge.name in config.needed_edge_vars


def _lower(
    plan: GraphPlan,
    mapping: RGMapping,
    index: GraphIndex | None,
    config: LoweringConfig,
    closed: frozenset[str],
) -> GraphOperator:
    """Lower one plan node; ``closed`` names the vertices whose self-loops
    a sibling sub-plan already checks (a binary join's left input)."""
    if plan.kind == "scan":
        vertex = next(iter(plan.pattern.vertices.values()))
        op = ScanVertex(mapping, vertex.name, vertex.label, vertex.predicate)
        op = _reduce_branches(op, vertex.name, mapping, index, config)
        return _close_loops(op, plan.pattern, vertex.name, closed, mapping, index, config)
    if plan.kind == "join":
        assert plan.left is not None and plan.right is not None
        shared = plan.left.pattern.edges.keys() & plan.right.pattern.edges.keys()
        if shared:
            # Both sides bind an edge they share: join on its rowid, or each
            # side's copy multiplies the other's parallel edges.
            config = replace(config, needed_edge_vars=config.needed_edge_vars | shared)
        left = _lower(plan.left, mapping, index, config, closed)
        closed = closed.union(plan.left.pattern.vertices)
        return PatternHashJoin(left, _lower(plan.right, mapping, index, config, closed))
    assert plan.kind == "expand" and plan.child is not None and plan.step is not None
    child_op = _lower(plan.child, mapping, index, config, closed)
    if plan.step.center in config.pruned:
        return child_op  # a BranchReduce below stands for this step
    center = plan.pattern.vertices[plan.step.center]
    # A self-loop is no leg: its far end is the still-unbound center.
    legs = [(leaf, edge) for leaf, edge in plan.step.legs if leaf != center.name]
    op = _lower_star(child_op, mapping, index, config, center, legs)
    op = _reduce_branches(op, center.name, mapping, index, config)
    return _close_loops(op, plan.pattern, center.name, closed, mapping, index, config)


def _reduce_branches(
    op: GraphOperator,
    var: str,
    mapping: RGMapping,
    index: GraphIndex | None,
    config: LoweringConfig,
) -> GraphOperator:
    """``op``, which binds ``var``, filtered by the EXISTS check of the
    stripped branches anchored at ``var`` that reduce nothing, then by the
    REDUCE of those that do (each when there are any)."""
    branches = config.stripped.get(var, ())
    for group in (
        tuple(b for b in branches if not b.reductions()),
        tuple(b for b in branches if b.reductions()),
    ):
        if group:
            assert index is not None
            op = BranchReduce(op, index, mapping, var, group)
    return op


def _close_loops(
    op: GraphOperator,
    pattern: PatternGraph,
    var: str,
    closed: frozenset[str],
    mapping: RGMapping,
    index: GraphIndex | None,
    config: LoweringConfig,
) -> GraphOperator:
    """``op``, which binds ``var``, joined with each of ``var``'s self-loops
    (one row per loop edge, as homomorphism counts them)."""
    if var in closed:
        return op
    for edge in pattern.incident_edges(var):
        if edge.src == edge.dst:
            loop = EdgeTripleScan(
                mapping,
                edge.label,
                src_var=var,
                dst_var=var,
                edge_var=edge.name if _keep_edge(edge, config) else None,
                index=index,
                edge_predicate=edge.predicate,
            )
            op = PatternHashJoin(op, loop)
    return op


def _lower_star(
    child_op: GraphOperator,
    mapping: RGMapping,
    index: GraphIndex | None,
    config: LoweringConfig,
    center: PatternVertex,
    legs: list[tuple[str, PatternEdge]],
) -> GraphOperator:
    """Bind ``center`` from the bound leaves of ``legs`` (a star step)."""
    if index is None:
        return _lower_star_hash(child_op, mapping, config, center, legs)
    if len(legs) == 1:
        leaf, edge = legs[0]
        direction = edge.direction_from(leaf)
        if _keep_edge(edge, config):
            expanded = ExpandEdge(
                child_op,
                index,
                mapping,
                from_var=leaf,
                edge_var=edge.name,
                edge_label=edge.label,
                direction=direction,
                edge_predicate=edge.predicate,
            )
            return GetVertex(
                expanded,
                index,
                mapping,
                edge_var=edge.name,
                to_var=center.name,
                to_label=center.label,
                direction=direction,
                vertex_predicate=center.predicate,
            )
        return Expand(
            child_op,
            index,
            mapping,
            from_var=leaf,
            to_var=center.name,
            to_label=center.label,
            edge_label=edge.label,
            direction=direction,
            edge_predicate=edge.predicate,
            vertex_predicate=center.predicate,
        )
    if config.enable_expand_intersect:
        star_legs = [
            StarLeg(
                from_var=leaf,
                edge_label=edge.label,
                direction=edge.direction_from(leaf),
                edge_var=edge.name if _keep_edge(edge, config) else None,
                edge_predicate=edge.predicate,
            )
            for leaf, edge in legs
        ]
        return ExpandIntersect(
            child_op,
            index,
            mapping,
            legs=star_legs,
            to_var=center.name,
            to_label=center.label,
            vertex_predicate=center.predicate,
        )
    # RelGoNoEI: M(P') = M(P'_l) ⋈ M(P(u; V_s)) with the complete star
    # computed as a traditional multiple join of its edge relations — the
    # star materialization is what explodes on dense stars (Fig 9's OOM).
    return _lower_star_standalone(child_op, mapping, index, config, center, legs)


def _lower_star_standalone(
    child_op: GraphOperator,
    mapping: RGMapping,
    index: GraphIndex,
    config: LoweringConfig,
    center: PatternVertex,
    legs: list[tuple[str, PatternEdge]],
) -> GraphOperator:
    """NoEI lowering: materialize M(star) by joining its edge relations on
    the center variable, then hash join with the left child (Case I)."""
    star_op: GraphOperator | None = None
    for i, (leaf, edge) in enumerate(legs):
        center_is_src = edge.src == center.name
        triples = EdgeTripleScan(
            mapping,
            edge.label,
            src_var=edge.src,
            dst_var=edge.dst,
            edge_var=edge.name if _keep_edge(edge, config) else None,
            index=index,
            edge_predicate=edge.predicate,
            # The center's constraint filters every leg cheaply; leaf
            # constraints were already applied when the leaves were matched.
            src_predicate=center.predicate if center_is_src and i == 0 else None,
            dst_predicate=center.predicate if not center_is_src and i == 0 else None,
        )
        star_op = triples if star_op is None else PatternHashJoin(star_op, triples)
    assert star_op is not None
    return PatternHashJoin(child_op, star_op)


def _lower_star_hash(
    child_op: GraphOperator,
    mapping: RGMapping,
    config: LoweringConfig,
    center: PatternVertex,
    legs: list[tuple[str, PatternEdge]],
) -> GraphOperator:
    """Implement a star step as successive joins with edge-triple scans.

    The first leg *introduces* the center vertex; each further leg joins the
    full edge relation on both endpoints — the "traditional multiple join"
    whose intermediates blow up on dense stars (Fig 9's OOM).
    """
    current = child_op
    for leaf, edge in legs:
        src_var, dst_var = edge.src, edge.dst
        src_pred = center.predicate if edge.src == center.name else None
        dst_pred = center.predicate if edge.dst == center.name else None
        triples = EdgeTripleScan(
            mapping,
            edge.label,
            src_var=src_var,
            dst_var=dst_var,
            edge_var=edge.name if _keep_edge(edge, config) else None,
            edge_predicate=edge.predicate,
            src_predicate=src_pred,
            dst_predicate=dst_pred,
        )
        current = PatternHashJoin(current, triples)
    return current
