"""The graph-aware optimizer: search, lowering, and agreement with the
reference matcher under every lowering mode; the bitmask search and
per-mask estimator against the frozenset search and pattern-at-a-time
estimator they replaced."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.graph.cost import CardinalityEstimator, StarStep
from repro.graph.glogue import GLogue
from repro.graph.index import build_graph_index
from repro.graph.matching import match_pattern
from repro.graph.optimizer import (
    GraphOptimizer,
    GraphOptimizerConfig,
    GraphPlan,
    LoweringConfig,
    decompositions,
    lower_plan,
)
from repro.graph.pattern import PatternGraph, VertexMasks
from repro.exec.context import ExecutionContext
from repro.relational.expr import col, eq, gt, lit, lt, starts_with
from repro.relational.statistics import predicate_selectivity


def build_optimizer(catalog, mapping, index, **config_kwargs):
    glogue = GLogue(mapping, index, sample_ratio=1.0)
    estimator = CardinalityEstimator(glogue, catalog)
    return GraphOptimizer(mapping, estimator, GraphOptimizerConfig(**config_kwargs))


def triangle():
    return (
        PatternGraph.builder()
        .vertex("p1", "Person")
        .vertex("p2", "Person")
        .vertex("m", "Message")
        .edge("p1", "p2", "Knows", name="k")
        .edge("p1", "m", "Likes", name="l1")
        .edge("p2", "m", "Likes", name="l2")
        .build()
    )


def every_variable(pattern) -> set[str]:
    """Every vertex and edge variable of ``pattern``: what a consumer
    reading whole bindings reads."""
    return pattern.vertices.keys() | pattern.edges.keys()


def rows_as_bindings(op, ctx=None):
    ctx = ctx or ExecutionContext()
    rows = op.execute(ctx)
    names = [v.name for v in op.output_vars]
    return sorted(tuple(sorted(zip(names, row))) for row in rows)


def reference_bindings(mapping, index, pattern, keep=None):
    matches = match_pattern(mapping, index, pattern)
    out = []
    for b in matches:
        items = [(k, v) for k, v in b.items() if keep is None or k in keep]
        out.append(tuple(sorted(items)))
    return sorted(out)


@pytest.mark.parametrize(
    "mode",
    ["indexed", "no_index", "no_ei", "unfused"],
)
def test_triangle_plan_matches_reference(fig2, mode):
    catalog, mapping, index = fig2
    pattern = triangle()
    optimizer = build_optimizer(
        catalog, mapping, index, use_graph_index=(mode != "no_index")
    )
    plan = optimizer.optimize(pattern)
    lowering = LoweringConfig(
        use_graph_index=(mode != "no_index"),
        enable_expand_intersect=(mode != "no_ei"),
        needed_edge_vars=frozenset({"k", "l1", "l2"}),
        fuse=(mode != "unfused"),
    )
    op = lower_plan(
        plan, mapping, index if mode != "no_index" else None, lowering, every_variable(pattern)
    )
    assert rows_as_bindings(op) == reference_bindings(mapping, index, pattern)


def test_triangle_trimmed_edges_keep_multiplicity(fig2):
    catalog, mapping, index = fig2
    pattern = triangle()
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(pattern)
    op = lower_plan(
        plan, mapping, index, LoweringConfig(needed_edge_vars=frozenset()), every_variable(pattern)
    )
    got = rows_as_bindings(op)
    expected = reference_bindings(mapping, index, pattern, keep={"p1", "p2", "m"})
    assert got == expected


def test_predicate_pushed_into_scan(fig2):
    catalog, mapping, index = fig2
    pattern = triangle().with_vertex_constraint("p1", eq(col("name"), lit("Tom")))
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(pattern)
    op = lower_plan(plan, mapping, index, LoweringConfig(), every_variable(pattern))
    got = rows_as_bindings(op)
    expected = reference_bindings(mapping, index, pattern, keep={"p1", "p2", "m"})
    assert got == expected
    assert len(got) == 1


def test_path_pattern_all_modes_agree(fig2):
    catalog, mapping, index = fig2
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person")
        .vertex("b", "Person")
        .vertex("c", "Person")
        .edge("a", "b", "Knows", name="k1")
        .edge("b", "c", "Knows", name="k2")
        .build()
    )
    expected = reference_bindings(mapping, index, pattern)
    for use_index in (True, False):
        optimizer = build_optimizer(catalog, mapping, index, use_graph_index=use_index)
        plan = optimizer.optimize(pattern)
        op = lower_plan(
            plan,
            mapping,
            index if use_index else None,
            LoweringConfig(
                use_graph_index=use_index,
                needed_edge_vars=frozenset({"k1", "k2"}),
            ),
            every_variable(pattern),
        )
        assert rows_as_bindings(op) == expected


@pytest.mark.parametrize("mode", ["indexed", "no_index", "no_ei", "unfused"])
def test_binary_join_checks_a_shared_vertex_loop_once(mode):
    """A self-loop on a vertex both join inputs bind is checked on one side
    only: checking it on both would square its multiplicity."""
    from tests.conftest import build_fig2_catalog

    catalog, mapping = build_fig2_catalog()
    catalog.table("Knows").extend([(5, 2, 2, "2023-03-01"), (6, 2, 2, "2023-03-02")])
    index = build_graph_index(mapping)
    catalog.analyze()
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person").vertex("b", "Person").vertex("c", "Person").vertex("d", "Person")
        .edge("a", "b", "Knows").edge("b", "c", "Knows").edge("c", "d", "Knows")
        .edge("a", "d", "Knows").edge("b", "b", "Knows", name="loop")
        .build()
    )  # fmt: skip
    optimizer = build_optimizer(catalog, mapping, index, use_graph_index=mode != "no_index")
    left = optimizer.optimize(pattern.induced_subpattern({"a", "b", "d"}))
    right = optimizer.optimize(pattern.induced_subpattern({"b", "c", "d"}))
    plan = GraphPlan(pattern, "join", 1.0, 1.0, left=left, right=right)
    lowering = LoweringConfig(
        use_graph_index=mode != "no_index",
        enable_expand_intersect=mode != "no_ei",
        fuse=mode != "unfused",
    )
    op = lower_plan(plan, mapping, index, lowering, every_variable(pattern))
    keep = {v.name for v in op.output_vars}
    assert rows_as_bindings(op) == reference_bindings(mapping, index, pattern, keep=keep)


@pytest.mark.parametrize("mode", ["indexed", "no_index", "no_ei", "unfused"])
def test_binary_join_joins_a_shared_edge_on_its_rowid(mode):
    """Case I: the chord b->d lies in both sides of {a,b,d} JOIN {b,c,d}.
    With the edge trimmed, each side's copy multiplied the other's
    parallel b->d edges (19 rows where the reference matcher finds 15)."""
    from tests.conftest import build_fig2_catalog

    catalog, mapping = build_fig2_catalog()
    catalog.table("Knows").extend(
        [(5, 1, 2, "2023-03-01"), (6, 2, 3, "2023-03-02"), (7, 1, 1, "2023-03-03")]
    )
    index = build_graph_index(mapping)
    catalog.analyze()
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person").vertex("b", "Person").vertex("c", "Person").vertex("d", "Person")
        .edge("a", "b", "Knows", name="ab").edge("b", "c", "Knows", name="bc")
        .edge("c", "d", "Knows", name="cd").edge("d", "a", "Knows", name="da")
        .edge("b", "d", "Knows", name="bd")
        .build()
    )  # fmt: skip
    optimizer = build_optimizer(catalog, mapping, index, use_graph_index=mode != "no_index")
    left = optimizer.optimize(pattern.induced_subpattern({"a", "b", "d"}))
    right = optimizer.optimize(pattern.induced_subpattern({"b", "c", "d"}))
    plan = GraphPlan(pattern, "join", 1.0, 1.0, left=left, right=right)
    lowering = LoweringConfig(
        use_graph_index=mode != "no_index",
        enable_expand_intersect=mode != "no_ei",
        fuse=mode != "unfused",
    )
    op = lower_plan(plan, mapping, index, lowering, every_variable(pattern))
    keep = {v.name for v in op.output_vars}
    expected = reference_bindings(mapping, index, pattern, keep=keep)
    assert len(match_pattern(mapping, index, pattern)) == 15
    assert rows_as_bindings(op) == expected


def test_isomorphism_lowering(fig2):
    catalog, mapping, index = fig2
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person")
        .vertex("b", "Person")
        .vertex("c", "Person")
        .edge("a", "b", "Knows")
        .edge("b", "c", "Knows")
        .build()
    )
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(pattern)
    op = lower_plan(
        plan, mapping, index, LoweringConfig(semantics="isomorphism"), every_variable(pattern)
    )
    rows = op.execute(ExecutionContext())
    names = [v.name for v in op.output_vars]
    a, b, c = names.index("a"), names.index("b"), names.index("c")
    assert len(rows) == 2
    assert all(row[a] != row[c] for row in rows)


def test_plan_cost_and_cardinality_positive(fig2):
    catalog, mapping, index = fig2
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(triangle())
    assert plan.cost > 0
    assert plan.cardinality > 0
    # With full sampling, the estimate of the triangle should be exact.
    assert plan.cardinality == pytest.approx(4.0, rel=0.5)


def test_triangle_uses_intersect(fig2):
    """A cost-based plan for a cyclic pattern should close the cycle with
    EXPAND_INTERSECT rather than a hash join (wco plan, Sec 3.2.2)."""
    catalog, mapping, index = fig2
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(triangle())
    assert "intersect" in plan.operators()


def test_connected_proper_subsets_of_triangle(fig2):
    masks = VertexMasks(triangle())
    assert masks.names == ["m", "p1", "p2"]
    # Every vertex peels off a triangle, leaving a connected pair.
    peels = [(masks.names[i], masks.names_of(rest)) for i, rest in masks.peels(masks.full)]
    assert peels == [("m", ["p1", "p2"]), ("p1", ["m", "p2"]), ("p2", ["m", "p1"])]
    # The connected proper subsets holding "m" are {m,p1} and {m,p2}; each
    # borders all of the rest, so the right side would be the whole
    # triangle and no binary join exists.
    assert list(masks.splits(masks.full)) == []
    config = GraphOptimizerConfig(binary_join_limit=3)
    assert list(decompositions(masks, masks.full, config)) == [
        ("expand", i, rest) for i, rest in masks.peels(masks.full)
    ]
    # On a 4-cycle a-b-c-d, a two-vertex left side borders the rest at
    # both ends (right = everything); a three-vertex one leaves one vertex,
    # whose two neighbors join it on the right.  Sizes ascend, then names.
    cycle = (
        PatternGraph.builder()
        .vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person").vertex("d", "Person")
        .edge("a", "b", "Knows").edge("b", "c", "Knows")
        .edge("c", "d", "Knows").edge("d", "a", "Knows")
        .build()
    )  # fmt: skip
    masks = VertexMasks(cycle)
    splits = [(masks.names_of(l), masks.names_of(r)) for l, r in masks.splits(masks.full)]
    assert splits == [
        (["a", "b", "c"], ["a", "c", "d"]),
        (["a", "b", "d"], ["b", "c", "d"]),
        (["a", "c", "d"], ["a", "b", "c"]),
    ]


def test_no_ei_star_is_multiple_join(fig2):
    """With EI disabled the star lowers to PATTERN_HASH_JOIN operators."""
    catalog, mapping, index = fig2
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(triangle())
    op = lower_plan(
        plan,
        mapping,
        index,
        LoweringConfig(enable_expand_intersect=False),
        every_variable(plan.pattern),
    )
    assert "PATTERN_HASH_JOIN" in op.explain()


# --------------------------------------------------------------------- #
# the bitmask search against the frozenset search it replaced
# --------------------------------------------------------------------- #


def minus_vertex(pattern, vertex):
    return pattern.induced_subpattern(set(pattern.vertices) - {vertex})


class ReferenceEstimator:
    """The pattern-at-a-time estimator the per-mask one replaced (without
    its memo): every induced sub-pattern is built and estimated on its own."""

    def __init__(self, glogue, catalog, use_glogue):
        self.glogue = glogue
        self.catalog = catalog
        self.use_glogue = use_glogue

    def estimate(self, pattern):
        structural = self.estimate_structural(pattern.without_predicates())
        return max(structural * self.constraint_selectivity(pattern), 1e-6)

    def estimate_structural(self, pattern):
        if self.use_glogue and pattern.num_vertices <= self.glogue.max_k:
            return self.glogue.pattern_count(pattern)
        if pattern.num_vertices == 1:
            label = next(iter(pattern.vertices.values())).label
            return float(self.glogue.vertex_count(label))
        if pattern.num_vertices == 2 and pattern.num_edges == 1:
            edge = next(iter(pattern.edges.values()))
            return float(self.glogue.edge_count(edge.label))
        candidate = None
        for name in sorted(pattern.vertices):
            rest = minus_vertex(pattern, name)
            if rest.num_vertices and rest.is_connected():
                if candidate is None or pattern.degree(name) > pattern.degree(candidate):
                    candidate = name
        if candidate is None:
            return 1.0
        rest = minus_vertex(pattern, candidate)
        legs = tuple((e.other(candidate), e) for e in pattern.incident_edges(candidate))
        factor = self.expansion_factor(StarStep(candidate, legs), pattern)
        return self.estimate_structural(rest) * factor

    def expansion_factor(self, step, full):
        leaves = {leaf for leaf, _ in step.legs}
        if self.use_glogue and 1 + len(leaves) <= self.glogue.max_k:
            window = full.induced_subpattern(leaves | {step.center}).without_predicates()
            window_base = minus_vertex(window, step.center)
            if window_base.num_vertices and window_base.is_connected():
                with_center = self.glogue.pattern_count(window)
                without = self.glogue.pattern_count(window_base)
                if without > 0:
                    return with_center / without
        center_label = full.vertices[step.center].label
        factor = 1.0
        for i, (leaf, edge) in enumerate(step.legs):
            degree = self.glogue.average_degree(
                full.vertices[leaf].label, edge.label, edge.direction_from(leaf)
            )
            if i == 0:
                factor *= degree
            else:
                nv = self.glogue.vertex_count(center_label)
                factor *= degree / nv if nv else 0.0
        return factor

    def constraint_selectivity(self, pattern):
        out = 1.0
        mapping = self.glogue.mapping
        for pv in pattern.vertices.values():
            if pv.predicate is not None:
                stats = self.catalog.stats(mapping.vertex(pv.label).table_name)
                out *= predicate_selectivity(pv.predicate, stats)
        for pe in pattern.edges.values():
            if pe.predicate is not None:
                stats = self.catalog.stats(mapping.edge(pe.label).table_name)
                out *= predicate_selectivity(pe.predicate, stats)
        return out


def reference_connected_proper_subsets(pattern, vertex_set):
    names = sorted(vertex_set)
    found = set()
    frontier = [frozenset({n}) for n in names]
    seen = set(frontier)
    while frontier:
        current = frontier.pop()
        if 2 <= len(current) < len(vertex_set):
            found.add(current)
        if len(current) >= len(vertex_set) - 1:
            continue
        expandable = {
            nbr
            for v in current
            for nbr in pattern.neighbors(v)
            if nbr in vertex_set and nbr not in current
        }
        for nbr in expandable:
            nxt = current | {nbr}
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def reference_splits(pattern, vertex_set, sub):
    """The binary joins of ``vertex_set``, as ``(left, right)`` sets."""
    for left_set in reference_connected_proper_subsets(sub, vertex_set):
        remainder = vertex_set - left_set
        border = {v for v in left_set if any(n in remainder for n in sub.neighbors(v))}
        if not remainder or not border:
            continue
        right_set = frozenset(remainder | border)
        if right_set == vertex_set or len(right_set) < 2:
            continue
        if pattern.induced_subpattern(right_set).is_connected() and min(vertex_set) in left_set:
            yield left_set, right_set


def reference_optimize(optimizer, estimator, pattern):
    """The frozenset decomposition search, priced by the same cost model."""
    costs, config = optimizer.cost_model, optimizer.config
    memo = {}

    def best(vertex_set, sub):
        if vertex_set in memo:
            return memo[vertex_set]
        card = estimator.estimate(sub)
        if len(vertex_set) == 1:
            label = next(iter(sub.vertices.values())).label
            memo[vertex_set] = GraphPlan(sub, "scan", card, costs.scan_cost(label, card))
            return memo[vertex_set]
        plan = None
        for candidate in candidates(vertex_set, sub, card):
            if plan is None or candidate.cost < plan.cost:
                plan = candidate
        memo[vertex_set] = plan
        return plan

    def candidates(vertex_set, sub, card):
        for name in sorted(vertex_set):
            rest_set = vertex_set - {name}
            rest = pattern.induced_subpattern(rest_set)
            if not rest.num_vertices or not rest.is_connected():
                continue
            child = best(rest_set, rest)
            legs = tuple((e.other(name), e) for e in sub.incident_edges(name))
            if not legs:
                continue
            step = StarStep(name, legs)
            cost = costs.expand_cost(child.cardinality, card, step, sub)
            yield GraphPlan(sub, "expand", card, child.cost + cost, child=child, step=step)
        if not 4 <= len(vertex_set) <= config.binary_join_limit:
            return
        for left_set, right_set in reference_splits(pattern, vertex_set, sub):
            left = best(left_set, pattern.induced_subpattern(left_set))
            right = best(right_set, pattern.induced_subpattern(right_set))
            cost = costs.join_cost(left.cardinality, right.cardinality, card)
            yield GraphPlan(sub, "join", card, left.cost + right.cost + cost, left=left, right=right)

    return best(frozenset(pattern.vertices), pattern)


def plan_signature(plan):
    """Everything a plan node decides, floats exact."""
    out = [plan.kind, plan.cost, plan.cardinality, sorted(plan.pattern.vertices)]
    if plan.step is not None:
        out.append((plan.step.center, [(leaf, e.name) for leaf, e in plan.step.legs]))
    for child in (plan.child, plan.left, plan.right):
        if child is not None:
            out.append(plan_signature(child))
    return out


LDBC_VERTEX_PREDICATES = {
    "person": eq(col("first_name"), lit("Jan")),
    "post": gt(col("length"), lit(100)),
    "comment": starts_with(col("content"), "a"),
    "tag": eq(col("name"), lit("tag3")),
    "forum": eq(col("title"), lit("x")),
}
#: Every table has an ``id``: a cut at a random point gives each element its
#: own selectivity, so a product's rounding shows the order it was taken in.
ID_BELOW = st.integers(1, 1000).map(lambda k: lt(col("id"), lit(k)))
LDBC_EDGE_LABELS = {
    ("person", "person"): "knows",
    ("person", "post"): "likes",
    ("post", "person"): "has_creator",
    ("comment", "person"): "comment_creator",
    ("comment", "post"): "reply_of",
    ("post", "tag"): "has_tag",
    ("person", "tag"): "has_interest",
    ("forum", "person"): "has_member",
    ("forum", "post"): "container_of",
}
LDBC_EDGE_PREDICATES = {"knows": gt(col("creation_date"), lit("2011-01-01"))}
#: Weighted toward labels most edge labels connect, so that most drawn
#: edges agree with their endpoints and estimates stay off the 1e-6 floor.
LDBC_LABELS = ["person", "person", "person", "post", "post", "comment", "tag", "forum"]


@st.composite
def ldbc_patterns(draw):
    """Connected patterns of 2-9 vertices over LDBC labels: a spanning tree
    plus extra edges (cycles), repeated pairs (parallel edges) and
    self-loops; edge labels mostly agree with their endpoints; vertex and
    edge predicates sprinkled on."""
    n = draw(st.integers(2, 9))
    labels = [draw(st.sampled_from(LDBC_LABELS)) for _ in range(n)]
    builder = PatternGraph.builder()
    # Declared out of name order: the whole pattern multiplies its
    # selectivities in declaration order, its sub-patterns in name order.
    for i in draw(st.permutations(range(n))):
        pred = draw(st.sampled_from([None, None, LDBC_VERTEX_PREDICATES[labels[i]], draw(ID_BELOW)]))
        builder.vertex(f"v{i}", labels[i], predicate=pred)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    if draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    for a, b in pairs:
        src, dst = (a, b) if draw(st.booleans()) else (b, a)
        if (labels[src], labels[dst]) not in LDBC_EDGE_LABELS:
            src, dst = dst, src
        label = LDBC_EDGE_LABELS.get((labels[src], labels[dst]))
        if label is None or draw(st.integers(0, 11)) == 0:
            label = draw(st.sampled_from(sorted(LDBC_EDGE_LABELS.values())))
        pred = draw(st.sampled_from([None, LDBC_EDGE_PREDICATES.get(label), draw(ID_BELOW)]))
        builder.edge(f"v{src}", f"v{dst}", label, predicate=pred)
    return builder.build()


@pytest.fixture(scope="module")
def snb_glogue():
    from repro.workloads.ldbc import LdbcParams, generate_ldbc

    catalog, mapping = generate_ldbc(LdbcParams(persons=120, seed=5))
    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    catalog.analyze()
    return catalog, mapping, GLogue(mapping, index)


SEARCH_CONFIGS = [
    GraphOptimizerConfig(index, limit) for index, limit in product([True, False], [3, 4, 8, 9])
]


#: A vertex whose two self-loops make it the one to peel: its star window
#: holds itself as a leaf, which takes it past GLogue's three vertices.
SELF_LOOP_CENTER = (
    PatternGraph.builder()
    .vertex("a", "person").vertex("b", "person").vertex("c", "person").vertex("d", "person")
    .edge("a", "b", "knows").edge("c", "a", "knows").edge("b", "c", "knows")
    .edge("c", "c", "knows").edge("c", "c", "knows").edge("d", "a", "knows")
    .build()
)  # fmt: skip


#: Three selectivities whose product rounds differently taken in
#: declaration order (c, a, b) than in name order.
OUT_OF_ORDER_PREDICATES = (
    PatternGraph.builder()
    .vertex("c", "person", lt(col("id"), lit(4)))
    .vertex("a", "person", lt(col("id"), lit(2)))
    .vertex("b", "person", lt(col("id"), lit(3)))
    .edge("a", "b", "knows").edge("b", "c", "knows")
    .build()
)  # fmt: skip


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(pattern=ldbc_patterns(), use_glogue=st.booleans())
@example(pattern=SELF_LOOP_CENTER, use_glogue=True)
@example(pattern=OUT_OF_ORDER_PREDICATES, use_glogue=True)
def test_bitmask_search_matches_the_frozenset_search(snb_glogue, pattern, use_glogue):
    catalog, mapping, glogue = snb_glogue
    estimator = CardinalityEstimator(glogue, catalog, use_glogue=use_glogue)
    reference = ReferenceEstimator(glogue, catalog, use_glogue)
    masks = VertexMasks(pattern)
    assert [(masks.names_of(l), masks.names_of(r)) for l, r in masks.splits(masks.full)] == [
        (sorted(l), sorted(r))
        for l, r in reference_splits(pattern, frozenset(pattern.vertices), pattern)
    ]
    for config in SEARCH_CONFIGS:
        optimizer = GraphOptimizer(mapping, estimator, config)
        got = optimizer.optimize(pattern)
        want = reference_optimize(optimizer, reference, pattern)
        assert got.explain() == want.explain(), config
        assert plan_signature(got) == plan_signature(want), config
    assert estimator.estimate(pattern) == reference.estimate(pattern)


@pytest.fixture(scope="module")
def statement_patterns():
    """``{statement: (estimator, pattern)}`` for the 58 IC / QR / QC / JOB
    statements on the small LDBC / IMDB datasets: each statement's pattern
    after the rules, as ``relgo`` hands it to the graph optimizer."""
    from repro.systems import make_system
    from repro.workloads.job import JobParams, generate_imdb
    from repro.workloads.job.queries import job_queries
    from repro.workloads.ldbc import LdbcParams, generate_ldbc
    from repro.workloads.ldbc.queries import ic_queries, qc_queries, qr_queries

    calls, captured = [], {}
    original = GraphOptimizer.optimize

    def capture(self, pattern):
        calls.append((self.estimator, pattern))
        return original(self, pattern)

    suites = [
        (generate_ldbc(LdbcParams(persons=120, seed=5)), {**ic_queries(), **qr_queries(), **qc_queries()}),
        (generate_imdb(JobParams.scaled(0.3, seed=5)), job_queries()),
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GraphOptimizer, "optimize", capture)
        for (catalog, mapping), statements in suites:
            catalog.register_graph_index(build_graph_index(mapping))
            system = make_system("relgo", catalog)
            for name, sql in statements.items():
                # A bound query bypasses the plan cache REPRO_SERVING=1 arms.
                system.optimize(system.bind(sql))
                (captured[name],) = calls
                calls.clear()
    return captured


@pytest.mark.parametrize("use_graph_index", [True, False])
def test_search_matches_the_frozenset_search_on_every_statement(statement_patterns, use_graph_index):
    """The 58 benchmark statements, JOB's 6-8-vertex trees among them,
    plan exactly as the frozenset search plans them."""
    assert len(statement_patterns) == 58
    for name, (estimator, pattern) in sorted(statement_patterns.items()):
        optimizer = GraphOptimizer(
            estimator.glogue.mapping, estimator, GraphOptimizerConfig(use_graph_index=use_graph_index)
        )
        reference = ReferenceEstimator(estimator.glogue, estimator.catalog, estimator.use_glogue)
        got = optimizer.optimize(pattern)
        want = reference_optimize(optimizer, reference, pattern)
        assert got.explain() == want.explain(), name
        assert plan_signature(got) == plan_signature(want), name


def plan_nodes(plan):
    """The distinct vertex sets of ``plan``'s nodes."""
    out = {frozenset(plan.pattern.vertices)}
    for child in (plan.child, plan.left, plan.right):
        if child is not None:
            out |= plan_nodes(child)
    return out


def test_graph_search_builds_subpatterns_only_for_the_chosen_plan(fig2, monkeypatch):
    """Candidates are priced from numbers: ``induced_subpattern`` is called,
    and a ``GraphPlan`` built, once per node of the returned plan (the whole
    pattern is its own sub-pattern) and for no other vertex set."""
    catalog, mapping, index = fig2
    built, nodes = [], []
    original = PatternGraph.induced_subpattern
    original_init = GraphPlan.__init__

    def counting(self, vertex_names):
        built.append(frozenset(vertex_names))
        return original(self, vertex_names)

    def counting_init(self, pattern, *args, **kwargs):
        nodes.append(frozenset(pattern.vertices))
        original_init(self, pattern, *args, **kwargs)

    monkeypatch.setattr(PatternGraph, "induced_subpattern", counting)
    monkeypatch.setattr(GraphPlan, "__init__", counting_init)
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person").vertex("b", "Person").vertex("c", "Person")
        .vertex("d", "Person").vertex("m", "Message")
        .edge("a", "b", "Knows").edge("b", "c", "Knows").edge("c", "d", "Knows")
        .edge("d", "a", "Knows").edge("a", "m", "Likes").edge("c", "m", "Likes")
        .build()
    )  # fmt: skip
    for config in ({}, {"use_graph_index": False}, {"binary_join_limit": 3}):
        built.clear()
        nodes.clear()
        plan = build_optimizer(catalog, mapping, index, **config).optimize(pattern)
        chosen = plan_nodes(plan)
        assert len(chosen) > 1
        assert sorted(nodes, key=sorted) == sorted(chosen, key=sorted), config
        assert sorted(built, key=sorted) == sorted(chosen - {frozenset(pattern.vertices)}, key=sorted), config


#: JOB24 on the small IMDB: the dead ``mi``/``it`` branch, which multiplies
#: every title by its info rows, is one EXISTS check right after the
#: EXPAND that binds its anchor ``t``; the company and cast branches, read
#: only inside MIN, are one REDUCE on ``t`` after it, so no title is
#: multiplied by its companies times its cast.  The ``kw`` root stays bound.
JOB24_EXPLAIN = """\
AGGREGATE MIN(g.title) AS movie, MIN(g.company) AS company_name, MIN(g.actor) AS actor_name
  SCAN_GRAPH_TABLE imdb [title, company, actor]
    REDUCE t (MIN cn.name: t -[movie_companies_title in]-> mc:movie_companies, mc -[movie_companies_company out]-> cn:company_name ((country_code = '[us]')), MIN n.name: t -[cast_info_title in]-> ci:cast_info, ci -[cast_info_name out]-> n:name ((name LIKE 'J%')))
      EXISTS t (t -[movie_info_title in]-> mi:movie_info, mi -[movie_info_type out]-> it:info_type ((info = 'genres')))
        EXPAND k -[movie_keyword in]-> t drop [k]
          SCAN k:keyword ((keyword = 'revenge'))"""


def test_job24_dead_branch_is_one_exists_check():
    from repro.systems import make_system
    from repro.workloads.job import JobParams, generate_imdb
    from repro.workloads.job.queries import job_queries

    catalog, mapping = generate_imdb(JobParams.scaled(0.3, seed=5))
    catalog.register_graph_index(build_graph_index(mapping))
    sql = job_queries(["JOB24"])["JOB24"]
    answers = set()
    for name in ("relgo", "relgo_noei", "relgo_loworder", "relgo_norule", "relgo_hash", "kuzu"):
        system = make_system(name, catalog, "imdb")
        optimized = system.optimize(sql)
        explain = optimized.explain()
        if name == "relgo":
            assert explain == JOB24_EXPLAIN
        # Only the graph-index systems that run the rules prune and reduce.
        pruning = name in ("relgo", "relgo_noei", "relgo_loworder")
        assert explain.count("EXISTS") == explain.count("REDUCE") == pruning
        answers.add(tuple(system.framework.execute(optimized).sorted_rows()))
    assert len(answers) == 1
