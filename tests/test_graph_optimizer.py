"""The graph-aware optimizer: search, lowering, and agreement with the
reference matcher under every lowering mode."""

from __future__ import annotations

import pytest

from repro.graph.cost import CardinalityEstimator
from repro.graph.glogue import GLogue
from repro.graph.matching import match_pattern
from repro.graph.optimizer import (
    GraphOptimizer,
    GraphOptimizerConfig,
    LoweringConfig,
    connected_proper_subsets,
    lower_plan,
)
from repro.graph.pattern import PatternGraph
from repro.exec.context import ExecutionContext
from repro.relational.expr import col, eq, lit


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
    op = lower_plan(plan, mapping, index if mode != "no_index" else None, lowering)
    assert rows_as_bindings(op) == reference_bindings(mapping, index, pattern)


def test_triangle_trimmed_edges_keep_multiplicity(fig2):
    catalog, mapping, index = fig2
    pattern = triangle()
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(pattern)
    op = lower_plan(
        plan, mapping, index, LoweringConfig(needed_edge_vars=frozenset())
    )
    got = rows_as_bindings(op)
    expected = reference_bindings(mapping, index, pattern, keep={"p1", "p2", "m"})
    assert got == expected


def test_predicate_pushed_into_scan(fig2):
    catalog, mapping, index = fig2
    pattern = triangle().with_vertex_constraint("p1", eq(col("name"), lit("Tom")))
    optimizer = build_optimizer(catalog, mapping, index)
    plan = optimizer.optimize(pattern)
    op = lower_plan(plan, mapping, index, LoweringConfig())
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
        )
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
        plan, mapping, index, LoweringConfig(semantics="isomorphism")
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
    pattern = triangle()
    subsets = connected_proper_subsets(pattern, frozenset(pattern.vertices))
    # All 2-subsets of a triangle are connected: {p1,p2}, {p1,m}, {p2,m}.
    assert sorted(tuple(sorted(s)) for s in subsets) == [
        ("m", "p1"),
        ("m", "p2"),
        ("p1", "p2"),
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
    )
    assert "PATTERN_HASH_JOIN" in op.explain()
