"""End-to-end SPJM optimization: every system config must return the same
rows as the reference matcher + manual relational post-processing."""

from __future__ import annotations

import pytest

from repro.core.framework import RelGoConfig, RelGoFramework
from repro.core.spjm import GraphTableClause, MatchColumn, SPJMQuery
from repro.graph.pattern import PatternGraph
from repro.relational.expr import col, eq, lit


def example1_query() -> SPJMQuery:
    """The paper's Example 1: friends of Tom who like the same message, and
    the place the friend... (the paper projects p1's place; we follow Fig 1:
    join Place on p1.place_id, filter p1.name = 'Tom', return p2 + place)."""
    pattern = (
        PatternGraph.builder()
        .vertex("p1", "Person")
        .vertex("p2", "Person")
        .vertex("m", "Message")
        .edge("p1", "m", "Likes", name="l1")
        .edge("p2", "m", "Likes", name="l2")
        .edge("p1", "p2", "Knows", name="k")
        .build()
    )
    clause = GraphTableClause(
        graph_name="G",
        pattern=pattern,
        columns=[
            MatchColumn("p1", "name", "p1_name"),
            MatchColumn("p1", "place_id", "p1_place_id"),
            MatchColumn("p2", "name", "p2_name"),
        ],
        alias="g",
    )
    return SPJMQuery(
        graph_table=clause,
        relations=[("Place", "p")],
        predicates=[
            eq(col("g.p1_place_id"), col("p.id")),
            eq(col("g.p1_name"), lit("Tom")),
        ],
        projections=[(col("g.p2_name"), "p2_name"), (col("p.name"), "place_name")],
    )


ALL_CONFIGS = {
    "relgo": RelGoConfig(),
    "relgo_norule": RelGoConfig(enable_rules=False),
    "relgo_noei": RelGoConfig(enable_expand_intersect=False),
    "relgo_hash": RelGoConfig(use_graph_index=False),
    "duckdb": RelGoConfig(graph_aware=False, use_graph_index=False),
    "graindb": RelGoConfig(graph_aware=False, use_graph_index=True),
    "umbra": RelGoConfig(graph_aware=False, use_graph_index=True, histograms=True),
    "calcite": RelGoConfig(
        graph_aware=False, use_graph_index=False, join_enumeration="exhaustive"
    ),
    "relgo_loworder": RelGoConfig(use_glogue=False),
}

# Fig 2 ground truth: Tom knows Bob, both like m1, Tom lives in Germany.
EXPECTED = [("Bob", "Germany")]


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_example1_all_systems(fig2, name):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", ALL_CONFIGS[name])
    framework.prepare()
    result, optimized = framework.run(example1_query())
    assert result.sorted_rows() == EXPECTED, f"{name} produced {result.rows}"
    assert optimized.optimization_time >= 0


def test_filter_into_match_fired(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    optimized = framework.optimize(example1_query())
    assert optimized.rule_report is not None
    assert optimized.rule_report.pushed_constraints == 1
    # The constraint must appear in the SCAN_GRAPH_TABLE subtree.
    assert "Tom" in optimized.explain()


def test_trim_and_fuse_trims_edges(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    optimized = framework.optimize(example1_query())
    report = optimized.rule_report
    assert report is not None
    # No edge attribute is projected: all three edge vars are trimmed.
    assert sorted(report.trimmed_edge_vars) == ["k", "l1", "l2"]
    explained = optimized.explain()
    assert "EXPAND_EDGE" not in explained  # fused


def test_norule_keeps_unfused_operators(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(catalog, "G", RelGoConfig(enable_rules=False))
    framework.prepare()
    optimized = framework.optimize(example1_query())
    explained = optimized.explain()
    assert "EXPAND_EDGE" in explained or "PATTERN_HASH_JOIN" in explained


def test_graph_agnostic_plan_has_no_graph_operators(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(
        catalog, "G", RelGoConfig(graph_aware=False, use_graph_index=False)
    )
    framework.prepare()
    optimized = framework.optimize(example1_query())
    explained = optimized.explain()
    assert "SCAN_GRAPH_TABLE" not in explained
    assert "EXPAND" not in explained
    assert "HASH_JOIN" in explained


def test_graindb_plan_uses_predefined_joins(fig2):
    catalog, _, _ = fig2
    framework = RelGoFramework(
        catalog, "G", RelGoConfig(graph_aware=False, use_graph_index=True)
    )
    framework.prepare()
    optimized = framework.optimize(example1_query())
    explained = optimized.explain()
    assert "ROWID_JOIN" in explained or "CSR_JOIN" in explained


def test_pure_match_query(fig2):
    catalog, _, _ = fig2
    pattern = (
        PatternGraph.builder()
        .vertex("a", "Person")
        .vertex("b", "Person")
        .edge("a", "b", "Knows", name="k")
        .build()
    )
    query = SPJMQuery(
        graph_table=GraphTableClause(
            "G",
            pattern,
            [MatchColumn("a", "name", "a_name"), MatchColumn("b", "name", "b_name")],
        )
    )
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    result, _ = framework.run(query)
    assert sorted(result.rows) == [
        ("Bob", "David"),
        ("Bob", "Tom"),
        ("David", "Bob"),
        ("Tom", "Bob"),
    ]


def test_aggregate_over_match(fig2):
    from repro.relational.logical import AggregateSpec

    catalog, _, _ = fig2
    pattern = (
        PatternGraph.builder()
        .vertex("p", "Person")
        .vertex("m", "Message")
        .edge("p", "m", "Likes", name="l")
        .build()
    )
    query = SPJMQuery(
        graph_table=GraphTableClause(
            "G", pattern, [MatchColumn("p", "name", "p_name")]
        ),
        aggregates=[AggregateSpec("COUNT", None, "likes")],
    )
    framework = RelGoFramework(catalog, "G", RelGoConfig())
    framework.prepare()
    result, _ = framework.run(query)
    assert result.rows == [(4,)]


# --------------------------------------------------------------------- #
# self-loops: checked once their vertex is bound, in every lowering
# --------------------------------------------------------------------- #

_LOOP_SQL = "SELECT {select} FROM GRAPH_TABLE (G MATCH {match}) g"
SELF_LOOP_QUERIES = {
    "loop": ("g.an", "(a:Person)-[:Knows]->(a) COLUMNS (a.name AS an)"),
    "loop_edge_kept": (
        "g.an, g.d",
        "(a:Person)-[k:Knows]->(a) COLUMNS (a.name AS an, k.date AS d)",
    ),
    "loop_and_out_edge": (
        "g.an, g.bn",
        "(a:Person)-[:Knows]->(a), (a)-[:Knows]->(b:Person)"
        " COLUMNS (a.name AS an, b.name AS bn)",
    ),
    "loop_on_scan_and_out_edge": (
        "g.an, g.bn",
        "(a:Person)-[:Knows]->(a), (a)-[:Knows]->(b:Person)"
        " WHERE a.name = 'Tom' COLUMNS (a.name AS an, b.name AS bn)",
    ),
    "loop_after_scan": (
        "g.an, g.bn",
        "(a:Person)-[:Knows]->(b:Person), (b)-[:Knows]->(b)"
        " WHERE a.name = 'Bob' COLUMNS (a.name AS an, b.name AS bn)",
    ),
}


@pytest.fixture(scope="module", params=["fig2", "fig2_with_loops"])
def loop_data(request):
    """Fig. 2 has no self-loop; the second set adds two on Tom."""
    from repro.graph.index import build_graph_index
    from tests.conftest import build_fig2_catalog

    catalog, mapping = build_fig2_catalog()
    if request.param == "fig2_with_loops":
        catalog.table("Knows").extend(
            [(5, 1, 1, "2023-03-01"), (6, 1, 1, "2023-03-02")]
        )
    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    catalog.analyze()
    return catalog, mapping, index


@pytest.mark.parametrize(
    "name", ["relgo", "relgo_norule", "relgo_noei", "relgo_hash", "relgo_loworder", "kuzu"]
)
def test_self_loops_return_the_reference_rows(loop_data, name):
    from collections import Counter

    from repro.core.rules import apply_filter_into_match
    from repro.core.sqlpgq import parse_and_bind
    from repro.exec.context import execute_plan
    from repro.graph.matching import match_pattern
    from repro.systems import make_system

    catalog, mapping, index = loop_data
    system = make_system(name, catalog, "G")
    reference = make_system("duckdb", catalog, "G")
    for case, (select, match) in SELF_LOOP_QUERIES.items():
        query = parse_and_bind(_LOOP_SQL.format(select=select, match=match), catalog)
        pattern = apply_filter_into_match(query)[0].graph_table.pattern
        want = execute_plan(reference.optimize(query).physical, columnar=False).rows
        assert len(want) == len(match_pattern(mapping, index, pattern)), case
        plan = system.optimize(query).physical
        for columnar in (True, False):
            got = execute_plan(plan, columnar=columnar).rows
            assert Counter(got) == Counter(want), (case, columnar)
