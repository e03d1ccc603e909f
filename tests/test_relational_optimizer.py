"""Relational optimizer: classification, DP ordering, lowering, predefined
joins — all validated against plain hash-join execution on Fig 2 data."""

from __future__ import annotations

import pytest

from repro.errors import OptimizationTimeout
from repro.exec.context import execute_plan
from repro.relational.expr import col, eq, gt, lit
from repro.relational.logical import AggregateSpec, LogicalScan
from repro.relational.lowering import PhysicalPlanner
from repro.relational.optimizer import (
    QueryBlock,
    RelationalOptimizer,
    RelationalOptimizerConfig,
)
from repro.relational.optimizer.dp import JoinProblem, dp_order, greedy_order
from repro.relational.optimizer.volcano import ExhaustiveEnumerator
from repro.relational.optimizer.cardinality import CardinalityModel


def scan(catalog, table, alias):
    schema = catalog.table(table).schema
    return LogicalScan(table, alias, schema.column_names)


def friends_block(catalog):
    """Friends of Tom and where they live (the Example 1 relational shape)."""
    return QueryBlock(
        relations=[
            scan(catalog, "Person", "p1"),
            scan(catalog, "Knows", "k"),
            scan(catalog, "Person", "p2"),
            scan(catalog, "Place", "pl"),
        ],
        predicates=[
            eq(col("p1.name"), lit("Tom")),
            eq(col("p1.person_id"), col("k.pid1")),
            eq(col("k.pid2"), col("p2.person_id")),
            eq(col("p2.place_id"), col("pl.id")),
        ],
        projections=[(col("p2.name"), "friend"), (col("pl.name"), "place")],
    )


def run_block(catalog, block, use_graph_index=False, **config):
    optimizer = RelationalOptimizer(catalog, RelationalOptimizerConfig(**config))
    plan, report = optimizer.optimize(block)
    planner = PhysicalPlanner(catalog, use_graph_index=use_graph_index)
    physical = planner.lower(plan)
    return execute_plan(physical), report, physical


def test_dp_plan_correct(fig2):
    catalog, _, _ = fig2
    result, report, _ = run_block(catalog, friends_block(catalog))
    assert result.sorted_rows() == [("Bob", "Denmark")]
    assert report.strategy == "dp"


def test_greedy_matches_dp(fig2):
    catalog, _, _ = fig2
    dp_result, _, _ = run_block(catalog, friends_block(catalog))
    greedy_result, report, _ = run_block(
        catalog, friends_block(catalog), join_enumeration="greedy"
    )
    assert greedy_result.sorted_rows() == dp_result.sorted_rows()
    assert report.strategy in ("greedy",)


def test_exhaustive_matches_dp(fig2):
    catalog, _, _ = fig2
    dp_result, _, _ = run_block(catalog, friends_block(catalog))
    ex_result, report, _ = run_block(
        catalog, friends_block(catalog), join_enumeration="exhaustive"
    )
    assert ex_result.sorted_rows() == dp_result.sorted_rows()
    assert report.trees_visited > 0


def test_exhaustive_visits_full_space(fig2):
    """For a 4-relation chain the Volcano space is 2^3 * Catalan(3) = 40."""
    catalog, _, _ = fig2
    block = friends_block(catalog)
    optimizer = RelationalOptimizer(
        catalog, RelationalOptimizerConfig(join_enumeration="exhaustive")
    )
    _, report = optimizer.optimize(block)
    assert report.trees_visited == 40


def test_exhaustive_timeout(fig2):
    """A tiny budget on a many-relation query raises OT, like Fig 4b."""
    catalog, _, _ = fig2
    relations = []
    predicates = []
    for i in range(9):
        relations.append(scan(catalog, "Knows", f"k{i}"))
        if i:
            predicates.append(eq(col(f"k{i - 1}.pid2"), col(f"k{i}.pid1")))
    block = QueryBlock(relations=relations, predicates=predicates)
    optimizer = RelationalOptimizer(
        catalog,
        RelationalOptimizerConfig(join_enumeration="exhaustive", timeout=0.01),
    )
    with pytest.raises(OptimizationTimeout):
        optimizer.optimize(block)


def test_predefined_join_used_and_correct(fig2):
    catalog, _, _ = fig2
    plain, _, _ = run_block(catalog, friends_block(catalog), use_graph_index=False)
    indexed, _, physical = run_block(
        catalog, friends_block(catalog), use_graph_index=True
    )
    assert indexed.sorted_rows() == plain.sorted_rows()
    explained = physical.explain()
    assert "ROWID_JOIN" in explained or "CSR_JOIN" in explained


def test_projection_pruning_applied(fig2):
    catalog, _, _ = fig2
    block = friends_block(catalog)
    optimizer = RelationalOptimizer(catalog, RelationalOptimizerConfig())
    plan, _ = optimizer.optimize(block)
    from repro.relational.logical import walk

    scans = [n for n in walk(plan) if isinstance(n, LogicalScan)]
    knows = next(n for n in scans if n.alias == "k")
    # Knows only contributes its two join keys.
    assert set(knows.projected or []) == {"pid1", "pid2"}


def test_aggregate_block(fig2):
    catalog, _, _ = fig2
    block = QueryBlock(
        relations=[scan(catalog, "Likes", "l")],
        predicates=[gt(col("l.date"), lit("2024-03-25"))],
        aggregates=[AggregateSpec("COUNT", None, "n")],
    )
    result, _, _ = run_block(catalog, block)
    assert result.rows == [(2,)]


def test_single_relation_block(fig2):
    catalog, _, _ = fig2
    block = QueryBlock(
        relations=[scan(catalog, "Person", "p")],
        predicates=[eq(col("p.name"), lit("Tom"))],
        projections=[(col("p.person_id"), "id")],
    )
    result, _, _ = run_block(catalog, block)
    assert result.rows == [(1,)]


def test_cardinality_model_pk_fk(fig2):
    catalog, _, _ = fig2
    problem = JoinProblem(
        leaves=[scan(catalog, "Knows", "k"), scan(catalog, "Person", "p")],
        leaf_aliases=[frozenset({"k"}), frozenset({"p"})],
        edges={frozenset({0, 1}): [("k.pid2", "p.person_id")]},
        card_model=CardinalityModel(catalog),
    )
    # FK join of Knows against its PK side keeps ~|Knows| rows.
    assert problem.mask_rows(0b11) == pytest.approx(4.0, rel=0.3)
