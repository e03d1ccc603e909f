"""Property-based tests for pattern canonicalization and sub-patterns."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.pattern import PatternEdge, PatternGraph, PatternVertex
from repro.graph.search_space import path_pattern

LABELS = ["person", "post"]
EDGE_LABELS = ["knows", "likes"]


@st.composite
def connected_patterns(draw):
    """Random connected patterns with 2..6 vertices."""
    n = draw(st.integers(2, 6))
    vertices = [
        PatternVertex(f"v{i}", draw(st.sampled_from(LABELS))) for i in range(n)
    ]
    edges = []
    # Spanning-tree edges guarantee connectivity.
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        src, dst = (f"v{i}", f"v{j}") if draw(st.booleans()) else (f"v{j}", f"v{i}")
        edges.append(PatternEdge(f"e{len(edges)}", draw(st.sampled_from(EDGE_LABELS)), src, dst))
    # A few extra edges.
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        edges.append(
            PatternEdge(
                f"e{len(edges)}", draw(st.sampled_from(EDGE_LABELS)), f"v{i}", f"v{j}"
            )
        )
    return PatternGraph(vertices, edges)


def renamed_copy(pattern: PatternGraph, seed: int) -> PatternGraph:
    rng = random.Random(seed)
    names = list(pattern.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    vertices = [
        PatternVertex(mapping[v.name], v.label, v.predicate)
        for v in pattern.vertices.values()
    ]
    edge_names = list(pattern.edges)
    shuffled_edges = edge_names[:]
    rng.shuffle(shuffled_edges)
    edge_map = dict(zip(edge_names, shuffled_edges))
    edges = [
        PatternEdge(edge_map[e.name], e.label, mapping[e.src], mapping[e.dst], e.predicate)
        for e in pattern.edges.values()
    ]
    return PatternGraph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(connected_patterns(), st.integers(0, 1000))
def test_canonical_code_invariant_under_renaming(pattern, seed):
    assert pattern.canonical_code() == renamed_copy(pattern, seed).canonical_code()


@settings(max_examples=100, deadline=None)
@given(connected_patterns())
def test_canonical_code_distinguishes_label_change(pattern):
    first = next(iter(pattern.vertices.values()))
    other_label = "post" if first.label == "person" else "person"
    changed = PatternGraph(
        [
            PatternVertex(v.name, other_label if v.name == first.name else v.label)
            for v in pattern.vertices.values()
        ],
        list(pattern.edges.values()),
    )
    # Changing one vertex label may coincide with an automorphism only if
    # another vertex already had the other label arrangement; at minimum the
    # multiset of labels must match for codes to match.
    if sorted(v.label for v in changed.vertices.values()) != sorted(
        v.label for v in pattern.vertices.values()
    ):
        assert changed.canonical_code() != pattern.canonical_code()


@settings(max_examples=100, deadline=None)
@given(connected_patterns())
def test_induced_subpattern_is_induced(pattern):
    names = sorted(pattern.vertices)[: max(1, len(pattern.vertices) - 1)]
    sub = pattern.induced_subpattern(set(names))
    for e in pattern.edges.values():
        if e.src in names and e.dst in names:
            assert e.name in sub.edges
    for e in sub.edges.values():
        assert e.src in names and e.dst in names


@settings(max_examples=100, deadline=None)
@given(connected_patterns())
def test_without_predicates_is_structural_identity(pattern):
    assert pattern.without_predicates().canonical_code() == pattern.canonical_code()


def test_constraint_changes_code():
    from repro.relational.expr import col, eq, lit

    p = path_pattern(2)
    constrained = p.with_vertex_constraint("v0", eq(col("name"), lit("x")))
    assert constrained.canonical_code() != p.canonical_code()
