"""Search-space enumerators: graph-agnostic vs graph-aware (Thm 1, Fig 4a).

``agnostic_search_space(P)`` counts the plans a relational optimizer faces
after the graph-agnostic transformation (Lemma 1): all binary join trees —
bushy, commutativity counted, cross products excluded — over the translated
join graph, whose nodes are the ``n`` vertex relations and ``m`` edge
relations and whose edges connect each edge relation to its two endpoint
relations.  For a path pattern with ``m`` edges this join graph is a chain
of ``2m + 1`` relations and the count is ``2^(2m) · Catalan(2m)``.

``aware_search_space(P)`` counts decomposition trees under the paper's
constraints (induced connected sub-patterns; complete-star right children;
overlapping binary joins), through the candidate generator of
:mod:`repro.graph.optimizer` itself, so the counted space is the searched
space.

Both return exact integers (Python bigints); the ratio grows exponentially
with pattern size, which is the content of Theorem 1.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import UnsupportedFeatureError
from repro.graph.optimizer import GraphOptimizerConfig, decompositions
from repro.graph.pattern import PatternGraph, VertexMasks, bit_indices


# ---------------------------------------------------------------------- #
# graph-agnostic: join trees over the translated SPJ join graph
# ---------------------------------------------------------------------- #


def translated_join_graph(pattern: PatternGraph) -> tuple[int, list[tuple[int, int]]]:
    """The SPJ translation's join graph: (node count, join edges).

    Nodes 0..n-1 are the pattern's vertex relations; nodes n..n+m-1 are the
    edge relations; each edge relation joins its two endpoint relations.
    """
    vertex_ids = {name: i for i, name in enumerate(sorted(pattern.vertices))}
    n = len(vertex_ids)
    edges: list[tuple[int, int]] = []
    for j, name in enumerate(sorted(pattern.edges)):
        pe = pattern.edges[name]
        edge_node = n + j
        edges.append((edge_node, vertex_ids[pe.src]))
        edges.append((edge_node, vertex_ids[pe.dst]))
    return n + len(pattern.edges), edges


def count_join_trees_chain(num_relations: int) -> int:
    """Ordered bushy join trees without cross products over a chain.

    ``f(k) = 2 Σ f(s) f(k − s)`` — equals ``2^(k-1) · Catalan(k-1)``.
    """
    return _chain_trees(num_relations)


@lru_cache(maxsize=None)
def _chain_trees(k: int) -> int:
    if k <= 1:
        return 1
    total = 0
    for s in range(1, k):
        total += _chain_trees(s) * _chain_trees(k - s)
    return 2 * total


def count_join_trees(num_nodes: int, join_edges: list[tuple[int, int]]) -> int:
    """Ordered bushy join trees without cross products over any join graph.

    Chain graphs use the O(k²) interval recurrence; general graphs use the
    subset DP (3^n submask enumeration), limited to 16 relations.
    """
    adjacency = [0] * num_nodes
    for a, b in join_edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    degrees = [bin(x).count("1") for x in adjacency]
    if _is_chain(num_nodes, adjacency, degrees):
        return count_join_trees_chain(num_nodes)
    if num_nodes > 16:
        raise UnsupportedFeatureError(
            "general join graphs are limited to 16 relations for exact counting"
        )
    full = (1 << num_nodes) - 1

    def connected(mask: int) -> bool:
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                nxt |= adjacency[bit.bit_length() - 1]
            nxt &= mask & ~seen
            seen |= nxt
            frontier = nxt
        return seen == mask

    counts: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask in counts:
            return counts[mask]
        if mask & (mask - 1) == 0:
            counts[mask] = 1
            return 1
        total = 0
        # Enumerate submasks containing the lowest bit (unordered), double
        # for commutativity; both sides must be connected and joined.
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                if rest and connected(sub) and connected(rest):
                    # Cross-product exclusion: some join edge must cross.
                    crosses = any(
                        (adjacency[i] & rest)
                        for i in bit_indices(sub)
                    )
                    if crosses:
                        total += 2 * count(sub) * count(rest)
            sub = (sub - 1) & mask
        counts[mask] = total
        return total

    if not connected(full):
        return 0
    return count(full)


def _is_chain(num_nodes: int, adjacency: list[int], degrees: list[int]) -> bool:
    if num_nodes <= 2:
        return True
    if max(degrees) > 2 or degrees.count(1) != 2:
        return False
    # Connected with n-1 edges and max degree 2 and two endpoints => chain.
    edge_count = sum(degrees) // 2
    return edge_count == num_nodes - 1


def agnostic_search_space(pattern: PatternGraph) -> int:
    """Search-space size of the graph-agnostic approach for ``pattern``."""
    num_nodes, join_edges = translated_join_graph(pattern)
    return count_join_trees(num_nodes, join_edges)


# ---------------------------------------------------------------------- #
# graph-aware: decomposition trees
# ---------------------------------------------------------------------- #


def aware_search_space(pattern: PatternGraph, binary_join_limit: int = 64) -> int:
    """Search-space size of the graph-aware decomposition (paper Sec 3.1.3).

    Counts the decomposition trees of the optimizer's own candidate
    generator (:func:`repro.graph.optimizer.decompositions`): star steps
    (remove a vertex keeping connectivity — for a single edge this yields
    the two expand-from-either-endpoint plans of Fig 3) plus overlapping
    binary joins.
    """
    masks = VertexMasks(pattern)
    config = GraphOptimizerConfig(binary_join_limit=binary_join_limit)
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        total = 1 if mask & (mask - 1) == 0 else 0
        for kind, a, b in decompositions(masks, mask, config):
            total += count(b) if kind == "expand" else count(a) * count(b)
        memo[mask] = total
        return total

    return count(masks.full)


def path_pattern(num_edges: int, vertex_label: str = "V", edge_label: str = "E") -> PatternGraph:
    """A path pattern with ``num_edges`` edges (the Fig 4a micro-benchmark)."""
    builder = PatternGraph.builder()
    for i in range(num_edges + 1):
        builder.vertex(f"v{i}", vertex_label)
    for i in range(num_edges):
        builder.edge(f"v{i}", f"v{i + 1}", edge_label)
    return builder.build()


def search_space_comparison(max_edges: int = 10) -> list[dict[str, float]]:
    """The Fig 4a series: per edge count, both spaces and their ratio."""
    rows = []
    for m in range(1, max_edges + 1):
        pattern = path_pattern(m)
        agnostic = agnostic_search_space(pattern)
        aware = aware_search_space(pattern)
        rows.append(
            {
                "edges": m,
                "agnostic": agnostic,
                "aware": aware,
                "ratio": agnostic / aware if aware else float("inf"),
            }
        )
    return rows
