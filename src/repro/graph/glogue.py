"""GLogue: the high-order statistics catalog (adapted from GLogS, Sec 4.2.1).

GLogue stores cardinalities ``|M(P')|`` of small structural patterns (up to
``max_k`` vertices, default 3 as in the paper).  Three tiers:

* **exact, free** — single-vertex and single-edge counts are table sizes;
  per-(vertex label, edge label, direction) average degrees come from the
  VE-index CSR.
* **exact, cheap** — all two-edge patterns (wedges/stars): computed from CSR
  degree arrays in one vector pass, ``Σ_v d_a(v)·d_b(v)``, without
  enumerating a single match.
* **sampled** — larger / cyclic small patterns (triangles): a *sparsified
  sample* of start vertices walks the pattern's edges in the reference
  matcher's order, one vectorized CSR expansion per edge (a closing edge is
  an equality filter), and the match count is scaled by the inverse
  sampling ratio.  This mirrors GLogS's sparsification; the sample is
  deterministic under ``seed`` and the same in every process.

Entries are keyed by the structural canonical code, so isomorphic
sub-patterns share one entry regardless of variable names.  Constraint
selectivities are *not* baked in — the cost model multiplies them on top
(that separation is what lets FilterIntoMatchRule re-cost patterns after a
filter is pushed in).
"""

from __future__ import annotations

import random
import zlib
from typing import Callable

from repro.exec.kernels import WalkStep, degree_products, walk_count
from repro.graph.index import GraphIndex
from repro.graph.matching import edge_order
from repro.graph.pattern import PatternGraph
from repro.graph.rgmapping import RGMapping


class GLogue:
    """Pattern-cardinality catalog over one property graph."""

    def __init__(
        self,
        mapping: RGMapping,
        index: GraphIndex,
        max_k: int = 3,
        sample_ratio: float = 0.05,
        min_sample: int = 64,
        seed: int = 42,
    ):
        self.mapping = mapping
        self.index = index
        self.max_k = max_k
        self.sample_ratio = sample_ratio
        self.min_sample = min_sample
        self.seed = seed
        self._cache: dict[tuple, float] = {}
        self._degree_cache: dict[tuple[str, str, str], float] = {}

    # ------------------------------------------------------------------ #
    # low-order statistics
    # ------------------------------------------------------------------ #

    def vertex_count(self, label: str) -> int:
        return self.mapping.vertex_table(label).num_rows

    def edge_count(self, edge_label: str) -> int:
        return self.mapping.edge_table(edge_label).num_rows

    def average_degree(self, vertex_label: str, edge_label: str, direction: str) -> float:
        """Average number of ``edge_label`` edges per ``vertex_label`` vertex
        in ``direction`` — the ``d̄`` of the paper's EXPAND cost."""
        key = (vertex_label, edge_label, direction)
        if key not in self._degree_cache:
            if self.index.has_adjacency(vertex_label, edge_label, direction):
                value = self.index.average_degree(vertex_label, edge_label, direction)
            else:
                value = 0.0
            self._degree_cache[key] = value
        return self._degree_cache[key]

    # ------------------------------------------------------------------ #
    # pattern cardinalities
    # ------------------------------------------------------------------ #

    def pattern_count(self, pattern: PatternGraph) -> float:
        """Estimated ``|M(P')|`` for a structural pattern with ≤ max_k
        vertices; raises for larger patterns (the cost model decomposes
        those recursively)."""
        structural = pattern.without_predicates()
        return self.count(structural.canonical_code(), lambda: structural)

    def count(self, key: tuple, structural: Callable[[], PatternGraph]) -> float:
        """:meth:`pattern_count` for a caller that already has the
        structural canonical code ``key``; ``structural()`` builds the
        pattern, and is called only when ``key`` is not cached."""
        value = self._cache.get(key)
        if value is None:
            value = self._compute(structural())
            self._cache[key] = value
        return value

    def _compute(self, pattern: PatternGraph) -> float:
        n, m = pattern.num_vertices, pattern.num_edges
        if n == 1 and m == 0:
            label = next(iter(pattern.vertices.values())).label
            return float(self.vertex_count(label))
        if m == 1 and n <= 2:
            edge = next(iter(pattern.edges.values()))
            if not self._edge_endpoints_consistent(pattern, edge.name):
                return 0.0
            return float(self.edge_count(edge.label))
        if m == 2 and n == 3:
            exact = self._two_path_count(pattern)
            if exact is not None:
                return exact
        return self._sampled_count(pattern)

    def _edge_endpoints_consistent(self, pattern: PatternGraph, edge_name: str) -> bool:
        edge = pattern.edges[edge_name]
        em = self.mapping.edge(edge.label)
        return (
            em.source_label == pattern.vertices[edge.src].label
            and em.target_label == pattern.vertices[edge.dst].label
        )

    def _two_path_count(self, pattern: PatternGraph) -> float | None:
        """Exact count of a 2-edge pattern via shared-middle degree products."""
        # Find the vertex incident to both edges.
        middle = None
        for name in pattern.vertices:
            if len(pattern.incident_edges(name)) == 2:
                middle = name
                break
        if middle is None:
            return None
        edges = pattern.incident_edges(middle)
        if len(edges) != 2:
            return None
        e1, e2 = edges
        for e in (e1, e2):
            if not self._edge_endpoints_consistent(pattern, e.name):
                return 0.0
        label = pattern.vertices[middle].label
        d1 = e1.direction_from(middle)
        d2 = e2.direction_from(middle)
        if not (
            self.index.has_adjacency(label, e1.label, d1)
            and self.index.has_adjacency(label, e2.label, d2)
        ):
            return 0.0
        o1, _ = self.index.adjacency(label, e1.label, d1).vectors()
        o2, _ = self.index.adjacency(label, e2.label, d2).vectors()
        return float(degree_products(o1, o2))

    def _sampled_count(self, pattern: PatternGraph) -> float:
        """Sparsified-sample estimate: walk from a vertex sample, scale up.

        The sample holds rowids of the first traversal step's vertex
        relation that the index covers, seeded by a digest of the pattern's
        canonical code, so every process draws the same sample.
        """
        steps = self._walk_steps(pattern)
        if steps is None:
            return 0.0
        n = len(steps[0].offsets) - 1
        if n <= 0:
            return 0.0
        sample_size = max(self.min_sample, int(n * self.sample_ratio))
        if sample_size >= n:
            return float(walk_count(range(n), steps))
        digest = zlib.crc32(repr(pattern.canonical_code()).encode())
        rng = random.Random(self.seed ^ digest)
        sample = rng.sample(range(n), sample_size)
        return walk_count(sample, steps) * (n / sample_size)

    def _walk_steps(self, pattern: PatternGraph) -> list[WalkStep] | None:
        """``pattern``'s edges as walk steps in the reference matcher's
        traversal order; None when an edge's endpoint labels contradict its
        mapping (the pattern cannot match)."""
        order = edge_order(pattern)
        columns = {order[0][0]: 0}
        steps = []
        for from_var, edge in order:
            em = self.mapping.edge(edge.label)
            if (
                em.source_label != pattern.vertices[edge.src].label
                or em.target_label != pattern.vertices[edge.dst].label
            ):
                return None
            direction = edge.direction_from(from_var)
            offsets, edges = self.index.adjacency(
                pattern.vertices[from_var].label, edge.label, direction
            ).vectors()
            far = self.index.edge_index(edge.label).endpoint_vector(direction)
            to_var = edge.other(from_var)
            target = columns.get(to_var)
            if target is None:
                columns[to_var] = len(columns)
            steps.append(WalkStep(columns[from_var], offsets, edges, far, target))
        return steps
