"""Cardinality estimation and the cost model of Sec 4.2.1.

Cardinalities
-------------
``CardinalityEstimator.estimate(P')`` returns the expected ``|M(P')|``;
the optimizer asks for every induced sub-pattern of one query pattern by
vertex mask (``CardinalityEstimator.over``), with the same arithmetic:

* patterns within GLogue's window (≤ max_k vertices) read the high-order
  statistic directly;
* larger patterns are decomposed recursively — peel a vertex ``u`` whose
  removal keeps the pattern connected, then multiply the rest's cardinality
  by the star-expansion factor.  When the star window around ``u`` fits in
  GLogue, the factor is the *conditional* ratio of two GLogue counts (this
  is where high-order statistics beat independence assumptions, e.g. on
  triangle closures); otherwise it falls back to average-degree ×
  closing-probability independence estimates (the "low-order only" mode the
  paper says degrades plan quality).
* vertex/edge constraint selectivities multiply on top, estimated from the
  relational column statistics of the mapped tables.

Costs (verbatim from the paper)
-------------------------------
With a graph index:

* ``P'_r`` single edge  → EXPAND_EDGE + GET_VERTEX: ``|M(P'_l)| · d̄``
* ``P'_r`` complete star → EXPAND_INTERSECT: ``|M(P'_l)| ·`` (average
  intersection work, approximated by the smallest leg degree)
* ``P'_r`` arbitrary    → HASH_JOIN: ``|M(P'_l)| · |M(P'_r)|``

Without a graph index every join is a HASH_JOIN costed as the product of the
two input cardinalities.  A small multiple of the *output* cardinality is
added in all cases so that equal-work plans are ranked by result size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.glogue import GLogue
from repro.graph.pattern import PatternEdge, PatternGraph, VertexMasks
from repro.relational.catalog import Catalog
from repro.relational.statistics import predicate_selectivity


@dataclass(frozen=True)
class StarStep:
    """A star expansion: new vertex ``center`` attached by ``legs`` to the
    already-matched sub-pattern; each leg is (bound leaf var, pattern edge)."""

    center: str
    legs: tuple[tuple[str, PatternEdge], ...]


def leg_numbers(
    glogue: GLogue, leaf_label: str, leaf: str, edge: PatternEdge
) -> tuple[float, int]:
    """A star leg's ``(average degree from the leaf, edge rows)``."""
    return (
        glogue.average_degree(leaf_label, edge.label, edge.direction_from(leaf)),
        glogue.edge_count(edge.label),
    )


class CardinalityEstimator:
    """Estimates ``|M(P')|`` for arbitrary connected patterns."""

    def __init__(
        self,
        glogue: GLogue,
        catalog: Catalog,
        use_glogue: bool = True,
    ):
        self.glogue = glogue
        self.catalog = catalog
        self.use_glogue = use_glogue

    def estimate(self, pattern: PatternGraph) -> float:
        """Expected ``|M(pattern)|``: the full-mask case of :meth:`over`."""
        masks = VertexMasks(pattern)
        return self.over(masks).cardinality(masks.full)

    def over(self, masks: VertexMasks) -> "MaskEstimates":
        """Estimates of every induced sub-pattern of ``masks.pattern``."""
        return MaskEstimates(self, masks)


class MaskEstimates:
    """``|M(P')|`` for the induced sub-patterns ``P'`` of one pattern ``P``,
    addressed and memoized by vertex mask (see :class:`VertexMasks`).

    A sub-pattern's estimate is its structural estimate times the
    selectivities of its vertex and edge constraints, floored at 1e-6.  The
    structural estimate reads GLogue for masks within its window and
    otherwise peels the highest-degree removable vertex (ties: the first in
    sorted order) and multiplies the rest's estimate by the star's expansion
    factor.  Each constraint's selectivity, and each star leg's average
    degree and edge rows (:meth:`legs`), is computed once per pattern.
    """

    def __init__(self, estimator: CardinalityEstimator, masks: VertexMasks):
        self.glogue = estimator.glogue
        self.use_glogue = estimator.use_glogue
        self.masks = masks
        mapping, catalog = self.glogue.mapping, estimator.catalog
        pattern = masks.pattern

        def selectivity(element, table_name):
            if element.predicate is None:
                return None
            return predicate_selectivity(element.predicate, catalog.stats(table_name))

        self._vertex_selectivity = [
            selectivity(pattern.vertices[n], mapping.vertex(label).table_name)
            for n, label in zip(masks.names, masks.labels)
        ]
        self._edge_selectivity = [
            selectivity(e, mapping.edge(e.label).table_name) for e, _ in masks.edges
        ]
        self._legs: list[list[tuple[int, float, int]]] = []
        for incident in masks.incident:
            legs = []
            for edge, far in incident:
                leaf = far.bit_length() - 1
                legs.append(
                    (far, *leg_numbers(self.glogue, masks.labels[leaf], masks.names[leaf], edge))
                )
            self._legs.append(legs)
        self._cardinality: dict[int, float] = {}
        self._structural: dict[int, float] = {}
        self._counts: dict[int, float] = {}

    def legs(self, center: int, mask: int) -> list[tuple[float, int]]:
        """``(average degree from the leaf, edge rows)`` per leg of vertex
        ``center``'s star inside ``mask``, in :meth:`VertexMasks.legs`
        order: what :meth:`CostModel.star_cost` prices."""
        return [(degree, rows) for far, degree, rows in self._legs[center] if far & mask]

    def cardinality(self, mask: int) -> float:
        value = self._cardinality.get(mask)
        if value is None:
            value = max(self.structural(mask) * self._selectivity(mask), 1e-6)
            self._cardinality[mask] = value
        return value

    def _selectivity(self, mask: int) -> float:
        # Multiplied in the order the induced sub-pattern lists its
        # elements, so every product rounds as it always has.
        out = 1.0
        for i in self.masks.vertex_order(mask):
            s = self._vertex_selectivity[i]
            if s is not None and mask >> i & 1:
                out *= s
        for (_, ends), s in zip(self.masks.edges, self._edge_selectivity):
            if s is not None and ends & mask == ends:
                out *= s
        return out

    def structural(self, mask: int) -> float:
        """The estimate of ``mask``'s sub-pattern without its constraints."""
        value = self._structural.get(mask)
        if value is None:
            value = self._peel(mask)
            self._structural[mask] = value
        return value

    def _peel(self, mask: int) -> float:
        masks, glogue = self.masks, self.glogue
        size = mask.bit_count()
        if self.use_glogue and size <= glogue.max_k:
            return self._count(mask)
        if size == 1:
            return float(glogue.vertex_count(masks.labels[mask.bit_length() - 1]))
        if size == 2:
            inner = masks.inner_edges(mask)
            if len(inner) == 1:
                return float(glogue.edge_count(inner[0].label))
        # Peel the highest-degree removable vertex: its star benefits most
        # from the conditional-window correction.
        candidate = rest = None
        best = -1
        for i, remaining in masks.peels(mask):
            degree = masks.degree(i, mask)
            if degree > best:
                candidate, rest, best = i, remaining, degree
        if candidate is None:
            # Disconnected after any removal should not happen for connected
            # patterns, but fall back to independence over one edge.
            return 1.0
        factor = self._expansion_factor(candidate, mask)
        return self.structural(rest) * factor

    def _expansion_factor(self, center: int, mask: int) -> float:
        """Expected output/input ratio of closing ``center``'s star inside
        ``mask`` over the rest.

        Tries the GLogue conditional window first: the induced pattern on
        {center} ∪ leaves versus the same window without the center.
        """
        masks = self.masks
        leaves = masks.adjacency[center] & mask
        if self.use_glogue and 1 + leaves.bit_count() <= self.glogue.max_k:
            window = leaves | (1 << center)
            window_base = window & ~(1 << center)
            if window_base and masks.connected(window_base):
                with_center = self._count(window)
                without = self._count(window_base)
                if without > 0:
                    return with_center / without
        return self._independence_factor(center, mask)

    def _independence_factor(self, center: int, mask: int) -> float:
        factor = 1.0
        for i, (degree, _) in enumerate(self.legs(center, mask)):
            if i == 0:
                factor *= degree
            else:
                nv = self.glogue.vertex_count(self.masks.labels[center])
                factor *= degree / nv if nv else 0.0
        return factor

    def _count(self, mask: int) -> float:
        """GLogue's count of ``mask``'s structural sub-pattern."""
        value = self._counts.get(mask)
        if value is None:
            masks = self.masks
            value = self.glogue.count(
                masks.structural_code(mask), lambda: masks.structural(mask)
            )
            self._counts[mask] = value
        return value


# Weight of reading/writing one output row relative to one unit of join work;
# keeps the model ranking equal-work plans by output size.
OUTPUT_WEIGHT = 0.1


class CostModel:
    """The physical cost model; see module docstring for the formulas.

    Every method prices one operator from cardinalities the caller
    estimated (``card`` is the operator's output cardinality) and returns
    the operator's cost.
    """

    def __init__(self, glogue: GLogue, use_graph_index: bool = True):
        self.glogue = glogue
        self.use_graph_index = use_graph_index

    def scan_cost(self, label: str, card: float) -> float:
        """Matching a single ``label`` vertex."""
        table_rows = self.glogue.vertex_count(label)
        return float(table_rows) + OUTPUT_WEIGHT * card

    def expand_cost(
        self,
        base_card: float,
        card: float,
        step: StarStep,
        pattern: PatternGraph,
    ) -> float:
        """A star expansion of ``base_card`` input rows; ``pattern`` holds
        the legs' vertices.  Priced by :meth:`star_cost`."""
        legs = [
            leg_numbers(self.glogue, pattern.vertices[leaf].label, leaf, edge)
            for leaf, edge in step.legs
        ]
        return self.star_cost(base_card, card, legs)

    def star_cost(
        self, base_card: float, card: float, legs: list[tuple[float, int]]
    ) -> float:
        """A star expansion of ``base_card`` input rows whose legs are
        ``(average degree from the leaf, edge rows)`` each."""
        if not self.use_graph_index:
            # Every leg is a hash join against the edge relation; the paper
            # costs a hash join as the product of the two input cardinalities.
            cost = 0.0
            current = base_card
            for i, (degree, edge_rows) in enumerate(legs):
                cost += current * edge_rows
                if i == 0:
                    # After the first leg the intermediate grows by d̄.
                    current = base_card * max(degree, 0.1)
            return cost + OUTPUT_WEIGHT * card
        if len(legs) == 1:
            cost = base_card * max(legs[0][0], 0.1)
        else:
            # EXPAND_INTERSECT: intersection work per input tuple is bounded
            # by the smallest adjacency plus probe costs into the others.
            cost = base_card * (min(degree for degree, _ in legs) + len(legs))
        return cost + OUTPUT_WEIGHT * card

    def join_cost(self, left_card: float, right_card: float, card: float) -> float:
        """A pattern hash join (Case I).

        The paper costs HASH_JOIN as the product of the cardinalities of the
        two relations being joined (Sec 4.2.1) — deliberately pessimistic,
        which is why decomposition plans rarely choose Case I when index-backed
        expansions are available.
        """
        cost = left_card * right_card
        return cost + OUTPUT_WEIGHT * card
