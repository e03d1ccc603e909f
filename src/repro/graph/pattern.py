"""Pattern graphs: the ``P`` in the matching operator ``M(P)``.

A pattern graph is a small directed, labeled multigraph whose vertices and
edges may carry **constraints** (predicates over element attributes — the
``(P, Ψ)`` extension of Sec 4.2.3 that FilterIntoMatchRule produces).

Beyond the data model, this module provides the structural operations the
graph-aware optimizer is built on:

* induced sub-patterns and connectivity (decomposition-tree nodes must be
  *induced connected* sub-patterns of ``P``, Sec 3.1.2), addressed by
  vertex-set bitmasks (:class:`VertexMasks`) in the search and estimator;
* complete-star extraction (the MMC right children);
* a **canonical code** stable under variable renaming, used to key GLogue
  entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.errors import PlanError
from repro.relational.expr import Expr, and_


@dataclass(frozen=True)
class PatternVertex:
    """A pattern vertex: variable ``name``, vertex ``label``, optional constraint."""

    name: str
    label: str
    predicate: Expr | None = None

    def pred_key(self) -> str:
        return "" if self.predicate is None else str(self.predicate)


@dataclass(frozen=True)
class PatternEdge:
    """A directed pattern edge from variable ``src`` to ``dst``."""

    name: str
    label: str
    src: str
    dst: str
    predicate: Expr | None = None

    def other(self, vertex: str) -> str:
        if vertex == self.src:
            return self.dst
        if vertex == self.dst:
            return self.src
        raise PlanError(f"vertex {vertex!r} is not an endpoint of edge {self.name!r}")

    def direction_from(self, vertex: str) -> str:
        """Traversal direction when leaving ``vertex`` along this edge."""
        if vertex == self.src:
            return "out"
        if vertex == self.dst:
            return "in"
        raise PlanError(f"vertex {vertex!r} is not an endpoint of edge {self.name!r}")

    def pred_key(self) -> str:
        return "" if self.predicate is None else str(self.predicate)


class PatternGraph:
    """An immutable-by-convention pattern graph."""

    def __init__(self, vertices: list[PatternVertex], edges: list[PatternEdge]):
        self.vertices: dict[str, PatternVertex] = {}
        for v in vertices:
            if v.name in self.vertices:
                raise PlanError(f"duplicate pattern vertex {v.name!r}")
            self.vertices[v.name] = v
        self.edges: dict[str, PatternEdge] = {}
        for e in edges:
            if e.name in self.edges:
                raise PlanError(f"duplicate pattern edge {e.name!r}")
            if e.src not in self.vertices or e.dst not in self.vertices:
                raise PlanError(f"edge {e.name!r} references unknown vertices")
            self.edges[e.name] = e
        self._incident: dict[str, list[PatternEdge]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            self._incident[e.src].append(e)
            if e.dst != e.src:
                self._incident[e.dst].append(e)
        self._canonical: tuple | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def builder() -> "PatternBuilder":
        return PatternBuilder()

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertex_names(self) -> list[str]:
        return sorted(self.vertices)

    def incident_edges(self, vertex: str) -> list[PatternEdge]:
        """Edges touching ``vertex`` (both directions)."""
        return self._incident[vertex]

    def neighbors(self, vertex: str) -> set[str]:
        return {e.other(vertex) for e in self._incident[vertex]}

    def degree(self, vertex: str) -> int:
        return len(self._incident[vertex])

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        start = next(iter(self.vertices))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for nbr in self.neighbors(v):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(self.vertices)

    # ------------------------------------------------------------------ #
    # sub-patterns
    # ------------------------------------------------------------------ #

    def induced_subpattern(self, vertex_names: set[str] | frozenset[str]) -> "PatternGraph":
        """The sub-pattern induced by ``vertex_names`` (all internal edges kept)."""
        vertices = [self.vertices[n] for n in sorted(vertex_names)]
        edges = [
            e
            for e in self.edges.values()
            if e.src in vertex_names and e.dst in vertex_names
        ]
        return PatternGraph(vertices, edges)

    def with_vertex_constraint(self, vertex: str, predicate: Expr) -> "PatternGraph":
        """A copy with ``predicate`` AND-ed onto the vertex's constraint."""
        old = self.vertices[vertex]
        combined = predicate if old.predicate is None else and_(old.predicate, predicate)
        vertices = [
            replace(v, predicate=combined) if v.name == vertex else v
            for v in self.vertices.values()
        ]
        return PatternGraph(vertices, list(self.edges.values()))

    def without_predicates(self) -> "PatternGraph":
        """The structural skeleton: same shape and labels, no constraints.

        GLogue keys its cardinality entries on structural patterns only;
        constraint selectivities are folded in by the cost model.
        """
        vertices = [replace(v, predicate=None) for v in self.vertices.values()]
        edges = [replace(e, predicate=None) for e in self.edges.values()]
        return PatternGraph(vertices, edges)

    def with_edge_constraint(self, edge: str, predicate: Expr) -> "PatternGraph":
        old = self.edges[edge]
        combined = predicate if old.predicate is None else and_(old.predicate, predicate)
        edges = [
            replace(e, predicate=combined) if e.name == edge else e
            for e in self.edges.values()
        ]
        return PatternGraph(list(self.vertices.values()), edges)

    # ------------------------------------------------------------------ #
    # canonical code
    # ------------------------------------------------------------------ #

    def canonical_code(self) -> tuple:
        """A hashable code equal for patterns identical up to renaming
        (see :func:`canonical_code`)."""
        if self._canonical is None:
            self._canonical = canonical_code(
                {n: (v.label, v.pred_key()) for n, v in self.vertices.items()},
                [(e.src, e.dst, e.label, e.pred_key()) for e in self.edges.values()],
            )
        return self._canonical

    def __repr__(self) -> str:
        vs = ", ".join(f"{v.name}:{v.label}" for v in self.vertices.values())
        es = ", ".join(
            f"{e.src}-[{e.label}]->{e.dst}" for e in self.edges.values()
        )
        return f"Pattern({vs} | {es})"


def canonical_code(
    vertices: dict[str, tuple[str, str]], edges: list[tuple[str, str, str, str]]
) -> tuple:
    """A hashable code equal for patterns identical up to renaming.

    ``vertices`` maps each name to ``(label, predicate key)``; ``edges`` are
    ``(src, dst, label, predicate key)``.  Computed by 1-WL style color
    refinement followed by exhaustive permutation within residual color
    classes (patterns are small — the paper's MMC-constrained optimizer
    never sees more than ~10 vertices, and refinement usually leaves
    singleton classes).
    """
    names = sorted(vertices)
    if len(set(vertices.values())) == len(names):
        # Distinct initial colors: refinement splits nothing, and the one
        # candidate order is by color.
        return _code(sorted(names, key=vertices.__getitem__), vertices, edges)
    incident: dict[str, list[tuple[str, str, str, str]]] = {n: [] for n in names}
    for src, dst, label, pred in edges:
        incident[src].append((label, "out", dst, pred))
        if dst != src:
            incident[dst].append((label, "in", src, pred))
    colors: dict[str, tuple] = {n: vertices[n] for n in names}
    for _ in range(len(names)):
        signature: dict[str, tuple] = {}
        for n in names:
            signature[n] = (
                colors[n],
                tuple(
                    sorted(
                        (label, direction, colors[other], pred)
                        for label, direction, other, pred in incident[n]
                    )
                ),
            )
        # Re-index signatures to compact colors.
        distinct = sorted(set(signature.values()))
        remap = {sig: i for i, sig in enumerate(distinct)}
        new_colors = {n: (remap[signature[n]], colors[n]) for n in names}
        if len(set(new_colors.values())) == len(set(colors.values())):
            colors = new_colors
            break
        colors = new_colors
    # Group by final color; permute within groups for the minimal code.
    groups: dict[tuple, list[str]] = {}
    for n in names:
        groups.setdefault(colors[n], []).append(n)
    ordered_groups = [groups[c] for c in sorted(groups)]
    if len(ordered_groups) == len(names):
        return _code([group[0] for group in ordered_groups], vertices, edges)
    return min(
        _code(perm, vertices, edges) for perm in _group_permutations(ordered_groups)
    )


def _code(order: list[str], vertices, edges) -> tuple:
    """The code of one vertex order: vertex colors in order, then the
    sorted edges over order positions."""
    index = {n: i for i, n in enumerate(order)}
    return (
        tuple(vertices[n] for n in order),
        tuple(sorted((index[src], index[dst], label, pred) for src, dst, label, pred in edges)),
    )


def _group_permutations(groups: list[list[str]]):
    """All orderings that permute names only within their color group."""
    per_group = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*per_group):
        yield [n for group in combo for n in group]


def bit_indices(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexMasks:
    """One pattern's vertex sets as integer bitmasks.

    Bit ``i`` stands for the ``i``-th vertex name in sorted order, so
    ascending bit order is sorted name order and a mask's lowest bit is its
    lexicographically smallest name.  The decomposition search, the
    cardinality estimator and the Fig. 4a counter address induced
    sub-patterns by mask: connectivity is a bit-level BFS over one adjacency
    mask per vertex, decided once per mask, as are a mask's star steps
    (:meth:`peels`), and a :class:`PatternGraph` is built only where a plan
    node needs one (:meth:`induced`).
    """

    def __init__(self, pattern: PatternGraph):
        self.pattern = pattern
        self.names = sorted(pattern.vertices)
        self.bit = {name: 1 << i for i, name in enumerate(self.names)}
        self.labels = [pattern.vertices[name].label for name in self.names]
        self.full = (1 << len(self.names)) - 1
        #: Per vertex, the bits of its neighbors (its own bit for a
        #: self-loop, as :meth:`PatternGraph.neighbors` lists it).
        self.adjacency = [0] * len(self.names)
        #: Per vertex, ``(edge, far endpoint bit)`` in the pattern's edge
        #: order — the order ``incident_edges`` lists in every sub-pattern.
        self.incident: list[list[tuple[PatternEdge, int]]] = [[] for _ in self.names]
        #: ``(edge, bits of both endpoints)`` in the pattern's edge order.
        self.edges: list[tuple[PatternEdge, int]] = []
        for edge in pattern.edges.values():
            src, dst = self.bit[edge.src], self.bit[edge.dst]
            i, j = src.bit_length() - 1, dst.bit_length() - 1
            self.adjacency[i] |= dst
            self.adjacency[j] |= src
            self.incident[i].append((edge, dst))
            if i != j:
                self.incident[j].append((edge, src))
            self.edges.append((edge, src | dst))
        self._connected: dict[int, bool] = {}
        self._peels: dict[int, list[tuple[int, int]]] = {}

    def names_of(self, mask: int) -> list[str]:
        return [self.names[i] for i in bit_indices(mask)]

    def induced(self, mask: int) -> PatternGraph:
        """The induced sub-pattern on ``mask`` — the pattern itself for the
        full mask, else :meth:`PatternGraph.induced_subpattern` (vertices in
        sorted order)."""
        if mask == self.full:
            return self.pattern
        return self.pattern.induced_subpattern(set(self.names_of(mask)))

    def vertex_order(self, mask: int):
        """Bit indices of ``mask`` in the order :meth:`induced` lists them."""
        if mask == self.full:
            return [self.bit[name].bit_length() - 1 for name in self.pattern.vertices]
        return bit_indices(mask)

    def inner_edges(self, mask: int) -> list[PatternEdge]:
        """Edges with both endpoints in ``mask``, in the pattern's order."""
        return [edge for edge, ends in self.edges if ends & mask == ends]

    def structural_code(self, mask: int) -> tuple:
        """``induced(mask).without_predicates().canonical_code()``, without
        building either pattern."""
        return canonical_code(
            {self.names[i]: (self.labels[i], "") for i in bit_indices(mask)},
            [(e.src, e.dst, e.label, "") for e in self.inner_edges(mask)],
        )

    def structural(self, mask: int) -> PatternGraph:
        """``induced(mask).without_predicates()``, built directly."""
        return PatternGraph(
            [PatternVertex(self.names[i], self.labels[i]) for i in bit_indices(mask)],
            [replace(e, predicate=None) for e in self.inner_edges(mask)],
        )

    def degree(self, i: int, mask: int) -> int:
        """Edges of vertex ``i`` inside ``mask`` (a self-loop counts once)."""
        return sum(1 for _, far in self.incident[i] if far & mask)

    def legs(self, i: int, mask: int) -> tuple[tuple[str, PatternEdge], ...]:
        """Vertex ``i``'s star inside ``mask``: ``(leaf name, edge)`` per
        incident edge, as ``StarStep`` holds them."""
        name = self.names[i]
        return tuple((e.other(name), e) for e, far in self.incident[i] if far & mask)

    def reach(self, mask: int) -> int:
        """The bits adjacent to some vertex of ``mask``."""
        out = 0
        for i in bit_indices(mask):
            out |= self.adjacency[i]
        return out

    def connected(self, mask: int) -> bool:
        """Whether the induced sub-pattern on a non-empty ``mask`` is
        connected: a search from the lowest bit, one vertex at a time
        (memoized per mask)."""
        value = self._connected.get(mask)
        if value is None:
            adjacency = self.adjacency
            seen = todo = mask & -mask
            while todo:
                low = todo & -todo
                todo ^= low
                new = adjacency[low.bit_length() - 1] & mask & ~seen
                seen |= new
                todo |= new
            value = self._connected[mask] = seen == mask
        return value

    def peels(self, mask: int) -> list[tuple[int, int]]:
        """Star steps of ``mask``: ``(center bit index, rest)`` for every
        vertex whose removal leaves a non-empty connected rest, in sorted
        name order (memoized per mask)."""
        value = self._peels.get(mask)
        if value is None:
            value = self._peels[mask] = [
                (i, rest)
                for i in bit_indices(mask)
                if (rest := mask & ~(1 << i)) and self.connected(rest)
            ]
        return value

    def splits(self, mask: int):
        """Overlapping binary joins of a connected ``mask``: ``(left,
        right)``.

        ``left`` is a connected proper subset of at least two vertices that
        holds the lowest bit (one orientation per split), visited by size,
        then by sorted names; ``right`` is the rest plus the vertices of
        ``left`` adjacent to it, and must be connected and proper.
        """
        adjacency = self.adjacency
        low = mask & -mask
        # Connected sets holding ``low``, one size at a time, each grown by
        # one neighbor from the previous size; mapped to their neighbors.
        level = {low: adjacency[low.bit_length() - 1] & mask}
        for _ in range(2, mask.bit_count()):
            grown: dict[int, int] = {}
            for left, neighbors in level.items():
                fresh = neighbors & ~left
                while fresh:
                    bit = fresh & -fresh
                    fresh ^= bit
                    if (left | bit) not in grown:
                        grown[left | bit] = (neighbors | adjacency[bit.bit_length() - 1]) & mask
            level = grown
            for left in sorted(grown, key=lambda m: tuple(bit_indices(m))):
                remainder = mask ^ left
                right = remainder | (left & self.reach(remainder))
                if right != mask and self.connected(right):
                    yield left, right


class PatternBuilder:
    """Fluent builder: ``PatternGraph.builder().vertex(...).edge(...).build()``."""

    def __init__(self) -> None:
        self._vertices: list[PatternVertex] = []
        self._edges: list[PatternEdge] = []
        self._auto_edge = 0

    def vertex(
        self, name: str, label: str, predicate: Expr | None = None
    ) -> "PatternBuilder":
        self._vertices.append(PatternVertex(name, label, predicate))
        return self

    def edge(
        self,
        src: str,
        dst: str,
        label: str,
        name: str | None = None,
        predicate: Expr | None = None,
    ) -> "PatternBuilder":
        if name is None:
            self._auto_edge += 1
            name = f"_e{self._auto_edge}"
        self._edges.append(PatternEdge(name, label, src, dst, predicate))
        return self

    def build(self) -> PatternGraph:
        pattern = PatternGraph(self._vertices, self._edges)
        if pattern.num_vertices and not pattern.is_connected():
            raise PlanError("pattern graphs must be connected (Sec 2.2)")
        return pattern
