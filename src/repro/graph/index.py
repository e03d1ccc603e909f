"""The graph index: EV-index and VE-index (Sec 3.2.1 of the paper).

Following GRainDB's *predefined join*, the index materializes adjacency
relationships between relations without materializing a graph:

* **EV-index** — for each edge relation, two extra integer columns
  (``src_rowids`` / ``dst_rowids``) holding the rowid of the corresponding
  tuple in the source / target vertex relation.  Routing an edge tuple to a
  joinable vertex tuple is a single list index, no hash lookup.
* **VE-index** — for each vertex relation and incident edge label and
  direction, a CSR structure (``offsets`` + ``edge_rowids``) listing the
  adjacent edge tuples of every vertex tuple.  Combined with the EV-index
  this yields each vertex's adjacent edges *and* neighbors, which is what
  the EXPAND_EDGE / GET_VERTEX / EXPAND_INTERSECT physical operators walk.

All index arrays are **typed** (``array.array('q')``): indexing still
yields plain Python ints for the row-protocol walks, while the
``*_vector()`` accessors expose cached numpy views so the columnar
expansion kernels gather adjacency natively, and
:meth:`Adjacency.key_view` a cached neighbor-ordered copy of each CSR with
its neighbors, its sorted pair keys and, when dense, their direct-address
slot table, which EXPAND_INTERSECT expands and probes.  The CSR build itself
runs as a numpy stable argsort when numpy is enabled, falling back to the
classic count-and-fill pass.

Directions: ``"out"`` adjacency lists the edges whose *source* is the
vertex; ``"in"`` lists edges whose *target* is the vertex.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

from repro.errors import CatalogError, SchemaError
from repro.exec import vector
from repro.graph.rgmapping import RGMapping

OUT = "out"
IN = "in"


def typed_rowids(values) -> array:
    """An int sequence as a typed ``array.array('q')`` rowid column."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    np = vector._np
    if np is not None and isinstance(values, np.ndarray):
        out = array("q")
        out.frombytes(values.astype("int64", copy=False).tobytes())
        return out
    return array("q", values)


@dataclass
class EdgeIndex:
    """EV-index of one edge relation: endpoint rowids per edge tuple."""

    edge_label: str
    src_rowids: Sequence[int]
    dst_rowids: Sequence[int]
    _vectors: dict = field(default_factory=dict, repr=False, compare=False)

    def endpoint_rowids(self, direction: str) -> Sequence[int]:
        """Rowids of the *far* endpoint when traversing in ``direction``.

        Traversing ``out`` (vertex is the source) lands on targets;
        traversing ``in`` lands on sources.
        """
        return self.dst_rowids if direction == OUT else self.src_rowids

    def near_rowids(self, direction: str) -> Sequence[int]:
        return self.src_rowids if direction == OUT else self.dst_rowids

    def endpoint_vector(self, direction: str) -> Sequence[int]:
        """Vectorized (cached ndarray) view of :meth:`endpoint_rowids`."""
        return vector.cached_vector(
            self._vectors, ("far", direction), self.endpoint_rowids(direction)
        )

    def near_vector(self, direction: str) -> Sequence[int]:
        return vector.cached_vector(
            self._vectors, ("near", direction), self.near_rowids(direction)
        )


#: A :class:`KeyView` gets a direct-address slot table when its key space
#: (vertex count times radix) is at most this many times its key count, so
#: the table's memory stays linear in the edge count; sparser views are
#: binary-searched instead.
MAX_SLOTS_PER_KEY = 64


class KeyView(NamedTuple):
    """An adjacency in neighbor order (:meth:`Adjacency.key_view`).

    ``edges`` holds the CSR edge rowids with each vertex's slice re-ordered
    by (far endpoint, edge rowid): the slice of vertex ``v`` is still
    ``edges[offsets[v]:offsets[v + 1]]``.  ``far[p]`` is the far endpoint of
    ``edges[p]``, in the same order, so a walk over view positions reads
    its neighbors with one gather and never touches an edge rowid.
    ``keys[p]`` is ``v * radix + far[p]`` for the vertex ``v`` owning
    position ``p``, so ``keys`` is sorted and the edges from ``v`` to
    neighbor ``u`` are the run of key ``v * radix + u``, in edge-rowid
    order.  ``distinct`` is True when no two keys are equal: the adjacency
    has no parallel edges.

    ``slots`` is the direct-address table of a dense view (key space at
    most :data:`MAX_SLOTS_PER_KEY` times the key count), None otherwise:
    one entry per key of the space ``[0, vertex count * radix)``, holding
    the first position of that key's run in ``keys``, or -1 for a key that
    is absent.  ``run_lengths[p]``, kept only for a dense view with
    parallel edges (None otherwise), is the length of the run holding
    position ``p``.  Every array is an int64 ndarray with numpy on and an
    ``array('q')`` buffer off.
    """

    radix: int
    edges: Any
    far: Any
    keys: Any
    distinct: bool
    slots: Any
    run_lengths: Any


@dataclass
class Adjacency:
    """VE-index of one (vertex label, edge label, direction): CSR arrays.

    Edges adjacent to vertex rowid ``v`` are
    ``edge_rowids[offsets[v]:offsets[v + 1]]``, in edge-rowid order — the
    order Expand emits and the count-and-fill build produces.
    :meth:`key_view` adds a neighbor-ordered :class:`KeyView` of the same
    slices, the sorted pair keys EXPAND_INTERSECT expands its driving leg
    from and probes its other legs in (through the view's slot table when
    it is dense), with numpy on or off.
    """

    vertex_label: str
    edge_label: str
    direction: str
    offsets: Sequence[int]
    edge_rowids: Sequence[int]
    _vectors: dict = field(default_factory=dict, repr=False, compare=False)

    def edges_of(self, vertex_rowid: int) -> Sequence[int]:
        return self.edge_rowids[self.offsets[vertex_rowid] : self.offsets[vertex_rowid + 1]]

    def degree(self, vertex_rowid: int) -> int:
        return self.offsets[vertex_rowid + 1] - self.offsets[vertex_rowid]

    def max_degree(self) -> int:
        """The largest number of edges any one vertex has (0 when there are
        none); computed once."""
        degree = self._vectors.get("max_degree")
        if degree is None:
            offsets = self.vectors()[0]
            if vector.is_ndarray(offsets):
                degree = int(vector._np.diff(offsets).max(initial=0))
            else:
                degree = max((b - a for a, b in zip(offsets, offsets[1:])), default=0)
            self._vectors["max_degree"] = degree
        return degree

    def vectors(self) -> tuple[Sequence[int], Sequence[int]]:
        """``(offsets, edge_rowids)`` as cached vectorized views."""
        return (
            vector.cached_vector(self._vectors, "offsets", self.offsets),
            vector.cached_vector(self._vectors, "edges", self.edge_rowids),
        )

    def key_view(self, far: Sequence[int], radix: int) -> KeyView:
        """This adjacency's :class:`KeyView`, in the domain of
        :meth:`vectors` (ndarrays with numpy on, ``array('q')`` off).

        ``far`` is the far endpoint of every edge rowid (the edge index's
        :meth:`EdgeIndex.endpoint_vector` for this direction) and ``radix``
        must exceed every far rowid; keys are int64, so the vertex count
        times ``radix`` must stay below ``2**63``.  Both forms sort each
        slice stably by far endpoint, so they hold the same edges and keys,
        and both fill the slot table (and run lengths) by the same rule
        when the view is dense.  Built on first use and cached (one view,
        rebuilt if asked for another ``radix`` or domain): the index is
        immutable, and a view is stored only once complete, so two workers
        building it at once each publish a whole, equal view.
        """
        offsets, edges = self.vectors()
        view = self._vectors.get("key_view")
        if view is None or view.radix != radix or type(view.edges) is not type(edges):
            if vector.is_ndarray(edges):
                np = vector._np
                owners = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
                ends = far[edges]
                keys = owners * radix + ends
                # Stable: equal keys (parallel edges) keep the CSR's
                # edge-rowid order.
                order = np.argsort(keys, kind="stable")
                edges, ends, keys = edges[order], ends[order], keys[order]
                distinct = not (keys[1:] == keys[:-1]).any()
            else:
                ordered, ends, keys = array("q"), array("q"), array("q")
                for v in range(len(offsets) - 1):
                    run = sorted(edges[offsets[v] : offsets[v + 1]], key=far.__getitem__)
                    neighbors = [far[e] for e in run]
                    ordered.extend(run)
                    ends.extend(neighbors)
                    keys.extend([v * radix + u for u in neighbors])
                edges = ordered
                distinct = all(a != b for a, b in zip(keys, keys[1:]))
            space = (len(offsets) - 1) * radix
            slots = run_lengths = None
            if space <= MAX_SLOTS_PER_KEY * len(keys):
                slots, run_lengths = vector.run_slots(keys, space)
            view = KeyView(radix, edges, ends, keys, distinct, slots, run_lengths)
            self._vectors["key_view"] = view
        return view

    @property
    def num_edges(self) -> int:
        return len(self.edge_rowids)


@dataclass
class GraphIndex:
    """All EV/VE indexes of one property graph.

    An index is immutable once built; refreshing after appends means
    building a *new* index (rebuild-and-swap) whose ``version`` is larger.
    ``vertex_rows`` / ``edge_rows`` record, per label, the table extents
    the build covered — the executor clamps its table snapshots to these
    counts so a query always reads graph structure and tuple attributes at
    the same version (rows appended after the build are invisible to graph
    plans until the index is rebuilt).
    """

    graph_name: str
    ev: dict[str, EdgeIndex] = field(default_factory=dict)
    ve: dict[tuple[str, str, str], Adjacency] = field(default_factory=dict)
    version: int = 0
    vertex_rows: dict[str, int] = field(default_factory=dict)
    edge_rows: dict[str, int] = field(default_factory=dict)
    _extents: tuple | None = field(default=None, repr=False, compare=False)

    def extents(self, mapping: RGMapping) -> dict[int, int]:
        """``id(table) -> rows`` the build covered, for every table of
        ``mapping`` this index spans — the shape the executor clamps its
        snapshots with.  Memoized: the index is immutable and a catalog
        never replaces a table object."""
        memo = self._extents
        if memo is None or memo[0] is not mapping:
            bounds = {
                id(mapping.vertex_table(label)): rows
                for label, rows in self.vertex_rows.items()
            }
            for label, rows in self.edge_rows.items():
                bounds[id(mapping.edge_table(label))] = rows
            memo = self._extents = (mapping, bounds)
        return memo[1]

    def edge_index(self, edge_label: str) -> EdgeIndex:
        try:
            return self.ev[edge_label]
        except KeyError:
            raise CatalogError(f"no EV-index for edge label {edge_label!r}") from None

    def adjacency(self, vertex_label: str, edge_label: str, direction: str) -> Adjacency:
        try:
            return self.ve[(vertex_label, edge_label, direction)]
        except KeyError:
            raise CatalogError(
                f"no VE-index for ({vertex_label!r}, {edge_label!r}, {direction!r})"
            ) from None

    def has_adjacency(self, vertex_label: str, edge_label: str, direction: str) -> bool:
        return (vertex_label, edge_label, direction) in self.ve

    def average_degree(self, vertex_label: str, edge_label: str, direction: str) -> float:
        adj = self.adjacency(vertex_label, edge_label, direction)
        vertices = len(adj.offsets) - 1
        if vertices == 0:
            return 0.0
        return adj.num_edges / vertices


def build_graph_index(mapping: RGMapping) -> GraphIndex:
    """Construct the EV- and VE-indexes for every edge mapping.

    This is the paper's "construct the graph indexes during the RGMapping
    process": each edge tuple's foreign keys are resolved to endpoint rowids
    through the vertex tables' primary-key indexes (raising on dangling
    references, since ``λˢ``/``λᵗ`` must be total), then CSR adjacency is
    built by a numpy stable argsort when available, else the classic
    count-and-fill pass.
    """
    from repro.relational.table import current_epoch

    index = GraphIndex(graph_name=mapping.name, version=current_epoch())
    for vertex_label, vm in mapping.vertices.items():
        index.vertex_rows[vertex_label] = mapping.catalog.table(
            vm.table_name
        ).num_rows
    for edge_label, em in sorted(mapping.edges.items()):
        edge_table = mapping.catalog.table(em.table_name)
        src_table = mapping.catalog.table(mapping.vertex(em.source_label).table_name)
        dst_table = mapping.catalog.table(mapping.vertex(em.target_label).table_name)
        src_map = src_table.pk_index()
        dst_map = dst_table.pk_index()
        try:
            src_rowids = typed_rowids(
                map(src_map.__getitem__, edge_table.column(em.source_key))
            )
            dst_rowids = typed_rowids(
                map(dst_map.__getitem__, edge_table.column(em.target_key))
            )
        except KeyError as dangling:
            raise SchemaError(
                f"edge {edge_label!r} has a dangling endpoint key "
                f"{dangling.args[0]!r}; λ-functions must be total"
            ) from None
        index.ev[edge_label] = EdgeIndex(edge_label, src_rowids, dst_rowids)
        index.edge_rows[edge_label] = len(src_rowids)
        index.ve[(em.source_label, edge_label, OUT)] = _build_csr(
            src_rowids, src_table.num_rows, edge_label, em.source_label, OUT
        )
        index.ve[(em.target_label, edge_label, IN)] = _build_csr(
            dst_rowids, dst_table.num_rows, edge_label, em.target_label, IN
        )
    return index


def _build_csr(
    endpoint_rowids: Sequence[int],
    num_vertices: int,
    edge_label: str,
    vertex_label: str,
    direction: str,
) -> Adjacency:
    np = vector._np
    if np is not None and vector.numpy_enabled():
        ends = np.asarray(endpoint_rowids, dtype=np.int64)
        counts = np.bincount(ends, minlength=num_vertices) if len(ends) else (
            np.zeros(num_vertices, dtype=np.int64)
        )
        offsets_v = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets_v[1:])
        # Stable sort by endpoint == the count-and-fill order (edge rowids
        # ascending within each vertex's slice).
        edges_v = np.argsort(ends, kind="stable").astype(np.int64)
        adjacency = Adjacency(
            vertex_label,
            edge_label,
            direction,
            typed_rowids(offsets_v),
            typed_rowids(edges_v),
        )
        adjacency._vectors = {"offsets": offsets_v, "edges": edges_v}
        return adjacency
    counts = [0] * num_vertices
    for v in endpoint_rowids:
        counts[v] += 1
    offsets = array("q", bytes(8 * (num_vertices + 1)))
    for i, c in enumerate(counts):
        offsets[i + 1] = offsets[i] + c
    cursor = offsets[:-1]
    edge_rowids = array("q", bytes(8 * len(endpoint_rowids)))
    for edge_rowid, v in enumerate(endpoint_rowids):
        edge_rowids[cursor[v]] = edge_rowid
        cursor[v] += 1
    return Adjacency(vertex_label, edge_label, direction, offsets, edge_rowids)
