"""One CSR expansion body (:func:`repro.exec.kernels.expand_columnar`),
checked differentially:

* **graph operators** — on generated multigraphs (parallel edges,
  self-loops, vertices no edge touches), with dense and lazy edge and
  vertex masks, at batch sizes 1, 3 and 1024: ``EXPAND``, ``EXPAND_EDGE`` +
  ``GET_VERTEX`` and ``ALL_DISTINCT`` return the reference matcher's rows
  (:func:`repro.graph.matching.match_pattern`), and numpy on and off
  return the same rows in the same order, in the same sequence of batch
  lengths, with the same ``rows_produced``;
* **predefined joins** — the columnar bodies of ``CSR_JOIN`` and
  ``ROWID_JOIN`` return their row bodies' rows, in order, and their
  ``rows_produced``, with NULL vertices and NULL or negative pointers, with
  and without predicates, numpy on and off.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionContext, set_numpy_enabled
from repro.graph.matching import EDGE_DISTINCT, HOMOMORPHISM, ISOMORPHISM, match_pattern
from repro.graph.pattern import PatternGraph
from repro.graph.physical import AllDistinct, Expand, ExpandEdge, GetVertex, ScanVertex
from repro.relational.physical import CsrJoin, RowIdJoin, SeqScan
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from tests.test_intersect_kernel import (
    EDGE_PREDICATES,
    NUMPY_MODES,
    PARALLEL_RUNS,
    ROOT_PREDICATES,
    _graph,
    graphs,
)

#: ``None`` (no predicate) or a key of ``EDGE_PREDICATES`` / ``ROOT_PREDICATES``:
#: under numpy "dense" is a boolean ndarray mask, "lazy" a ``LazyMask``.
SHAPES = [None, "dense", "lazy"]


def _ends(direction: str, near: str, far: str) -> tuple[str, str]:
    """(source, target) of an edge traversed from ``near`` in ``direction``."""
    return (near, far) if direction == "out" else (far, near)


def _expand(mapping, index, direction, eshape, vshape):
    epred, vpred = EDGE_PREDICATES.get(eshape), ROOT_PREDICATES.get(vshape)
    op = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping, "a", "b", "Person",
        "Link", direction, edge_predicate=epred, vertex_predicate=vpred,
    )  # fmt: skip
    pattern = (
        PatternGraph.builder().vertex("a", "Person")
        .vertex("b", "Person", predicate=vpred)
        .edge(*_ends(direction, "a", "b"), "Link", name="e", predicate=epred).build()
    )  # fmt: skip
    return op, pattern, ["a", "b"], HOMOMORPHISM


def _expand_edge(mapping, index, direction, eshape, vshape):
    epred, vpred = EDGE_PREDICATES.get(eshape), ROOT_PREDICATES.get(vshape)
    op = GetVertex(
        ExpandEdge(
            ScanVertex(mapping, "a", "Person"), index, mapping, "a", "e", "Link",
            direction, edge_predicate=epred,
        ),
        index, mapping, "e", "b", "Person", direction, vertex_predicate=vpred,
    )  # fmt: skip
    pattern = (
        PatternGraph.builder().vertex("a", "Person")
        .vertex("b", "Person", predicate=vpred)
        .edge(*_ends(direction, "a", "b"), "Link", name="e", predicate=epred).build()
    )  # fmt: skip
    return op, pattern, ["a", "e", "b"], HOMOMORPHISM


def _distinct_vertices(mapping, index, direction, eshape, vshape):
    """a -> b -> c under ALL_DISTINCT (v): isomorphism."""
    epred, vpred = EDGE_PREDICATES.get(eshape), ROOT_PREDICATES.get(vshape)
    hop = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping, "a", "b", "Person",
        "Link", "out", edge_predicate=epred,
    )  # fmt: skip
    two = Expand(
        hop, index, mapping, "b", "c", "Person", "Link", direction, vertex_predicate=vpred
    )
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person", predicate=vpred)
        .edge("a", "b", "Link", name="e1", predicate=epred)
        .edge(*_ends(direction, "b", "c"), "Link", name="e2").build()
    )  # fmt: skip
    return AllDistinct(two, kind="v"), pattern, ["a", "b", "c"], ISOMORPHISM


def _distinct_edges(mapping, index, direction, eshape, vshape):
    """a -e1-> b -e2-> c with both edges bound, under ALL_DISTINCT (e)."""
    epred, vpred = EDGE_PREDICATES.get(eshape), ROOT_PREDICATES.get(vshape)
    hop = GetVertex(
        ExpandEdge(ScanVertex(mapping, "a", "Person"), index, mapping, "a", "e1", "Link", "out"),
        index, mapping, "e1", "b", "Person", "out",
    )  # fmt: skip
    two = GetVertex(
        ExpandEdge(hop, index, mapping, "b", "e2", "Link", direction, edge_predicate=epred),
        index, mapping, "e2", "c", "Person", direction, vertex_predicate=vpred,
    )  # fmt: skip
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person", predicate=vpred).edge("a", "b", "Link", name="e1")
        .edge(*_ends(direction, "b", "c"), "Link", name="e2", predicate=epred).build()
    )  # fmt: skip
    variables = ["a", "e1", "b", "e2", "c"]
    return AllDistinct(two, kind="e"), pattern, variables, EDGE_DISTINCT


PLANS = {
    "expand": _expand,
    "expand_edge": _expand_edge,
    "distinct_vertices": _distinct_vertices,
    "distinct_edges": _distinct_edges,
}


def _run(op, batch_size: int, numpy_on: bool):
    """(rows, batch lengths, rows_produced) of ``op``'s columnar body."""
    set_numpy_enabled(numpy_on)
    ctx = ExecutionContext(batch_size=batch_size)
    rows, lengths = [], []
    for cb in op.columnar_batches(ctx):
        lengths.append(len(cb))
        rows.extend(cb.to_rows())
    assert all(type(v) is int for row in rows for v in row), "numpy scalar leaked"
    return rows, lengths, ctx.rows_produced


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=graphs(),
    plan=st.sampled_from(sorted(PLANS)),
    direction=st.sampled_from(["out", "in"]),
    eshape=st.sampled_from(SHAPES),
    vshape=st.sampled_from(SHAPES),
)
# The lazy edge mask passes edges 4, 8 and 16 and no vertex rowid: a mask
# looked up by far endpoint instead of edge rowid loses every row.
@example(graph=PARALLEL_RUNS, plan="expand", direction="out", eshape="lazy", vshape=None)
# Vertex 1's six parallel 1 -> 2 edges cut across batches of 3.
@example(graph=PARALLEL_RUNS, plan="expand_edge", direction="out", eshape=None, vshape=None)
def test_expansions_agree_across_modes_and_with_the_matcher(graph, plan, direction, eshape, vshape):
    mapping, index = _graph(*graph)
    op, pattern, variables, semantics = PLANS[plan](mapping, index, direction, eshape, vshape)
    expected = sorted(
        tuple(b[v] for v in variables)
        for b in match_pattern(mapping, index, pattern, semantics)
    )
    try:
        for batch_size in (1, 3, 1024):
            runs = [_run(op, batch_size, numpy_on) for numpy_on in NUMPY_MODES]
            rows, lengths, produced = runs[0]
            assert sorted(rows) == expected, (batch_size, runs)
            assert all(run == runs[0] for run in runs[1:]), batch_size
            # Expansions leave in batch_size slices.
            assert max(lengths, default=0) <= batch_size
            assert produced >= len(rows)
    finally:
        set_numpy_enabled(None)


# --------------------------------------------------------------------- #
# predefined joins: the columnar bodies against the row bodies
# --------------------------------------------------------------------- #


def _source(values: list) -> Table:
    schema = TableSchema(
        "Src", [Column("id", DataType.INT), Column("v", DataType.INT)], primary_key="id"
    )
    return Table(schema, rows=list(enumerate(values)))


def _both_bodies(op, batch_size: int) -> list:
    """[(rows, rows_produced)] of the columnar body per numpy mode, then of
    the row body."""
    out = []
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            ctx = ExecutionContext(batch_size=batch_size)
            rows = [row for cb in op.columnar_batches(ctx) for row in cb.to_rows()]
            out.append((rows, ctx.rows_produced))
    finally:
        set_numpy_enabled(None)
    ctx = ExecutionContext(batch_size=batch_size)
    out.append(([row for batch in op.batches(ctx) for row in batch], ctx.rows_produced))
    return out


#: CSR_JOIN output shapes: (projected edge columns, with the far pointer).
#: The row body's one- and zero-column fast paths (far pointer, no
#: predicate) do not skip NULL vertices, so those shapes are left out.
CSR_SHAPES = [(None, True), (["src", "dst"], True), (["kind"], False), ([], False)]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    graph=graphs(),
    direction=st.sampled_from(["out", "in"]),
    eshape=st.sampled_from(SHAPES),
    shape=st.sampled_from(range(len(CSR_SHAPES))),
    batch_size=st.sampled_from([1, 3, 1024]),
)
def test_csr_join_columnar_equals_row_body(data, graph, direction, eshape, shape, batch_size):
    mapping, index = _graph(*graph)
    vertex = st.integers(0, graph[0] - 1)
    vertices = data.draw(st.lists(st.one_of(st.none(), vertex, vertex), max_size=10))
    adjacency = index.adjacency("Person", "Link", direction)
    projected, with_far = CSR_SHAPES[shape]
    far = ("e._far", index.edge_index("Link").endpoint_rowids(direction))
    op = CsrJoin(
        SeqScan(_source(vertices), "s"), "s.v", adjacency.offsets,
        adjacency.edge_rowids, mapping.edge_table("Link"), "e", projected=projected,
        predicate=EDGE_PREDICATES.get(eshape), far_pointer=far if with_far else None,
    )  # fmt: skip
    runs = _both_bodies(op, batch_size)
    assert all(run == runs[-1] for run in runs), runs


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    graph=graphs(),
    vshape=st.sampled_from(SHAPES),
    projected=st.sampled_from([None, ["name"], []]),
    emit_rowid=st.booleans(),
    batch_size=st.sampled_from([1, 3, 1024]),
)
def test_rowid_join_columnar_equals_row_body(
    data, graph, vshape, projected, emit_rowid, batch_size
):
    mapping, index = _graph(*graph)
    n = graph[0]
    # The row body drops NULL and negative pointers only on its general
    # (emit_rowid) path; its comprehension fast paths index with them.
    pointer = st.integers(0, n - 1)
    if emit_rowid:
        pointer = st.one_of(st.none(), st.integers(-2, -1), pointer, pointer)
    pointers = data.draw(st.lists(pointer, max_size=10))
    op = RowIdJoin(
        SeqScan(_source(pointers), "s"), "s.v", mapping.vertex_table("Person"), "b",
        projected=projected, predicate=ROOT_PREDICATES.get(vshape), emit_rowid=emit_rowid,
    )  # fmt: skip
    runs = _both_bodies(op, batch_size)
    assert all(run == runs[-1] for run in runs), runs


@pytest.mark.parametrize("batch_size", [1, 3, 1024])
def test_predefined_joins_drop_null_vertices_and_pointers(batch_size):
    """NULL vertices add no CSR_JOIN rows; NULL and negative pointers add no
    ROWID_JOIN rows — columnar and row bodies alike."""
    mapping, index = _graph(*PARALLEL_RUNS)
    adjacency = index.adjacency("Person", "Link", "out")
    csr = CsrJoin(
        SeqScan(_source([None, 1, None, 3]), "s"), "s.v", adjacency.offsets,
        adjacency.edge_rowids, mapping.edge_table("Link"), "e", projected=["src", "dst"],
        far_pointer=("e._far", index.edge_index("Link").dst_rowids),
    )  # fmt: skip
    for rows, _ in _both_bodies(csr, batch_size):
        assert [(row[1], row[2]) for row in rows] == [(1, 1)] * 10 + [(3, 3)] * 2
    rowid = RowIdJoin(
        SeqScan(_source([None, 2, -1, 0, -2]), "s"), "s.v",
        mapping.vertex_table("Person"), "b", projected=["id"], emit_rowid=True,
    )  # fmt: skip
    for rows, _ in _both_bodies(rowid, batch_size):
        assert rows == [(1, 2, 2, 2), (3, 0, 0, 0)]
