"""EXPAND_INTERSECT is one kernel (:func:`repro.exec.kernels.intersect_expand`),
checked against references that share no code with it:

* **property** — on random small graphs (parallel edges on one and on
  several legs, self-loops, zero-degree and hub vertices), a star of 2–4
  legs with kept and trimmed edge variables mixed, dense and lazy edge
  masks and a root vertex mask, at batch sizes 1, 2 and 1024, with numpy on
  and off, at parallelism 1 and 4 and with views on both sides of the
  slot-table density rule, the operator returns the reference
  matcher's rows (:func:`repro.graph.matching.match_pattern`); with numpy
  on and off the kernel returns the same rows in the same order, in the
  same chunks, with the same ``rows_produced``;
* **slice and product paths** — on the same kind of graphs and stars,
  when every candidate is one row the kernel emits plain slices of its
  candidates and builds no product positions; forced through the product
  path (views claiming runs of one edge) it emits the same rows in the
  same chunks, numpy on and off;
* **slot lookup** — on the same kind of graphs, padded with isolated
  vertices past the density rule or not, a view's direct-address slot
  table answers every probe of its key space exactly as the binary search
  over its keys does, numpy on and off; padded graphs, whose views get no
  table, go through the property check above too;
* **work bound** — only the smallest leg of a slice is expanded, numpy on
  or off: a star whose other leaf is a 10 000-edge hub materializes one
  pair, and a 1 024-row batch beside such a hub is one slice of 1 024
  pairs; on the property graphs and stars, at the engine's pair bound and
  at one batch, each slice is the longest run of rows on which some leg
  fits the bound, its driver expands no more than the bound unless the
  slice is one row, and numpy on and off cut the same slices;
* **plan level** — on all 25 LDBC statements under the five converged
  systems, answers, ``rows_produced`` and ``peak_buffered_rows`` equal those
  of the per-row neighbor-map loop the kernel replaced, kept here as the
  reference.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import product
from math import isqrt, prod
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.sqlpgq import parse_and_bind
from repro.exec import (
    ColumnarBatch,
    ExecutionContext,
    execute_plan,
    kernels,
    numpy_available,
    open_plan,
    set_numpy_enabled,
)
from repro.exec.vector import as_values, key_runs
from repro.graph import index as graph_index
from repro.graph.index import MAX_SLOTS_PER_KEY, build_graph_index
from repro.graph.matching import match_pattern, rowid_predicate
from repro.graph.pattern import PatternGraph
from repro.graph.physical import Expand, ExpandIntersect, ScanVertex, StarLeg
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.relational.expr import BoolOp, Like, col, eq, lit, starts_with
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import DataType
from repro.systems import make_system
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import ic_queries, qc_queries, qr_queries

NUMPY_MODES = [False, True] if numpy_available() else [False]

#: Under numpy a dictionary comparison is a dense boolean mask; LIKE over a
#: NULL-bearing column and an OR across two columns are lazy masks (without
#: numpy every mask is lazy).
EDGE_PREDICATES = {"dense": eq(col("kind"), lit("x")), "lazy": Like(col("note"), "n1%")}
ROOT_PREDICATES = {
    "dense": eq(col("name"), lit("A")),
    "lazy": BoolOp("OR", (starts_with(col("since"), "2021"), eq(col("id"), lit(0)))),
}


@st.composite
def graphs(draw):
    """``(vertex count, [(src, dst)])``: self-loops and parallel edges drawn
    freely, optionally a hub linked both ways to every vertex, and vertices
    no edge touches."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    links = draw(st.lists(st.tuples(vertex, vertex), max_size=20))
    if draw(st.booleans()):
        hub = draw(vertex)
        links += [(hub, v) for v in range(n)] + [(v, hub) for v in range(n)]
    if links:
        links += draw(st.lists(st.sampled_from(links), max_size=8))
    return n, links


@st.composite
def stars(draw):
    """Legs as ``(leaf, direction leaving it, kept, edge predicate)``, plus
    whether ``d`` is bound and the root predicate."""
    with_d = draw(st.booleans())
    leaves = ["a", "b", "d"] if with_d else ["a", "b"]
    legs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(leaves),
                st.sampled_from(["out", "in"]),
                st.booleans(),
                st.sampled_from([None, "dense", "lazy"]),
            ),
            min_size=2,
            max_size=4,
        )
    )
    return legs, with_d, draw(st.sampled_from([None, "dense", "lazy"]))


#: Drawn cases with more matches than this are skipped: a few parallel
#: self-loops under four legs reach 10^8 matches, which neither the
#: reference matcher nor the kernel can list in a test's memory and time.
MAX_MATCHES = 50_000


def _match_count(graph, star) -> int:
    """The star's matches with every predicate ignored — an upper bound on
    the rows the property test compares — from edge multiplicities alone."""
    n, links = graph
    legs, with_d, _ = star
    mult = Counter(links)
    total = 0
    for a, b in product(range(n), repeat=2):
        for d in range(n) if with_d else [None]:
            weight = mult[a, b] * (mult[d, b] if with_d else 1)
            if weight:
                bound = {"a": a, "b": b, "d": d}
                total += weight * sum(
                    prod(
                        mult[bound[leaf], c] if direction == "out" else mult[c, bound[leaf]]
                        for leaf, direction, _, _ in legs
                    )
                    for c in range(n)
                )
    return total


def _sparse_size(n: int, links: list[tuple[int, int]]) -> int:
    """The fewest persons, at least ``n``, that put a ``links`` key view
    past the slot-table density rule (so it gets no table)."""
    return max(n, isqrt(MAX_SLOTS_PER_KEY * len(links)) + 1)


def _graph(n: int, links: list[tuple[int, int]], pairs: list[tuple[int, int]] = ()):
    """Persons ``0..n-1`` linked by ``links``; ``pairs``, when given, become
    a second edge label ``Pair``."""
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "Person",
            [
                Column("id", DataType.INT),
                Column("name", DataType.STRING),
                Column("since", DataType.DATE),
            ],
            primary_key="id",
        ),
        rows=[(v, "AB"[v % 2], f"202{v % 3}-01-{1 + v % 28:02d}") for v in range(n)],
    )
    catalog.create_table(
        TableSchema(
            "Link",
            [
                Column("id", DataType.INT),
                Column("src", DataType.INT),
                Column("dst", DataType.INT),
                Column("kind", DataType.STRING),
                Column("note", DataType.STRING),
            ],
            primary_key="id",
            foreign_keys=[
                ForeignKey("src", "Person", "id"),
                ForeignKey("dst", "Person", "id"),
            ],
        ),
        rows=[
            (i, s, d, "xy"[i % 2], None if i % 3 == 0 else f"n{1 + i % 4}")
            for i, (s, d) in enumerate(links)
        ],
    )
    mapping = RGMapping("G", catalog)
    mapping.add_vertex("Person")
    mapping.add_edge("Link", source=("Person", "src"), target=("Person", "dst"))
    if pairs:
        catalog.create_table(
            TableSchema(
                "Pair",
                [Column("id", DataType.INT), Column("src", DataType.INT), Column("dst", DataType.INT)],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("src", "Person", "id"),
                    ForeignKey("dst", "Person", "id"),
                ],
            ),
            rows=[(i, s, d) for i, (s, d) in enumerate(pairs)],
        )
        mapping.add_edge("Pair", source=("Person", "src"), target=("Person", "dst"))
    return mapping, build_graph_index(mapping)


def _star(mapping, index, legs, with_d, root):
    """(operator, reference pattern, output variables) closing the star at c."""
    vpred = ROOT_PREDICATES.get(root)
    child = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out",
    )  # fmt: skip
    builder = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person", predicate=vpred).edge("a", "b", "Link", name="e1")
    )  # fmt: skip
    if with_d:
        child = Expand(child, index, mapping, "b", "d", "Person", "Link", "in")
        builder = builder.vertex("d", "Person").edge("d", "b", "Link", name="e2")
    star_legs, kept = [], []
    for i, (leaf, direction, keep, shape) in enumerate(legs):
        epred = EDGE_PREDICATES.get(shape)
        name = f"k{i}" if keep else f"t{i}"
        star_legs.append(StarLeg(leaf, "Link", direction, name if keep else None, epred))
        src, dst = (leaf, "c") if direction == "out" else ("c", leaf)
        builder = builder.edge(src, dst, "Link", name=name, predicate=epred)
        if keep:
            kept.append(name)
    op = ExpandIntersect(child, index, mapping, star_legs, "c", "Person", vertex_predicate=vpred)
    variables = [v.name for v in child.output_vars] + kept + ["c"]
    assert [v.name for v in op.output_vars] == variables
    return op, builder.build(), variables


def _serial(op, batch_size: int) -> tuple[list[tuple], int, list[int]]:
    """The operator's rows, ``rows_produced`` and batch lengths."""
    ctx = ExecutionContext(batch_size=batch_size)
    batches = [cb.to_rows() for cb in op.columnar_batches(ctx)]
    rows = [row for batch in batches for row in batch]
    assert all(type(v) is int for row in rows for v in row), "numpy scalar leaked"
    return rows, ctx.rows_produced, [len(batch) for batch in batches]


#: Vertex 1 has the most out-edges, six of them parallel 1 -> 2; of those,
#: the lazy edge predicate passes edges 4, 8 and 16 and rejects 2, 5 and 12,
#: and the dense one passes the even edges.
PARALLEL_RUNS = (
    4,
    [(0, 1), (0, 2), (1, 2), (1, 3), (1, 2), (1, 2), (2, 3), (3, 1), (1, 2),
     (1, 0), (1, 3), (2, 0), (1, 2), (3, 2), (1, 1), (0, 3), (1, 2)],
)  # fmt: skip


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), star=stars(), parallelism=st.sampled_from([1, 4]), sparse=st.booleans())
# A dense mask on the larger leg, which is probed, not expanded.
@example(
    graph=PARALLEL_RUNS,
    star=([("a", "out", False, None), ("b", "out", False, "dense")], False, None),
    parallelism=1,
    sparse=False,
)
# A lazy mask on a probed leg with parallel edges, its edge variable kept:
# each run is masked and re-counted, and the kept edges are the survivors.
@example(
    graph=PARALLEL_RUNS,
    star=([("a", "out", False, None), ("b", "out", True, "lazy")], False, None),
    parallelism=1,
    sparse=False,
)
# The lazy mask rejects all four edges, so every hit of the probed leg goes.
@example(
    graph=(3, [(0, 1), (0, 2), (1, 2), (2, 1)]),
    star=([("a", "out", True, None), ("b", "in", False, "lazy")], False, None),
    parallelism=1,
    sparse=False,
)
# The same probed run, its view too sparse for a slot table.
@example(
    graph=PARALLEL_RUNS,
    star=([("a", "out", False, None), ("b", "out", True, "lazy")], False, None),
    parallelism=1,
    sparse=True,
)
def test_intersect_kernel_matches_the_reference_matcher(graph, star, parallelism, sparse):
    assume(_match_count(graph, star) <= MAX_MATCHES)
    n, links = graph
    # Sparse: isolated persons widen the key space past the density rule.
    mapping, index = _graph(_sparse_size(n, links) if sparse else n, links)
    op, pattern, variables = _star(mapping, index, *star)
    expected = sorted(
        tuple(b[v] for v in variables) for b in match_pattern(mapping, index, pattern)
    )
    try:
        for batch_size in (1, 2, 1024):
            outputs = []
            for numpy_on in NUMPY_MODES:
                set_numpy_enabled(numpy_on)
                rows, produced, lengths = _serial(op, batch_size)
                assert sorted(rows) == expected, (batch_size, numpy_on)
                for direction in ("out", "in"):
                    adjacency = index.adjacency("Person", "Link", direction)
                    view = adjacency._vectors.get("key_view")
                    if view is not None:
                        assert (view.slots is None) == (sparse or not links)
                assert produced >= len(rows)
                outputs.append((rows, produced, lengths))
                if parallelism > 1:
                    with open_plan(
                        op, parallelism=parallelism, batch_size=batch_size
                    ) as (ctx, stream):
                        parallel = [row for cb in stream for row in cb.to_rows()]
                    assert sorted(parallel) == expected
                    assert ctx.rows_produced == produced
            # One algorithm in both modes: the same rows in (input
            # row, root rowid) order with edge combinations in product
            # order, the same chunks and the same rows_produced.
            assert all(output == outputs[0] for output in outputs)
    finally:
        set_numpy_enabled(None)


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), sparse=st.booleans())
def test_slot_lookup_answers_like_binary_search(graph, sparse):
    """On multigraphs with parallel edges and self-loops, with and without
    isolated persons that put the views past the density rule, numpy on
    and off: a sparse view has no slot table, and a view given one (the
    rule lifted for the sparse ones) answers every key of its space,
    probed out of order and repeated, with the binary search's exact
    ``(hits, lo, counts)``."""
    n, links = graph
    assume(links)
    n = _sparse_size(n, links) if sparse else n
    space = n * n
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            _, index = _graph(n, links)
            _, forced = _graph(n, links)
            for direction in ("out", "in"):
                far = index.edge_index("Link").endpoint_vector(direction)
                view = index.adjacency("Person", "Link", direction).key_view(far, n)
                with mock.patch.object(graph_index, "MAX_SLOTS_PER_KEY", space):
                    table = forced.adjacency("Person", "Link", direction).key_view(far, n)
                assert (view.slots is None) == sparse
                if not sparse:
                    assert as_values(view.slots) == as_values(table.slots)
                assert (table.run_lengths is None) == table.distinct
                # Every key of the space, scrambled and repeated; then only
                # the present keys, backwards, so every probe hits.
                for probes in (
                    [(k * 7919) % space for k in range(space)] * 2,
                    as_values(table.keys)[::-1],
                ):
                    if numpy_on:
                        import numpy as np

                        probes = np.asarray(probes, dtype=np.int64)
                    slotted = key_runs(
                        table.keys, probes, table.distinct, table.slots, table.run_lengths
                    )
                    searched = key_runs(table.keys, probes, table.distinct)
                    assert [None if a is None else as_values(a) for a in slotted] == [
                        None if a is None else as_values(a) for a in searched
                    ], (numpy_on, direction)
                    assert [type(a) for a in slotted] == [type(a) for a in searched]
    finally:
        set_numpy_enabled(None)


def _runs_of_one(key_view):
    """``Adjacency.key_view`` whose views without parallel edges claim to
    have some: every run is one edge long, so the kernel takes its product
    path over candidates it would otherwise emit as plain slices."""

    def view(self, far, radix):
        built = key_view(self, far, radix)
        if not built.distinct:
            return built
        keys = built.keys
        ones = array("q", [1]) * len(keys) if isinstance(keys, array) else keys * 0 + 1
        return built._replace(distinct=False, run_lengths=None if built.slots is None else ones)

    return view


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), star=stars(), sparse=st.booleans())
# Without parallel edges: a kept, masked driver (a's one edge) and a kept
# probed leg with a lazy mask, under a root mask — the slice path.
@example(
    graph=(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 1), (0, 3), (2, 0)]),
    star=([("a", "out", True, "dense"), ("b", "out", True, "lazy")], False, "dense"),
    sparse=False,
)
# Parallel edges on both legs, masked on each: the product path.
@example(
    graph=PARALLEL_RUNS,
    star=([("a", "out", True, "dense"), ("b", "out", True, "lazy")], False, "lazy"),
    sparse=False,
)
def test_slice_and_product_paths_emit_the_same_chunks(graph, star, sparse):
    """When every candidate is one row (no parallel edges), the kernel
    emits its chunks as slices of the candidates and never builds product
    positions; forced through the product path instead (views that claim
    runs of one edge), it emits the same rows in the same chunks with the
    same ``rows_produced`` — at batch sizes 1, 2 and 1024, numpy on and
    off, with kept legs, edge masks on the driver and the probed legs, a
    root mask, and parallel edges, which always take the product path."""
    assume(_match_count(graph, star) <= MAX_MATCHES)
    n, links = graph
    mapping, index = _graph(_sparse_size(n, links) if sparse else n, links)
    op, pattern, variables = _star(mapping, index, *star)
    expected = sorted(
        tuple(b[v] for v in variables) for b in match_pattern(mapping, index, pattern)
    )
    distinct = len(set(links)) == len(links)
    calls = []
    product_positions = kernels.product_positions

    def counting(*args):
        calls.append(args)
        return product_positions(*args)

    outputs = []
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            for batch_size in (1, 2, 1024):
                with mock.patch.object(kernels, "product_positions", counting):
                    del calls[:]
                    natural = _serial(op, batch_size)
                    assert sorted(natural[0]) == expected
                    assert bool(calls) == (bool(natural[0]) and not distinct)
                    del calls[:]
                    with mock.patch.object(
                        graph_index.Adjacency, "key_view", _runs_of_one(graph_index.Adjacency.key_view)
                    ):
                        forced = _serial(op, batch_size)
                    assert bool(calls) == bool(natural[0])
                assert forced == natural, (numpy_on, batch_size)
                outputs.append(natural)
    finally:
        set_numpy_enabled(None)
    assert outputs[: len(outputs) // len(NUMPY_MODES)] * len(NUMPY_MODES) == outputs


@pytest.mark.parametrize("hub_first", [True, False])
def test_intersect_expands_only_the_smallest_leg(hub_first, monkeypatch):
    """Closing a star whose bound leaves are a 10 000-edge hub and a
    degree-1 vertex expands the one pair of the small leaf and probes the
    hub's adjacency, whichever leg is written first, numpy on or off."""
    hub, leaf, n = 0, 1, 10_002
    mapping, index = _graph(n, [(hub, v) for v in range(2, n)] + [(leaf, 7)], [(hub, leaf)])
    child = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Pair", "out",
    )  # fmt: skip
    legs = [StarLeg("a", "Link", "out", None, None), StarLeg("b", "Link", "out", None, None)]
    if not hub_first:
        legs.reverse()
    op = ExpandIntersect(child, index, mapping, legs, "c", "Person")
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person").edge("a", "b", "Pair").edge("a", "c", "Link")
        .edge("b", "c", "Link").build()
    )  # fmt: skip
    expected = [(b["a"], b["b"], b["c"]) for b in match_pattern(mapping, index, pattern)]
    assert expected == [(hub, leaf, 7)]

    walk = kernels.csr_positions

    def recording(vertices, offsets):
        pairs = walk(vertices, offsets)
        # The child EXPAND walks the Pair adjacency the same way.
        if offsets is not pair_offsets:
            expanded.append(0 if pairs is None else len(pairs[0]))
        return pairs

    monkeypatch.setattr(kernels, "csr_positions", recording)
    for numpy_on in NUMPY_MODES:
        expanded = []
        set_numpy_enabled(numpy_on)
        try:
            pair_offsets, _ = index.adjacency("Person", "Pair", "out").vectors()
            rows, _, _ = _serial(op, 1024)
        finally:
            set_numpy_enabled(None)
        assert rows == expected, numpy_on
        # One input row, one slice: the smaller leg's degree sum is 1.
        assert expanded == [1], numpy_on


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
def test_a_hub_leg_does_not_fragment_slices(numpy_on, monkeypatch):
    """A 1 024-row batch whose every row binds one leg to a 10 000-edge hub
    and the other to a degree-1 vertex is one slice: the small leg's 1 024
    pairs fit the bound, so the hub's degrees, which it only probes, do
    not cut the batch into a slice per row."""
    hub, rows, fan = 0, 1024, 10_000
    leaves = range(1, rows + 1)
    far = range(rows + 1, rows + 1 + fan)
    links = [(hub, c) for c in far] + [(leaf, far[leaf - 1]) for leaf in leaves]
    mapping, index = _graph(rows + 1 + fan, links, [(hub, leaf) for leaf in leaves])
    child = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Pair", "out",
    )  # fmt: skip
    legs = [StarLeg("a", "Link", "out", None, None), StarLeg("b", "Link", "out", None, None)]
    op = ExpandIntersect(child, index, mapping, legs, "c", "Person")
    # The reference matcher walks edges in the order written: the small
    # leaf's edge first, or it lists the hub's 10^7 partial matches.
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person").edge("a", "b", "Pair").edge("b", "c", "Link")
        .edge("a", "c", "Link").build()
    )  # fmt: skip
    expected = sorted((b["a"], b["b"], b["c"]) for b in match_pattern(mapping, index, pattern))
    assert len(expected) == rows

    walk = kernels.csr_positions
    expanded = []

    def recording(vertices, offsets):
        pairs = walk(vertices, offsets)
        if offsets is not pair_offsets:
            expanded.append(0 if pairs is None else len(pairs[0]))
        return pairs

    monkeypatch.setattr(kernels, "csr_positions", recording)
    set_numpy_enabled(numpy_on)
    try:
        pair_offsets, _ = index.adjacency("Person", "Pair", "out").vectors()
        result, _, lengths = _serial(op, 1024)
    finally:
        set_numpy_enabled(None)
    assert sorted(result) == expected
    assert lengths == [rows]
    assert expanded == [rows]


def _degree_sum(offsets, vertices) -> int:
    return sum(offsets[v + 1] - offsets[v] for v in as_values(vertices))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), star=stars(), pairs_per_batch=st.sampled_from([1, kernels.INTERSECT_PAIRS_PER_BATCH]))
# A hub on the second leg beside a degree-1 first leg: the hub's
# degrees alone would cut every row into a slice of its own.
@example(
    graph=(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 1), (3, 1), (1, 0), (1, 3), (1, 3), (1, 1)]),
    star=([("a", "out", False, None), ("b", "out", True, None)], False, None),
    pairs_per_batch=1,
)
def test_slices_fit_the_bound_on_the_leg_they_expand(graph, star, pairs_per_batch):
    """At batch sizes 1, 2 and 1024, under the engine's pair bound and
    under a bound of one batch (which cuts the small graphs' batches too):
    every slice's driver expands at most ``pairs_per_batch x batch_size``
    pairs unless the slice is one row, every slice but a batch's last
    would put every leg past the bound one row further, the rows are the
    reference matcher's, and numpy on and off cut the same slices and
    expand the same drivers."""
    assume(_match_count(graph, star) <= MAX_MATCHES)
    n, links = graph
    mapping, index = _graph(n, links)
    op, pattern, variables = _star(mapping, index, *star)
    expected = sorted(
        tuple(b[v] for v in variables) for b in match_pattern(mapping, index, pattern)
    )
    cut, slice_ = kernels.cut_points, kernels._intersect_slice
    cuts, slices = [], []

    def cutting(sums, limit):
        bounds = cut(sums, limit)
        cuts.append(([as_values(column) for column in sums], limit, bounds))
        return bounds

    def expanding(cb, legs, bound, first, driver, *rest):
        pairs = _degree_sum(legs[driver].offsets, bound[driver])
        slices.append((first, len(bound[driver]), driver, pairs))
        return slice_(cb, legs, bound, first, driver, *rest)

    outputs = []
    try:
        with mock.patch.object(kernels, "INTERSECT_PAIRS_PER_BATCH", pairs_per_batch), \
                mock.patch.object(kernels, "cut_points", cutting), \
                mock.patch.object(kernels, "_intersect_slice", expanding):  # fmt: skip
            for numpy_on in NUMPY_MODES:
                set_numpy_enabled(numpy_on)
                for batch_size in (1, 2, 1024):
                    del cuts[:], slices[:]
                    rows, produced, lengths = _serial(op, batch_size)
                    assert sorted(rows) == expected, (numpy_on, batch_size)
                    limit = pairs_per_batch * batch_size
                    for sums, limit_seen, bounds in cuts:
                        assert limit_seen == limit
                        n_rows = len(sums[0]) - 1
                        assert bounds[0] == 0 and bounds[-1] == n_rows
                        for first, last in zip(bounds, bounds[1:]):
                            assert last > first
                            work = [column[last] - column[first] for column in sums]
                            assert last - first == 1 or min(work) <= limit
                            if last < n_rows:
                                assert all(
                                    column[last + 1] - column[first] > limit for column in sums
                                ), (bounds, sums)
                    for _, length, _, pairs in slices:
                        assert pairs <= limit or length == 1, (pairs, limit, length)
                    outputs.append((rows, produced, lengths, [c[2] for c in cuts], list(slices)))
    finally:
        set_numpy_enabled(None)
    assert outputs[: len(outputs) // len(NUMPY_MODES)] * len(NUMPY_MODES) == outputs


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
@pytest.mark.parametrize("a_first", [True, False])
def test_intersect_ties_drive_from_the_first_leg(a_first, numpy_on, monkeypatch):
    """When the legs' degree sums tie, the first leg written drives — the
    rule in both modes, so they cut and probe the same way."""
    mapping, index = _graph(8, [(0, 7), (7, 1)], [(0, 1)])
    child = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Pair", "out",
    )  # fmt: skip
    legs = [StarLeg("a", "Link", "out", None, None), StarLeg("b", "Link", "in", None, None)]
    if not a_first:
        legs.reverse()
    op = ExpandIntersect(child, index, mapping, legs, "c", "Person")

    driven = []
    walk = kernels.csr_positions

    def recording(vertices, offsets):
        if offsets is not pair_offsets:
            driven.extend(as_values(vertices))
        return walk(vertices, offsets)

    monkeypatch.setattr(kernels, "csr_positions", recording)
    set_numpy_enabled(numpy_on)
    try:
        pair_offsets, _ = index.adjacency("Person", "Pair", "out").vectors()
        rows, _, _ = _serial(op, 1024)
    finally:
        set_numpy_enabled(None)
    assert rows == [(0, 1, 7)]
    assert driven == ([0] if a_first else [1])


# --------------------------------------------------------------------- #
# plan level: the loop the kernel replaced, as the reference
# --------------------------------------------------------------------- #


def _neighbor_map_loop(self, ctx):
    """``ExpandIntersect``'s former body: per input row, a map ``neighbor ->
    [edge rowids]`` per leg, intersected key by key, edge combinations in
    ``itertools.product`` order; each row keeps the input columns the
    operator carries."""
    carry = self.carried_columns()
    legs = []
    for leg in self.legs:
        idx = self.child.var_index(leg.from_var)
        label = self.child.output_vars[idx].label
        adjacency = self.index.adjacency(label, leg.edge_label, leg.direction)
        far = self.index.edge_index(leg.edge_label).endpoint_rowids(leg.direction)
        check = None
        if leg.edge_predicate is not None:
            check = rowid_predicate(self.mapping.edge_table(leg.edge_label), leg.edge_predicate)
        legs.append((idx, adjacency, far, check, leg.edge_var is not None))
    vcheck = None
    if self.vertex_predicate is not None:
        vcheck = rowid_predicate(self.mapping.vertex_table(self.to_label), self.vertex_predicate)
    for cb in self.child.columnar_batches(ctx):
        out = []
        for row in cb.to_rows():
            maps = []
            for idx, adjacency, far, check, _ in legs:
                neighbors: dict[int, list[int]] = {}
                for e in adjacency.edges_of(row[idx]):
                    if check is None or check(e):
                        neighbors.setdefault(far[e], []).append(e)
                maps.append(neighbors)
            for nbr in maps[0]:
                if not all(nbr in m for m in maps) or (vcheck is not None and not vcheck(nbr)):
                    continue
                for combo in product(*(m[nbr] for m in maps)):
                    kept = tuple(e for e, (*_, keep) in zip(combo, legs) if keep)
                    out.append(tuple(row[i] for i in carry) + kept + (nbr,))
        if out:
            yield ColumnarBatch.from_rows(out)


CONVERGED_SYSTEMS = ["relgo", "relgo_norule", "relgo_noei", "relgo_hash", "kuzu"]
LDBC_QUERIES = {**ic_queries(), **qr_queries(), **qc_queries()}


@pytest.fixture(scope="module")
def ldbc_catalog():
    catalog, mapping = generate_ldbc(LdbcParams(persons=120, forums=12, seed=5))
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog


@pytest.mark.parametrize("system_name", CONVERGED_SYSTEMS)
def test_plans_count_what_the_neighbor_map_loop_counted(
    ldbc_catalog, system_name, monkeypatch
):
    assert len(LDBC_QUERIES) == 25
    system = make_system(system_name, ldbc_catalog, "snb")
    plans = {
        name: system.optimize(parse_and_bind(sql, ldbc_catalog)).physical
        for name, sql in LDBC_QUERIES.items()
    }
    kernel = {name: execute_plan(plan) for name, plan in plans.items()}
    monkeypatch.setattr(ExpandIntersect, "_stream_columnar", _neighbor_map_loop)
    for name, plan in plans.items():
        want = execute_plan(plan)
        got = kernel[name]
        assert got.sorted_rows() == want.sorted_rows(), name
        assert got.rows_produced == want.rows_produced, name
        assert got.peak_buffered_rows == want.peak_buffered_rows, name
    # The other three close cycles with joins or runtime EVJoins: the
    # kernel must leave their counts alone too.
    uses_kernel = any("EXPAND_INTERSECT" in plan.explain() for plan in plans.values())
    assert uses_kernel == (system_name in ("relgo", "relgo_norule"))
