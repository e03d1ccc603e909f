"""Graph-index invariants, property-checked on random RGMappings."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.exec import numpy_available, set_numpy_enabled
from repro.graph.index import IN, MAX_SLOTS_PER_KEY, OUT, build_graph_index
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import DataType

import pytest


@st.composite
def random_graphs(draw):
    n_vertices = draw(st.integers(1, 30))
    n_edges = draw(st.integers(0, 60))
    catalog = Catalog()
    catalog.create_table(
        TableSchema("V", [Column("id", DataType.INT)], primary_key="id"),
        rows=[(i * 7,) for i in range(n_vertices)],  # non-contiguous PKs
    )
    edge_rows = []
    for e in range(n_edges):
        s = draw(st.integers(0, n_vertices - 1)) * 7
        t = draw(st.integers(0, n_vertices - 1)) * 7
        edge_rows.append((e, s, t))
    catalog.create_table(
        TableSchema(
            "E",
            [
                Column("id", DataType.INT),
                Column("s", DataType.INT),
                Column("t", DataType.INT),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("s", "V", "id"), ForeignKey("t", "V", "id")],
        ),
        rows=edge_rows,
    )
    mapping = RGMapping("g", catalog)
    mapping.add_vertex("V")
    mapping.add_edge("E", source=("V", "s"), target=("V", "t"))
    return catalog, mapping


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_ev_index_resolves_foreign_keys(data):
    catalog, mapping = data
    index = build_graph_index(mapping)
    ev = index.edge_index("E")
    vtable = catalog.table("V")
    etable = catalog.table("E")
    for rowid in range(etable.num_rows):
        assert vtable.value(ev.src_rowids[rowid], "id") == etable.value(rowid, "s")
        assert vtable.value(ev.dst_rowids[rowid], "id") == etable.value(rowid, "t")


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_csr_partitions_all_edges(data):
    """Every edge appears exactly once in the out-CSR and once in the in-CSR."""
    catalog, mapping = data
    index = build_graph_index(mapping)
    etable = catalog.table("E")
    for direction in (OUT, IN):
        adj = index.adjacency("V", "E", direction)
        assert adj.offsets[0] == 0
        assert adj.offsets[-1] == etable.num_rows
        assert sorted(adj.edge_rowids) == list(range(etable.num_rows))
        # Offsets are monotone.
        assert all(a <= b for a, b in zip(adj.offsets, adj.offsets[1:]))


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_csr_adjacency_consistent_with_ev(data):
    catalog, mapping = data
    index = build_graph_index(mapping)
    ev = index.edge_index("E")
    out_adj = index.adjacency("V", "E", OUT)
    for v in range(catalog.table("V").num_rows):
        for e in out_adj.edges_of(v):
            assert ev.src_rowids[e] == v


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_degrees_sum_to_edge_count(data):
    catalog, mapping = data
    index = build_graph_index(mapping)
    adj = index.adjacency("V", "E", OUT)
    total = sum(adj.degree(v) for v in range(catalog.table("V").num_rows))
    assert total == catalog.table("E").num_rows


needs_numpy = pytest.mark.skipif(not numpy_available(), reason="compares numpy arrays")
NUMPY_MODES = [True, False] if numpy_available() else [False]


def _assert_slots_point_at_runs(view, vertices: int) -> None:
    """``view``'s slot table is whole when the view is dense: the slot of
    every present key is the first position of its run, every other slot
    is -1, and (with parallel edges) every position holds its run's
    length; a sparse view has no table."""
    keys = view.keys.tolist()
    space = vertices * view.radix
    if space > MAX_SLOTS_PER_KEY * len(keys):
        assert view.slots is None and view.run_lengths is None
        return
    want = [-1] * space
    for p in reversed(range(len(keys))):
        want[keys[p]] = p
    assert type(view.slots) is type(view.keys)
    assert view.slots.tolist() == want
    if view.distinct:
        assert view.run_lengths is None
    else:
        assert type(view.run_lengths) is type(view.keys)
        assert view.run_lengths.tolist() == [keys.count(key) for key in keys]


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_key_view_orders_each_slice_by_neighbor(data):
    """The key view holds each vertex's CSR slice in (far endpoint, edge
    rowid) order with those far endpoints and its sorted pair keys,
    ``distinct`` says whether the
    adjacency has parallel edges, and a dense view's slot table sends
    every present key to the first position of its run and every other
    key to -1 (a sparse view has none) — with numpy on and off, in the
    domain of the adjacency's vectors, and the two forms hold the same
    values."""
    catalog, mapping = data
    index = build_graph_index(mapping)
    ev = index.edge_index("E")
    radix = catalog.table("V").num_rows
    links = list(zip(ev.src_rowids, ev.dst_rowids))
    forms = []
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            for direction in (OUT, IN):
                adj = index.adjacency("V", "E", direction)
                far = ev.endpoint_vector(direction)
                view = adj.key_view(far, radix)
                # A view cached in the other mode is rebuilt in this one.
                assert type(view.edges) is type(view.keys) is type(adj.vectors()[1])
                for v in range(radix):
                    lo, hi = adj.offsets[v], adj.offsets[v + 1]
                    csr = list(adj.edges_of(v))
                    ordered = view.edges[lo:hi].tolist()
                    assert sorted(ordered) == sorted(csr)
                    assert ordered == sorted(csr, key=lambda e: (far[e], e))
                    assert view.far[lo:hi].tolist() == [int(far[e]) for e in ordered]
                    assert view.keys[lo:hi].tolist() == [v * radix + int(far[e]) for e in ordered]
                keys = view.keys.tolist()
                assert all(a <= b for a, b in zip(keys, keys[1:]))
                assert view.distinct == (len(set(links)) == len(links))
                assert adj.key_view(far, radix) is view
                _assert_slots_point_at_runs(view, radix)
                tables = [None if a is None else a.tolist() for a in (view.slots, view.run_lengths)]
                forms.append((view.edges.tolist(), view.far.tolist(), keys, view.distinct, tables))
    finally:
        set_numpy_enabled(None)
    assert forms[:2] == forms[-2:]


def test_sparse_key_view_has_no_slot_table():
    """A key space of more than ``MAX_SLOTS_PER_KEY`` slots per key gets no
    table, whatever the mode: 200 vertices with 3 edges would need 40 000
    slots, while 10 vertices with the same edges need 100 and get one."""
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            for n, dense in ((200, False), (10, True)):
                catalog = Catalog()
                catalog.create_table(
                    TableSchema("V", [Column("id", DataType.INT)], primary_key="id"),
                    rows=[(i,) for i in range(n)],
                )
                catalog.create_table(
                    TableSchema(
                        "E",
                        [Column("id", DataType.INT), Column("s", DataType.INT), Column("t", DataType.INT)],
                        primary_key="id",
                        foreign_keys=[ForeignKey("s", "V", "id"), ForeignKey("t", "V", "id")],
                    ),
                    rows=[(0, 0, 1), (1, 0, 1), (2, 1, 1)],
                )
                mapping = RGMapping("g", catalog)
                mapping.add_vertex("V")
                mapping.add_edge("E", source=("V", "s"), target=("V", "t"))
                index = build_graph_index(mapping)
                far = index.edge_index("E").endpoint_vector(OUT)
                view = index.adjacency("V", "E", OUT).key_view(far, n)
                assert (view.slots is not None) == dense, (n, numpy_on)
                assert (view.run_lengths is not None) == dense
                _assert_slots_point_at_runs(view, n)
    finally:
        set_numpy_enabled(None)


@needs_numpy
def test_key_view_built_by_racing_threads_is_whole():
    """Parallel workers may build one adjacency's view at once: each gets a
    complete view, its slot table and run lengths included, and the one
    left cached equals them."""
    import sys
    import threading

    import numpy as np

    catalog = Catalog()
    catalog.create_table(
        TableSchema("V", [Column("id", DataType.INT)], primary_key="id"),
        rows=[(i,) for i in range(300)],
    )
    catalog.create_table(
        TableSchema(
            "E",
            [Column("id", DataType.INT), Column("s", DataType.INT), Column("t", DataType.INT)],
            primary_key="id",
            foreign_keys=[ForeignKey("s", "V", "id"), ForeignKey("t", "V", "id")],
        ),
        rows=[(e, (e * 7) % 300, (e * 13) % 300) for e in range(20_000)],
    )
    mapping = RGMapping("g", catalog)
    mapping.add_vertex("V")
    mapping.add_edge("E", source=("V", "s"), target=("V", "t"))
    views = []
    for _ in range(3):
        index = build_graph_index(mapping)
        adj = index.adjacency("V", "E", OUT)
        far = index.edge_index("E").endpoint_vector(OUT)
        barrier = threading.Barrier(8)

        def build():
            barrier.wait(timeout=10)
            views.append(adj.key_view(far, 300))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cached = adj.key_view(far, 300)
        for view in views[-8:]:
            assert np.array_equal(view.edges, cached.edges)
            assert np.array_equal(view.keys, cached.keys)
            assert view.distinct == cached.distinct is False
            assert np.array_equal(view.slots, cached.slots)
            assert np.array_equal(view.run_lengths, cached.run_lengths)
        _assert_slots_point_at_runs(cached, 300)
        assert cached.slots is not None
    assert len(views) == 24


def test_key_view_is_rebuilt_with_the_index():
    """After appending ``knows`` edges (one of them parallel to an existing
    one) and swapping the index, QC1 returns the reference matcher's
    triangles on the new data, through views the old index never held,
    whose slot tables and run lengths are rebuilt for the new edges."""
    from repro.core.rules import apply_filter_into_match
    from repro.core.sqlpgq import parse_and_bind
    from repro.exec import execute_plan
    from repro.graph.matching import match_pattern
    from repro.systems import make_system
    from repro.workloads.ldbc import LdbcParams, generate_ldbc
    from repro.workloads.ldbc.queries import qc_queries

    catalog, mapping = generate_ldbc(LdbcParams(persons=80, forums=6, seed=3))
    sql = qc_queries()["QC1"]
    system = make_system("relgo", catalog, "snb")
    person = catalog.table("person")
    knows = catalog.table("knows")

    def qc1(index):
        catalog.register_graph_index(index)
        query = parse_and_bind(sql, catalog)
        plan = system.optimize(query).physical
        assert "EXPAND_INTERSECT" in plan.explain()
        pattern = apply_filter_into_match(query)[0].graph_table.pattern
        ids = person.column("id")
        want = sorted(
            (ids[m["a"]], ids[m["b"]], ids[m["c"]])
            for m in match_pattern(mapping, index, pattern)
        )
        assert execute_plan(plan).sorted_rows() == want
        views = [
            view
            for direction in (OUT, IN)
            if (view := index.adjacency("person", "knows", direction)._vectors.get("key_view"))
        ]
        assert views, "QC1 probed no knows key view"
        return views, len(want)

    old_views, old_count = qc1(build_graph_index(mapping))
    ids = person.column("id")
    p1, p2 = knows.column("p1"), knows.column("p2")
    a, b = p1[0], p2[0]
    others = [x for x in ids if x not in (a, b)][:3]
    # Close new triangles a -> b -> c, a -> c, and repeat a -> b.
    new_links = [(a, b)] + [(b, c) for c in others] + [(a, c) for c in others]
    first = knows.num_rows
    knows.extend(
        [(first + i, s, t, "2024-01-01") for i, (s, t) in enumerate(new_links)]
    )
    new_views, new_count = qc1(build_graph_index(mapping))
    assert not any(new is old for new in new_views for old in old_views)
    assert not any(new.slots is old.slots for new in new_views for old in old_views)
    assert new_count > old_count
    assert all(old.distinct for old in old_views)
    assert not any(new.distinct for new in new_views)
    # The new views' tables cover the appended edges and their parallel run.
    for view in old_views + new_views:
        assert view.slots is not None
        _assert_slots_point_at_runs(view, person.num_rows)


def test_dangling_edge_rejected():
    catalog = Catalog()
    catalog.create_table(
        TableSchema("V", [Column("id", DataType.INT)], primary_key="id"),
        rows=[(1,)],
    )
    catalog.create_table(
        TableSchema(
            "E",
            [
                Column("id", DataType.INT),
                Column("s", DataType.INT),
                Column("t", DataType.INT),
            ],
            primary_key="id",
        ),
        rows=[(0, 1, 99)],  # 99 dangles
    )
    mapping = RGMapping("g", catalog)
    mapping.add_vertex("V")
    mapping.add_edge("E", source=("V", "s"), target=("V", "t"))
    with pytest.raises(SchemaError):
        build_graph_index(mapping)
    with pytest.raises(SchemaError):
        mapping.validate()
