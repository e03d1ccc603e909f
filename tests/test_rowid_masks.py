"""Pushed-down predicates run through one path: rowid masks.

Every predicate an expansion operator carries — whatever its shape — turns
into a mask (:func:`repro.relational.expr.rowid_mask`): a dense boolean
ndarray where the predicate vectorizes, a lazily filled
:class:`repro.exec.vector.LazyMask` everywhere else.  This suite pins that
no shape changes an answer:

* **parity** — LIKE / NOT LIKE / IN / STARTS WITH / OR / IS NULL over a
  list-backed ('<U' view), a NULL-bearing (plain list) and a dictionary
  column, as edge and as vertex predicates, through EXPAND, EXPAND_EDGE +
  GET_VERTEX, EXPAND_INTERSECT (edge variables trimmed and kept), EDGE_SCAN
  (alone and closing a cycle) and bound columns filtered on their own: the
  operator's one columnar body == the reference matcher, which shares no
  code with it, with numpy on and off;
* **predefined joins** — predicated ROWID_JOIN and CSR_JOIN filter through
  the same masks: their columnar bodies return the row bodies' rows and
  ``rows_produced``;
* **laziness** — a lazy mask calls its predicate at most once per distinct
  rowid, however many batches look it up;
* the satellites that ride along: ``pin_plan`` pins each table once per
  plan, and ``vector_view`` of a list column survives a concurrent
  ``Table.extend``.
"""

from __future__ import annotations

import operator
import re
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionContext, numpy_available, open_plan, set_numpy_enabled
from repro.exec import context as context_mod
from repro.exec.context import pin_plan
from repro.exec.vector import LazyMask, passing, vector_view
from repro.graph.index import build_graph_index
from repro.graph.matching import match_pattern
from repro.graph.pattern import PatternGraph
from repro.graph.physical import (
    EdgeTripleScan,
    Expand,
    ExpandEdge,
    ExpandIntersect,
    GetVertex,
    PatternHashJoin,
    ScanVertex,
    StarLeg,
)
from repro.graph.rgmapping import RGMapping
from repro.relational import expr
from repro.relational.catalog import Catalog
from repro.relational.expr import (
    BoolOp,
    InList,
    IsNull,
    Like,
    Not,
    col,
    eq,
    lit,
    rowid_mask,
    rowid_predicate,
    starts_with,
)
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.serving import Database
from repro.serving.plan_cache import bind_plan, cached_optimize, param_sites

# --------------------------------------------------------------------- #
# a small graph with every column flavour
# --------------------------------------------------------------------- #

#: (id, name [dict], since [DATE -> list -> '<U' view], nick [NULLs -> list])
PEOPLE = [
    (1, "Ann", "2020-01-05", "ace"),
    (2, "Bob", "2020-02-11", None),
    (3, "Abe", "2021-01-20", "bee"),
    (4, "Cat", "2021-03-02", None),
    (5, "Ann", "2020-01-31", "axe"),
    (6, "Dan", "2022-07-07", "ace"),
    (7, "Bea", "2020-02-28", None),
    (8, "Abe", "2022-01-01", "dot"),
]

#: (src, dst): cycles, a hub (1), parallel edges (1->2, 1->3, 3->4 twice
#: each, so the triangle 1->3->4 has parallel edges on two sides).
LINKS = [
    (1, 2), (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (3, 1), (3, 4), (3, 4),
    (4, 1), (4, 2), (5, 1), (5, 2), (5, 6), (6, 5), (6, 1), (7, 8), (8, 7),
    (7, 1), (8, 1), (2, 4), (4, 3), (6, 2), (1, 5), (1, 3),
]  # fmt: skip


def _link_rows():
    kinds = ["friend", "family", "work"]
    for i, (src, dst) in enumerate(LINKS):
        yield (
            100 + i,
            src,
            dst,
            kinds[i % 3],  # dict
            f"202{i % 3}-0{1 + i % 9}-1{i % 10}",  # DATE: list-backed
            None if i % 4 == 0 else f"n{i % 5}",  # NULL-bearing
        )


@pytest.fixture(scope="module")
def graph():
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "Person",
            [
                Column("id", DataType.INT),
                Column("name", DataType.STRING),
                Column("since", DataType.DATE),
                Column("nick", DataType.STRING),
            ],
            primary_key="id",
        ),
        rows=PEOPLE,
    )
    catalog.create_table(
        TableSchema(
            "Link",
            [
                Column("id", DataType.INT),
                Column("src", DataType.INT),
                Column("dst", DataType.INT),
                Column("kind", DataType.STRING),
                Column("date", DataType.DATE),
                Column("note", DataType.STRING),
            ],
            primary_key="id",
            foreign_keys=[
                ForeignKey("src", "Person", "id"),
                ForeignKey("dst", "Person", "id"),
            ],
        ),
        rows=list(_link_rows()),
    )
    mapping = RGMapping("G", catalog)
    mapping.add_vertex("Person")
    mapping.add_edge("Link", source=("Person", "src"), target=("Person", "dst"))
    catalog.register_graph(mapping)
    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    return mapping, index


@pytest.fixture(params=["numpy", "python"])
def numpy_mode(request):
    if request.param == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    set_numpy_enabled(request.param == "numpy")
    yield request.param
    set_numpy_enabled(None)


def _shapes(dict_col: str, list_col: str, null_col: str, values: dict):
    """The six predicate shapes over the three column flavours."""
    d, u, n = values["dict"], values["list"], values["null"]
    return {
        "like-dict": Like(col(dict_col), d["like"]),
        "like-list": Like(col(list_col), u["like"]),
        "like-null": Like(col(null_col), n["like"]),
        "not-like-dict": Not(Like(col(dict_col), d["like"])),
        "not-like-list": Not(Like(col(list_col), u["like"])),
        "not-like-null": Not(Like(col(null_col), n["like"])),
        "in-dict": InList(col(dict_col), d["in"]),
        "in-list": InList(col(list_col), u["in"]),
        "in-null": InList(col(null_col), n["in"]),
        "starts-dict": starts_with(col(dict_col), d["prefix"]),
        "starts-list": starts_with(col(list_col), u["prefix"]),
        "starts-null": starts_with(col(null_col), n["prefix"]),
        "or-mixed": BoolOp(
            "OR",
            (eq(col(dict_col), lit(d["in"][0])), Like(col(null_col), n["like"])),
        ),
        "or-list": BoolOp(
            "OR",
            (starts_with(col(list_col), u["prefix"]), IsNull(col(null_col))),
        ),
        "is-null": IsNull(col(null_col)),
        "is-not-null": IsNull(col(null_col), negated=True),
        "is-null-dict": IsNull(col(dict_col)),
    }


VERTEX_PREDICATES = _shapes(
    "name",
    "since",
    "nick",
    {
        "dict": {"like": "A%", "in": ("Ann", "Bea", "Zed"), "prefix": "B"},
        "list": {"like": "2020-%", "in": ("2021-01-20", "2022-07-07"), "prefix": "2021"},
        "null": {"like": "a%", "in": ("ace", "dot"), "prefix": "b"},
    },
)

EDGE_PREDICATES = _shapes(
    "kind",
    "date",
    "note",
    {
        "dict": {"like": "f%", "in": ("work", "none"), "prefix": "fa"},
        "list": {"like": "2021-%", "in": ("2020-01-10", "2022-03-12"), "prefix": "2020"},
        "null": {"like": "n1%", "in": ("n2", "n4"), "prefix": "n3"},
    },
)


def _columnar(op, batch_size=4):
    ctx = ExecutionContext(batch_size=batch_size)
    rows = [row for cb in op.columnar_batches(ctx) for row in cb.to_rows()]
    assert all(type(v) is int for row in rows for v in row), "numpy scalar leaked"
    return sorted(rows), ctx.rows_produced


def _reference(graph, pattern, variables):
    mapping, index = graph
    return sorted(
        tuple(b[v] for v in variables) for b in match_pattern(mapping, index, pattern)
    )


def _assert_matches_reference(graph, op, pattern, variables):
    columnar, _ = _columnar(op)
    assert columnar == _reference(graph, pattern, variables)


# --------------------------------------------------------------------- #
# parity: columnar == reference matcher
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("shape", sorted(EDGE_PREDICATES))
def test_expand_edge_predicate(graph, numpy_mode, shape):
    mapping, index = graph
    pred = EDGE_PREDICATES[shape]
    op = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out", edge_predicate=pred,
    )  # fmt: skip
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .edge("a", "b", "Link", name="e", predicate=pred).build()
    )  # fmt: skip
    _assert_matches_reference(graph, op, pattern, ["a", "b"])


@pytest.mark.parametrize("direction", ["out", "in"])
@pytest.mark.parametrize("shape", sorted(VERTEX_PREDICATES))
def test_expand_vertex_predicate(graph, numpy_mode, shape, direction):
    mapping, index = graph
    pred = VERTEX_PREDICATES[shape]
    op = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", direction, vertex_predicate=pred,
    )  # fmt: skip
    src, dst = ("a", "b") if direction == "out" else ("b", "a")
    pattern = (
        PatternGraph.builder().vertex("a", "Person")
        .vertex("b", "Person", predicate=pred)
        .edge(src, dst, "Link", name="e").build()
    )  # fmt: skip
    _assert_matches_reference(graph, op, pattern, ["a", "b"])


@pytest.mark.parametrize("shape", sorted(EDGE_PREDICATES))
def test_closing_expand_edge_predicate(graph, numpy_mode, shape):
    """A predicate on the edge that closes a cycle after an expansion: the
    edge scan joined on both bound endpoints (the declaration-order
    planner's closing step)."""
    mapping, index = graph
    pred = EDGE_PREDICATES[shape]
    hop = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out",
    )  # fmt: skip
    op = PatternHashJoin(
        hop, EdgeTripleScan(mapping, "Link", "b", "a", "e2", index=index, edge_predicate=pred)
    )
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .edge("a", "b", "Link", name="e1")
        .edge("b", "a", "Link", name="e2", predicate=pred).build()
    )  # fmt: skip
    _assert_matches_reference(graph, op, pattern, [v.name for v in op.output_vars])


@pytest.mark.parametrize("shape", sorted(EDGE_PREDICATES))
def test_expand_edge_get_vertex(graph, numpy_mode, shape):
    mapping, index = graph
    epred = EDGE_PREDICATES[shape]
    vpred = VERTEX_PREDICATES[shape]
    edges = ExpandEdge(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "e", "Link", "out", edge_predicate=epred,
    )  # fmt: skip
    op = GetVertex(
        edges, index, mapping, "e", "b", "Person", "out", vertex_predicate=vpred
    )
    pattern = (
        PatternGraph.builder().vertex("a", "Person")
        .vertex("b", "Person", predicate=vpred)
        .edge("a", "b", "Link", name="e", predicate=epred).build()
    )  # fmt: skip
    _assert_matches_reference(graph, op, pattern, ["a", "e", "b"])


@pytest.mark.parametrize("shape", sorted(VERTEX_PREDICATES))
def test_expand_intersect_vertex_predicate(graph, numpy_mode, shape):
    mapping, index = graph
    vpred = VERTEX_PREDICATES[shape]
    epred = EDGE_PREDICATES[shape]
    hop = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out",
    )  # fmt: skip
    op = ExpandIntersect(
        hop, index, mapping,
        [StarLeg("a", "Link", "out", edge_predicate=epred), StarLeg("b", "Link", "in")],
        "c", "Person", vertex_predicate=vpred,
    )  # fmt: skip
    pattern = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person", predicate=vpred)
        .edge("a", "b", "Link", name="e1")
        .edge("a", "c", "Link", name="e2", predicate=epred)
        .edge("c", "b", "Link", name="e3").build()
    )  # fmt: skip
    _assert_matches_reference(graph, op, pattern, ["a", "b", "c"])


#: A vertex predicate that stays a ``LazyMask`` with numpy on: an OR across
#: two columns has no vectorized body.
LAZY_VERTEX_PREDICATE = BoolOp(
    "OR", (starts_with(col("since"), "2021"), eq(col("name"), lit("Dan")))
)

#: Root-vertex predicates of the two mask shapes: a dictionary comparison is
#: a dense ndarray under numpy, an OR across two columns a ``LazyMask``
#: everywhere; the mask-kind test below pins that for these two forms.
ROOT_PREDICATES = {
    "none": None,
    "dense": eq(col("name"), lit("Abe")),
    "lazy": LAZY_VERTEX_PREDICATE,
}

#: legs as (bound leaf, direction leaving it, kept edge variable or None,
#: edge predicate shape or None); the pattern edge runs leaf -> root for
#: "out" and root -> leaf for "in".
KEPT_EDGE_STARS = {
    "two-legs-both-kept": [("a", "out", "e2", None), ("b", "in", "e3", None)],
    "two-legs-one-kept": [("a", "out", None, None), ("b", "in", "e3", None)],
    "kept-leg-predicate": [("a", "out", "e2", "like-dict"), ("b", "in", "e3", None)],
    "three-legs": [
        ("a", "out", "e2", None), ("b", "in", None, "like-list"), ("d", "out", "e4", None),
    ],
}  # fmt: skip


def _kept_edge_star(graph, star: str, root: str):
    """(operator, pattern, variables) closing ``a -> b [-> d]`` at root c."""
    mapping, index = graph
    legs = KEPT_EDGE_STARS[star]
    vpred = ROOT_PREDICATES[root]
    child = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out",
    )  # fmt: skip
    builder = (
        PatternGraph.builder().vertex("a", "Person").vertex("b", "Person")
        .vertex("c", "Person", predicate=vpred).edge("a", "b", "Link", name="e1")
    )  # fmt: skip
    if any(leaf == "d" for leaf, *_ in legs):
        child = Expand(child, index, mapping, "b", "d", "Person", "Link", "out")
        builder = builder.vertex("d", "Person").edge("b", "d", "Link", name="e5")
    star_legs, variables = [], [v.name for v in child.output_vars]
    for i, (leaf, direction, edge_var, shape) in enumerate(legs):
        epred = EDGE_PREDICATES[shape] if shape else None
        star_legs.append(StarLeg(leaf, "Link", direction, edge_var, epred))
        src, dst = (leaf, "c") if direction == "out" else ("c", leaf)
        builder = builder.edge(src, dst, "Link", name=edge_var or f"t{i}", predicate=epred)
        if edge_var:
            variables.append(edge_var)
    op = ExpandIntersect(
        child, index, mapping, star_legs, "c", "Person", vertex_predicate=vpred
    )
    return op, builder.build(), variables + ["c"]


@pytest.mark.parametrize("root", sorted(ROOT_PREDICATES))
@pytest.mark.parametrize("star", sorted(KEPT_EDGE_STARS))
def test_expand_intersect_keeps_edge_variables(graph, numpy_mode, star, root):
    op, pattern, variables = _kept_edge_star(graph, star, root)
    assert [v.name for v in op.output_vars] == variables
    expected = _reference(graph, pattern, variables)
    assert expected, "the star must match something"
    # batch_size 2 flushes in the middle of an input batch (one row of the
    # doubly-parallel triangle alone yields four); 1024 never does.
    for batch_size in (2, 1024):
        rows, produced = _columnar(op, batch_size)
        assert rows == expected, batch_size
    # Morsel-parallel: four clones of the chain, each with its own caches.
    with open_plan(op, parallelism=4, batch_size=2) as (ctx, stream):
        parallel = sorted(row for cb in stream for row in cb.to_rows())
    assert parallel == expected
    assert ctx.rows_produced == produced


def test_kept_edge_multiplicity_is_the_product_of_parallel_edges(graph, numpy_mode):
    mapping, _ = graph
    op, _, variables = _kept_edge_star(graph, "two-legs-both-kept", "none")
    rows, _ = _columnar(op)
    ids = mapping.vertex_table("Person").column("id")
    at = {name: variables.index(name) for name in variables}
    # 1 -> 4 closed through 3: 1->3 twice x 3->4 twice; through 2: 1->2
    # twice x 2->4 once.
    for root, combos in ((3, 4), (2, 2)):
        hits = [
            (row[at["e2"]], row[at["e3"]])
            for row in rows
            if (ids[row[at["a"]]], ids[row[at["b"]]], ids[row[at["c"]]]) == (1, 4, root)
        ]
        assert len(hits) == len(set(hits)) == combos


@pytest.mark.parametrize("with_index", [True, False])
@pytest.mark.parametrize("shape", sorted(EDGE_PREDICATES))
def test_edge_scan_predicates(graph, numpy_mode, shape, with_index):
    mapping, index = graph
    epred = EDGE_PREDICATES[shape]
    vpred = VERTEX_PREDICATES[shape]
    op = EdgeTripleScan(
        mapping, "Link", "a", "b", "e", index=index if with_index else None,
        edge_predicate=epred, src_predicate=vpred, dst_predicate=Not(vpred),
    )  # fmt: skip
    pattern = (
        PatternGraph.builder().vertex("a", "Person", predicate=vpred)
        .vertex("b", "Person", predicate=Not(vpred))
        .edge("a", "b", "Link", name="e", predicate=epred).build()
    )  # fmt: skip
    _assert_matches_reference(graph, op, pattern, ["a", "b", "e"])


@pytest.mark.parametrize("shape", sorted(EDGE_PREDICATES))
def test_standalone_filters(graph, numpy_mode, shape):
    """Already-bound variable columns filtered on their own: an edge scan's
    ``e`` and ``b`` columns go through ``rowid_mask`` + ``passing`` after
    the scan, where rowids repeat and arrive unordered (unlike scan
    positions), and keep exactly the reference matcher's rows."""
    mapping, index = graph
    epred = EDGE_PREDICATES[shape]
    vpred = VERTEX_PREDICATES[shape]
    scan = EdgeTripleScan(mapping, "Link", "a", "b", "e", index=index)
    masks = [
        (scan.var_index(var), rowid_mask(table, pred, table.num_rows))
        for var, table, pred in (
            ("e", mapping.edge_table("Link"), epred),
            ("b", mapping.vertex_table("Person"), vpred),
        )
    ]
    rows = []
    for cb in scan.columnar_batches(ExecutionContext(batch_size=4)):
        for idx, mask in masks:
            kept = passing(mask, cb.column_vector(idx))
            if kept is not None:
                cb = cb.take(kept)
        rows.extend(cb.to_rows())
    pattern = (
        PatternGraph.builder().vertex("a", "Person")
        .vertex("b", "Person", predicate=vpred)
        .edge("a", "b", "Link", name="e", predicate=epred).build()
    )  # fmt: skip
    assert sorted(rows) == _reference(graph, pattern, ["a", "b", "e"])


# --------------------------------------------------------------------- #
# predefined joins: the relational operators filter through masks too
# --------------------------------------------------------------------- #


def _both_protocols(op):
    """(rows, rows_produced) of ``op``'s columnar body and of its row body."""
    out = []
    for columnar in (True, False):
        ctx = ExecutionContext(batch_size=4)
        if columnar:
            rows = [row for cb in op.columnar_batches(ctx) for row in cb.to_rows()]
        else:
            rows = [row for batch in op.batches(ctx) for row in batch]
        out.append((Counter(rows), ctx.rows_produced))
    return out


@pytest.mark.parametrize("shape", sorted(EDGE_PREDICATES))
def test_predefined_joins_filter_through_masks(graph, numpy_mode, shape):
    """A predicated CSR_JOIN over Link, then a predicated ROWID_JOIN to the
    far Person: the columnar bodies return the row bodies' rows and
    ``rows_produced``, and as many rows as the reference matcher."""
    from repro.relational.physical import CsrJoin, RowIdJoin, SeqScan

    mapping, index = graph
    person, link = mapping.vertex_table("Person"), mapping.edge_table("Link")
    epred, vpred = EDGE_PREDICATES[shape], VERTEX_PREDICATES[shape]
    adjacency = index.adjacency("Person", "Link", "out")
    csr = CsrJoin(
        SeqScan(person, "a", emit_rowid=True), "a._rowid",
        adjacency.offsets, adjacency.edge_rowids, link, "e", predicate=epred,
        far_pointer=("e._ptr_dst", index.edge_index("Link").dst_rowids),
    )  # fmt: skip
    op = RowIdJoin(csr, "e._ptr_dst", person, "b", predicate=vpred, emit_rowid=True)
    columnar, row = _both_protocols(op)
    assert columnar == row
    pattern = (
        PatternGraph.builder().vertex("a", "Person")
        .vertex("b", "Person", predicate=vpred)
        .edge("a", "b", "Link", name="e", predicate=epred).build()
    )  # fmt: skip
    assert sum(columnar[0].values()) == len(_reference(graph, pattern, ["a", "b"]))


@pytest.mark.parametrize("system_name", ["graindb", "umbra"])
def test_predicated_csr_join_runs_columnar(fig2, system_name):
    from repro.core.sqlpgq import parse_and_bind
    from repro.exec.context import execute_plan
    from repro.relational.physical import CsrJoin
    from repro.systems import make_system

    catalog, _, _ = fig2
    query = parse_and_bind(
        "SELECT p.name, q.name FROM Person p, Knows k, Person q"
        " WHERE p.person_id = k.pid1 AND k.pid2 = q.person_id"
        " AND k.date >= '2023-02-01'",
        catalog,
    )
    plan = make_system(system_name, catalog, "G").optimize(query).physical
    stack, predicated = [plan], False
    while stack:
        op = stack.pop()
        stack.extend(op.children())
        predicated |= isinstance(op, CsrJoin) and op.predicate is not None
    assert predicated, "the plan must hold a predicated CSR_JOIN"
    columnar = execute_plan(plan, columnar=True)
    row = execute_plan(plan, columnar=False)
    assert columnar.sorted_rows() == row.sorted_rows() == [("Bob", "David"), ("David", "Bob")]
    assert columnar.rows_produced == row.rows_produced


# --------------------------------------------------------------------- #
# the mask types
# --------------------------------------------------------------------- #


def test_mask_kind_follows_the_predicate_shape(graph, numpy_mode):
    mapping, _ = graph
    person = mapping.vertex_table("Person")
    dense = {
        "dictionary": eq(col("name"), lit("Ann")),
        "prefix-list": starts_with(col("since"), "2020"),
    }
    masks = {kind: rowid_mask(person, pred) for kind, pred in dense.items()}
    # Without numpy every predicate is lazy; with it, a dictionary
    # comparison and a prefix test over the '<U' view of the list-backed
    # DATE column evaluate once over the base table.
    for mask in masks.values():
        assert isinstance(mask, LazyMask) == (numpy_mode == "python")
    lazy = rowid_mask(person, LAZY_VERTEX_PREDICATE)
    assert isinstance(lazy, LazyMask)
    rowids = list(range(person.num_rows))
    for mask, pred in [(masks[kind], dense[kind]) for kind in dense] + [
        (lazy, LAZY_VERTEX_PREDICATE)
    ]:
        check = rowid_predicate(person, pred)
        assert [bool(v) for v in mask[rowids]] == [check(r) for r in rowids]
        kept = passing(mask, rowids)
        assert [int(j) for j in kept] == [j for j in rowids if check(j)]
    assert passing(rowid_mask(person, IsNull(col("name"), negated=True)), rowids) is None


def test_mask_covers_the_pinned_extent_only(graph, numpy_mode):
    mapping, _ = graph
    person = mapping.vertex_table("Person")
    mask = rowid_mask(person, starts_with(col("since"), "2020"), num_rows=3)
    assert [bool(v) for v in mask[[0, 1, 2]]] == [True, True, False]
    with pytest.raises(IndexError):
        mask[[3]]


def test_lazy_mask_checks_each_distinct_rowid_once(graph, numpy_mode, monkeypatch):
    mapping, index = graph
    calls: Counter = Counter()
    original = expr.rowid_predicate

    def counting(table, predicate):
        check = original(table, predicate)

        def counted(rowid):
            calls[(table.schema.name, rowid)] += 1
            return check(rowid)

        return counted

    monkeypatch.setattr(expr, "rowid_predicate", counting)
    # Person 0 (id 1) is the target of eight edges spread over many
    # two-row batches; every lookup after the first must hit the memo.
    op = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out",
        edge_predicate=Like(col("note"), "n%"),
        vertex_predicate=LAZY_VERTEX_PREDICATE,
    )  # fmt: skip
    ctx = ExecutionContext(batch_size=2)
    produced = sum(len(cb) for cb in op.columnar_batches(ctx))
    assert produced
    assert calls and max(calls.values()) == 1
    edges_checked = {r for (t, r) in calls if t == "Link"}
    assert edges_checked == set(range(len(LINKS)))
    # The vertex predicate only sees targets of edges that passed.
    targets_checked = {r for (t, r) in calls if t == "Person"}
    assert 0 in targets_checked and len(targets_checked) <= len(PEOPLE)


# --------------------------------------------------------------------- #
# string predicates: one array op over '<U' views and dictionaries
# --------------------------------------------------------------------- #

#: Characters drawn values and literals are made of: letters on both sides
#: of 'K' and 'm', a space (trailing spaces) and non-ASCII.  LIKE's own
#: wildcards and NUL, which no '<U' array can hold, are mixed in on purpose
#: (:func:`_sprinkled`), so that most draws still have an array form.
STRINGS = st.text(st.sampled_from("aKmz é中"), max_size=4)

#: The demotion floor while the property runs, so that small columns land
#: on either side of ``DEMOTE_DISTINCT_RATIO``.
DEMOTE_FLOOR = 8


def _sprinkled(draw, s: str) -> str:
    """``s``, one time in four with a ``%``, ``_`` or NUL appended."""
    return s + draw(st.sampled_from(["", "", "", "%", "_", "\x00"])) if s else s


@st.composite
def string_columns(draw, flavour: str):
    """The values of one column of ``flavour``: ``dict`` repeats a few
    values (with the sprinkled one, a distinct ratio of at most 0.5, so it
    stays a dictionary), ``view`` never repeats one (ratio 1, so it is
    demoted to a list with a '<U' view), ``nulls`` holds NULLs (a plain
    list)."""
    n = draw(st.integers(DEMOTE_FLOOR, 2 * DEMOTE_FLOOR))
    if flavour == "dict":
        pool = draw(st.lists(STRINGS, min_size=1, max_size=DEMOTE_FLOOR // 2 - 1, unique=True))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif flavour == "view":
        values = draw(st.lists(STRINGS, min_size=n, max_size=n, unique=True))
    else:
        values = draw(st.lists(st.one_of(st.none(), STRINGS), min_size=n, max_size=n))
        values[draw(st.integers(0, n - 1))] = None
    i = draw(st.integers(0, n - 1))
    if values[i] is not None:
        values[i] = _sprinkled(draw, values[i])
    return values


#: Predicate shapes :func:`string_predicates` draws.
SHAPES = [
    "prefix", "suffix", "infix", "exact", "%", "''", "_",
    "starts", "in", "=", "<>", "<", ">", "between",
]  # fmt: skip


@st.composite
def string_predicates(draw, values, shape: str):
    """A predicate of ``shape`` on column ``s``; literals come from the
    column's own values half the time, so predicates match."""
    present = [v for v in values if v is not None]
    text = st.one_of(STRINGS, st.sampled_from(present)) if present else STRINGS
    s = _sprinkled(draw, draw(text))
    c = col("s")
    if shape == "_":
        cut = draw(st.integers(0, len(s)))
        return Like(c, s[:cut] + "_" + s[cut:] + draw(st.sampled_from(["", "%"])))
    if shape == "in":
        literal = st.one_of(text, st.integers(-1, 1), st.floats(-1, 1), st.booleans(), st.none())
        literals = draw(st.lists(literal, max_size=4))
        return InList(c, tuple(literals + literals[: draw(st.integers(0, len(literals)))]))
    if shape == "between":
        return expr.and_(expr.ge(c, s), expr.le(c, draw(text)))
    if shape in ("=", "<>") and draw(st.booleans()):
        return expr.Comparison(shape, c, lit(draw(st.integers(-1, 1))))
    if shape in ("=", "<>", "<", ">"):
        return expr.Comparison(shape, c, lit(s))
    if shape == "starts":
        return starts_with(c, s)
    pattern = {"prefix": s + "%", "suffix": "%" + s, "infix": "%" + s + "%",
               "exact": s, "%": "%", "''": ""}[shape]  # fmt: skip
    return Like(c, pattern)


SQL_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}  # fmt: skip


def _reference_truth(pred, value) -> bool:
    """The WHERE-truth of ``pred`` on one value, from SQL's rules alone
    (nothing shared with :mod:`repro.relational.expr`): every drawn shape is
    NULL, so filtered out, on a NULL value."""
    if value is None:
        return False
    if isinstance(pred, Like):
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pred.pattern
        )
        return re.fullmatch(regex, value, re.DOTALL) is not None
    if isinstance(pred, InList):
        return any(type(v) is str and v == value for v in pred.values)
    if isinstance(pred, BoolOp):  # BETWEEN
        return all(_reference_truth(part, value) for part in pred.args)
    return SQL_COMPARISONS[pred.op](value, pred.right.value)


def _vectorizes(flavour: str, values: list, pred) -> bool:
    """Whether ``rowid_mask`` must be dense under numpy: always on a
    dictionary; on a '<U' view unless a NUL or a LIKE the array tests
    cannot express (``_``, an inner ``%``) is involved."""
    if flavour == "dict":
        return True
    if flavour == "nulls" or any("\x00" in v for v in values):
        return False
    for part in pred.args if isinstance(pred, BoolOp) else (pred,):
        if isinstance(part, InList):
            literals = part.values
        elif isinstance(part, Like):
            if "_" in part.pattern or "%" in part.pattern.strip("%"):
                return False
            literals = (part.pattern,)
        else:
            literals = (part.right.value,)
        if any(type(v) is str and "\x00" in v for v in literals):
            return False
    return True


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("flavour", ["dict", "view", "nulls"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), use_numpy=st.booleans())
def test_string_predicates_agree_on_every_column_flavour(flavour, shape, data, use_numpy):
    """``rowid_mask``, ``rowid_predicate``, the scan's selection refiner and
    the reference agree on every string predicate shape over a dictionary,
    a '<U' view and a NULL-bearing list, numpy on and off; under numpy the
    mask is dense wherever the shape has an array form."""
    from repro.graph.matching import rowid_selection
    from repro.relational import column as column_mod
    from repro.relational.column import set_storage_backend

    values = data.draw(string_columns(flavour))
    pred = data.draw(string_predicates(values, shape))
    numpy_on = use_numpy and numpy_available()
    rowids = list(range(len(values)))
    expected = [_reference_truth(pred, v) for v in values]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(column_mod, "DEMOTE_MIN_ROWS", DEMOTE_FLOOR)
        set_storage_backend("dict")
        set_numpy_enabled(numpy_on)
        try:
            table = Table(
                TableSchema("S", [Column("s", DataType.STRING)]), rows=[(v,) for v in values]
            )
            assert getattr(table.columns["s"], "is_dictionary", False) == (flavour == "dict")
            mask = rowid_mask(table, pred)
            masked = [bool(v) for v in mask[rowids]]
            check = rowid_predicate(table, pred)
            selected = rowid_selection(table, pred)(range(len(values)))
        finally:
            set_numpy_enabled(None)
            set_storage_backend(None)
    assert masked == expected
    assert [check(r) for r in rowids] == expected
    assert [int(r) for r in selected] == [r for r in rowids if expected[r]]
    dense = numpy_on and _vectorizes(flavour, values, pred)
    assert isinstance(mask, LazyMask) != dense


def test_dictionary_masks_cover_values_appended_after_compiling(numpy_mode):
    """A dictionary grows between two evaluations of one compiled predicate:
    the second mask covers the new rows and the new values, and the
    dictionary's '<U' memo is rebuilt for the longer dictionary."""
    from repro.relational.column import set_storage_backend

    set_storage_backend("dict")
    try:
        table = Table(
            TableSchema("S", [Column("s", DataType.STRING)]),
            rows=[("Kay",), ("mo",), ("Kay",), ("zed",)],
        )
        storage = table.columns["s"]
        assert storage.is_dictionary
        preds = [
            Like(col("s"), "K%"),
            expr.gt(col("s"), "m"),
            Like(col("s"), "%e%"),
            InList(col("s"), ("Kim", "mo")),
        ]
        before = [rowid_mask(table, pred) for pred in preds]
        table.append(("Kim",))
        table.append(("ned",))
        table.append(("Kay",))
        after = [rowid_mask(table, pred) for pred in preds]
    finally:
        set_storage_backend(None)
    values = ["Kay", "mo", "Kay", "zed", "Kim", "ned", "Kay"]
    for pred, first, second in zip(preds, before, after):
        expected = [_reference_truth(pred, v) for v in values]
        assert [bool(v) for v in first[list(range(4))]] == expected[:4], pred
        assert [bool(v) for v in second[list(range(7))]] == expected, pred
    if numpy_mode == "numpy":
        watermark, strings = storage.strings[0]
        assert watermark == len(storage.values) == 5
        assert strings.tolist() == storage.values


# --------------------------------------------------------------------- #
# pin_plan: each table once per plan
# --------------------------------------------------------------------- #


def test_pin_plan_pins_each_table_once(graph, monkeypatch):
    mapping, index = graph
    hop = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Link", "out",
    )  # fmt: skip
    plan = ExpandIntersect(
        Expand(hop, index, mapping, "b", "d", "Person", "Link", "out"),
        index, mapping,
        [StarLeg("a", "Link", "out"), StarLeg("b", "Link", "in")],
        "c", "Person",
    )  # fmt: skip
    ctx = ExecutionContext()
    pins: Counter = Counter()
    original = ExecutionContext.pin

    def counting(self, table):
        pins[table.schema.name] += 1
        return original(self, table)

    monkeypatch.setattr(ExecutionContext, "pin", counting)
    pin_plan(plan, ctx)
    assert pins == {"Person": 1, "Link": 1}
    # ... and the clamps to the index's build-time extents still land.
    person, link = mapping.vertex_table("Person"), mapping.edge_table("Link")
    assert ctx.pin(person).num_rows == index.vertex_rows["Person"]
    assert ctx.pin(link).num_rows == index.edge_rows["Link"]


def test_pin_plan_clamps_to_an_older_index(graph):
    mapping, _ = graph
    catalog = Catalog()
    for name in ("Person", "Link"):
        source = mapping.catalog.table(name)
        catalog.create_table(source.schema, rows=list(source.iter_rows()))
    own = RGMapping("G2", catalog)
    own.add_vertex("Person")
    own.add_edge("Link", source=("Person", "src"), target=("Person", "dst"))
    index = build_graph_index(own)
    catalog.table("Person").append((9, "Eve", "2023-01-01", None))
    catalog.table("Link").append((999, 9, 1, "work", "2023-01-02", None))
    plan = Expand(
        ScanVertex(own, "a", "Person"), index, own, "a", "b", "Person", "Link", "out"
    )
    ctx = ExecutionContext()
    pin_plan(plan, ctx)
    assert ctx.pin(catalog.table("Person")).num_rows == len(PEOPLE)
    assert ctx.pin(catalog.table("Link")).num_rows == len(LINKS)


def _older_index_graph(graph):
    """A copy of ``graph``'s tables as graph ``G2``, indexed, then grown by
    one person and one link the index does not cover."""
    mapping, _ = graph
    catalog = Catalog()
    for name in ("Person", "Link"):
        source = mapping.catalog.table(name)
        catalog.create_table(source.schema, rows=list(source.iter_rows()))
    own = RGMapping("G2", catalog)
    own.add_vertex("Person")
    own.add_edge("Link", source=("Person", "src"), target=("Person", "dst"))
    catalog.register_graph(own)
    index = build_graph_index(own)
    catalog.register_graph_index(index)
    catalog.table("Person").append((9, "Eve", "2023-01-01", None))
    catalog.table("Link").append((999, 1, 9, "work", "2023-01-02", None))
    return catalog, own, index


def test_pin_plan_walks_a_plan_once(graph, monkeypatch):
    catalog, own, index = _older_index_graph(graph)
    person, link = catalog.table("Person"), catalog.table("Link")
    plan = Expand(
        ScanVertex(own, "a", "Person"), index, own, "a", "b", "Person", "Link", "out",
        vertex_predicate=expr.Comparison("=", col("name"), expr.ParamLiteral("Ann", slot=0)),
    )  # fmt: skip
    walks = []
    walk = context_mod._pin_targets
    monkeypatch.setattr(
        context_mod, "_pin_targets", lambda p: walks.append(p) or walk(p)
    )
    pins: Counter = Counter()
    original = ExecutionContext.pin

    def counting(self, table):
        pins[id(self), table.schema.name] += 1
        return original(self, table)

    monkeypatch.setattr(ExecutionContext, "pin", counting)
    first, second = ExecutionContext(), ExecutionContext()
    pin_plan(plan, first)
    pin_plan(plan, first)
    # The plan cache's rebound clone carries the template root's memo.
    _, sites = param_sites(plan)
    clone = bind_plan(plan, sites, ("Bob",))
    assert clone is not plan and clone.vertex_predicate != plan.vertex_predicate
    pin_plan(clone, second)
    assert walks == [plan]
    assert pins == {
        (id(first), "Person"): 1, (id(first), "Link"): 1,
        (id(second), "Person"): 1, (id(second), "Link"): 1,
    }  # fmt: skip
    for ctx in (first, second):
        assert ctx.pin(person).num_rows == len(PEOPLE) < person.num_rows
        assert ctx.pin(link).num_rows == len(LINKS) < link.num_rows


def test_pin_plan_memo_follows_an_index_swap(graph):
    catalog, own, _ = _older_index_graph(graph)
    person, link = catalog.table("Person"), catalog.table("Link")
    sql = (
        "SELECT COUNT(*) AS n FROM GRAPH_TABLE (G2 MATCH (a:Person)-[l:Link]->(b:Person) "
        "WHERE a.name = 'Ann' COLUMNS (b.id AS id)) g"
    )
    with Database(catalog) as db, db.connect() as session:
        db.warmup()

        def compiled():
            optimized, _ = cached_optimize(
                db.plan_cache, sql, catalog, lambda q: db.framework().optimize(q)
            )
            return optimized.physical

        def extents(plan):
            ctx = ExecutionContext()
            pin_plan(plan, ctx)
            return ctx.pin(person).num_rows, ctx.pin(link).num_rows

        before = session.execute(sql).rows
        old = compiled()
        assert extents(old) == (len(PEOPLE), len(LINKS))
        catalog.register_graph_index(build_graph_index(own))
        new = compiled()
        assert new is not old
        assert extents(new) == (len(PEOPLE) + 1, len(LINKS) + 1)
        # The old plan keeps the extents of the index it walks.
        assert extents(old) == (len(PEOPLE), len(LINKS))
        assert session.execute(sql).rows == [(before[0][0] + 1,)]


def test_pin_plan_pins_only_named_tables_and_bounds_the_rest(fig2):
    catalog, mapping, index = fig2
    likes = catalog.table("Likes")
    grown = Table(likes.schema, rows=[*likes.iter_rows(), (5, 3, 11, "2024-04-01")])
    plan = Expand(
        ScanVertex(mapping, "a", "Person"), index, mapping,
        "a", "b", "Person", "Knows", "out",
    )  # fmt: skip
    ctx = ExecutionContext()
    pin_plan(plan, ctx)
    person, knows = catalog.table("Person"), catalog.table("Knows")
    assert set(ctx.snapshots) == {id(person), id(knows)}  # not Message, Likes
    # A table only a run-time path reaches is pinned on first use: at the
    # query's epoch, and still cut to the extent the index was built over.
    ctx.clamp({id(grown): index.edge_rows["Likes"]})
    snap = ctx.pin(grown)
    assert (snap.num_rows, snap.epoch) == (4, ctx.epoch) and grown.num_rows == 5
    assert ctx.pin(catalog.table("Message")).epoch == ctx.epoch
    # Extents registered after a pin shrink the snapshot already taken.
    late = ExecutionContext()
    assert late.pin(grown).num_rows == 5
    late.clamp({id(grown): 4})
    assert late.pin(grown).num_rows == 4


# --------------------------------------------------------------------- #
# vector_view beside a writer
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_vector_view_of_a_list_column_survives_concurrent_extend():
    """A reader building the '<U' view of a list-backed DATE column while a
    writer extends the table used to die inside ``np.asarray`` with
    "Inconsistent object during array creation"."""
    table = Table(
        TableSchema("post", [Column("id", DataType.INT), Column("day", DataType.DATE)])
    )
    table.extend([(i, "2024-01-01") for i in range(500)], validate=False)
    iterations = 2500
    errors: list[BaseException] = []
    stop = threading.Event()

    def write() -> None:
        # Paced, so the table (and with it the reader's per-view cost)
        # stays small however long the reader takes.
        i = 0
        while not stop.wait(0.0002):
            table.extend([(i, "2024-02-02"), (i + 1, "2024-03-03")], validate=False)
            i += 2

    def read() -> None:
        try:
            for _ in range(iterations):
                pinned = table.snapshot_at().num_rows
                view = vector_view(table.column("day"))
                assert view.dtype.kind == "U" and len(view) >= pinned
                assert len(table.vector("day", min_rows=pinned)) >= pinned
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    set_numpy_enabled(True)
    writer = threading.Thread(target=write)
    reader = threading.Thread(target=read)
    try:
        writer.start()
        reader.start()
        reader.join(timeout=120)
        finished = not reader.is_alive()
    finally:
        stop.set()
        writer.join(timeout=30)
        sys.setswitchinterval(interval)
        set_numpy_enabled(None)
    assert finished and not writer.is_alive()
    assert errors == []
    assert table.num_rows > 500, "the writer never ran beside the reader"
