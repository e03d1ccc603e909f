"""Lemma 1's transformation and the heuristic rules, checked semantically.

The central invariant (the "lossless" of Lemma 1): for random patterns the
graph-agnostic translation executed relationally produces exactly the
reference matcher's results.  Likewise FilterIntoMatchRule must never change
query results, only plans, and DeadBranchRule must return, for generated
MIN / MAX / GROUP BY / DISTINCT queries, what the plan without rules and the
reference matcher return — whichever branches it turns into EXISTS checks or
per-anchor MIN / MAX reductions.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.framework import RelGoConfig, RelGoFramework
from repro.core.rules import apply_filter_into_match, apply_trim_and_fuse
from repro.core.spjm import GraphTableClause, MatchColumn, SPJMQuery
from repro.core.sqlpgq import parse_and_bind
from repro.core.transform import translate_match
from repro.exec import ExecutionContext, kernels, numpy_available, set_numpy_enabled
from repro.exec.vector import as_values
from repro.graph.cost import StarStep
from repro.graph.index import build_graph_index
from repro.graph.matching import match_pattern
from repro.graph.optimizer import GraphPlan, LoweringConfig, dead_branches, lower_plan
from repro.graph.pattern import PatternEdge, PatternGraph, PatternVertex
from repro.graph.rgmapping import RGMapping
from repro.relational import expr as expr_module
from repro.relational.catalog import Catalog
from repro.relational.expr import col, eq, gt, lit
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import DataType

from tests.conftest import build_fig2_catalog


@pytest.fixture(scope="module")
def fig2m():
    from repro.graph.index import build_graph_index

    catalog, mapping = build_fig2_catalog()
    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    return catalog, mapping, index


@st.composite
def fig2_patterns(draw):
    """Random connected patterns over the Fig 2 schema."""
    n = draw(st.integers(1, 4))
    labels = [draw(st.sampled_from(["Person", "Message"])) for _ in range(n)]
    vertices = [PatternVertex(f"v{i}", labels[i]) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        a, b = f"v{j}", f"v{i}"
        la, lb = labels[j], labels[i]
        candidates = []
        if la == "Person" and lb == "Person":
            candidates = [("Knows", a, b), ("Knows", b, a)]
        elif la == "Person" and lb == "Message":
            candidates = [("Likes", a, b)]
        elif la == "Message" and lb == "Person":
            candidates = [("Likes", b, a)]
        else:
            # Message-Message is unreachable; connect via nothing -> force
            # a Person label instead.
            return draw(fig2_patterns())
        label, src, dst = draw(st.sampled_from(candidates))
        edges.append(PatternEdge(f"e{i}", label, src, dst))
    pattern = PatternGraph(vertices, edges)
    if not pattern.is_connected():
        return draw(fig2_patterns())
    return pattern


@settings(max_examples=60, deadline=None)
@given(fig2_patterns())
def test_lemma1_translation_is_lossless(pattern):
    """Graph-agnostic SPJ execution == reference matcher (Lemma 1)."""
    catalog, mapping = build_fig2_catalog()
    from repro.graph.index import build_graph_index

    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    vm = mapping.vertex("Person")
    columns = [
        MatchColumn(name, "person_id" if v.label == "Person" else "message_id", f"id_{name}")
        for name, v in pattern.vertices.items()
    ]
    clause = GraphTableClause("G", pattern, columns)
    query = SPJMQuery(graph_table=clause)
    framework = RelGoFramework(
        catalog, "G", RelGoConfig(graph_aware=False, use_graph_index=False)
    )
    result, _ = framework.run(query)
    matches = match_pattern(mapping, index, pattern)
    expected = []
    for b in matches:
        row = []
        for mc in columns:
            v = pattern.vertices[mc.var]
            table = mapping.vertex_table(v.label)
            row.append(table.value(b[mc.var], mc.attr))
        expected.append(tuple(row))
    assert sorted(result.rows) == sorted(expected)


def triangle_query():
    pattern = (
        PatternGraph.builder()
        .vertex("p1", "Person")
        .vertex("p2", "Person")
        .vertex("m", "Message")
        .edge("p1", "p2", "Knows", name="k")
        .edge("p1", "m", "Likes", name="l1")
        .edge("p2", "m", "Likes", name="l2")
        .build()
    )
    clause = GraphTableClause(
        "G",
        pattern,
        [
            MatchColumn("p1", "name", "n1"),
            MatchColumn("p2", "name", "n2"),
            MatchColumn("k", "date", "kdate"),
        ],
    )
    return SPJMQuery(
        graph_table=clause,
        predicates=[eq(col("g.n1"), lit("Tom")), gt(col("g.kdate"), lit("2000-01-01"))],
        projections=[(col("g.n2"), "friend")],
    )


def test_filter_into_match_moves_both_kinds(fig2m):
    query = triangle_query()
    pushed, report = apply_filter_into_match(query)
    assert report.pushed_constraints == 2
    assert pushed.predicates == []
    clause = pushed.graph_table
    assert clause.pattern.vertices["p1"].predicate is not None
    assert clause.pattern.edges["k"].predicate is not None


def test_filter_into_match_preserves_results(fig2m):
    catalog, _, _ = fig2m
    query = triangle_query()
    with_rules = RelGoFramework(catalog, "G", RelGoConfig(enable_rules=True))
    without = RelGoFramework(catalog, "G", RelGoConfig(enable_rules=False))
    r1, _ = with_rules.run(query)
    r2, _ = without.run(query)
    assert r1.sorted_rows() == r2.sorted_rows()


def test_filter_into_match_skips_cross_var_predicates(fig2m):
    query = triangle_query()
    query.predicates.append(eq(col("g.n1"), col("g.n2")))
    pushed, report = apply_filter_into_match(query)
    assert report.pushed_constraints == 2
    assert len(pushed.predicates) == 1  # the cross-var one stays relational


def test_trim_and_fuse_keeps_projected_edge(fig2m):
    query = triangle_query()
    trimmed, report = apply_trim_and_fuse(query)
    # kdate is referenced by a predicate -> k survives; l1/l2 are trimmed.
    assert "k" in report.needed_edge_vars
    assert sorted(report.trimmed_edge_vars) == ["l1", "l2"]


def test_trim_and_fuse_drops_unused_columns(fig2m):
    query = triangle_query()
    query.predicates = []  # nothing references kdate or n1 anymore
    trimmed, report = apply_trim_and_fuse(query)
    clause = trimmed.graph_table
    assert [c.alias for c in clause.columns] == ["n2"]
    assert sorted(report.trimmed_columns) == ["kdate", "n1"]
    assert report.needed_edge_vars == frozenset()


def test_translate_match_rejects_bad_endpoints(fig2m):
    catalog, mapping, _ = fig2m
    bad = (
        PatternGraph.builder()
        .vertex("m", "Message")
        .vertex("p", "Person")
        .edge("m", "p", "Likes")  # Likes goes Person -> Message
        .build()
    )
    clause = GraphTableClause("G", bad, [MatchColumn("p", "name", "n")])
    from repro.errors import BindError

    with pytest.raises(BindError):
        translate_match(clause, mapping, catalog)


# --------------------------------------------------------------------- #
# DeadBranchRule
# --------------------------------------------------------------------- #

NUMPY_MODES = [False, True] if numpy_available() else [False]

#: Person names cycle through A, B, C and NULL.
NAMES = ["A", "B", "C", None]

#: Under numpy a dictionary comparison or IN is a dense mask, a LIKE over
#: the NULL-bearing columns a lazy one; "never" matches no row at all (the
#: literal misses the dictionary).
PERSON_PREDICATES = {
    "dense": "{v}.name = 'A'",
    "in": "{v}.name IN ('A', 'C')",
    "lazy": "{v}.name LIKE 'A%'",
    "never": "{v}.name = 'Z'",
}
TAG_PREDICATES = {"dense": "{v}.label = 't1'"}
LINK_PREDICATES = {
    "dense": "{e}.kind = 'x'",
    "lazy": "{e}.note LIKE 'n1%'",
    "never": "{e}.kind = 'z'",
}


def _branch_graph(n: int, links: list[tuple[int, int]]) -> Catalog:
    """Persons ``0..n-1`` linked by ``links`` (self-loops and parallel
    edges allowed; kind x / y, a NULL-bearing note) and three tags, person
    ``p`` tagged ``p % 3``: ``HasTag`` reaches one tag from a person and
    fans out from a tag."""
    catalog = Catalog()

    def table(name, columns, rows, keys=()):
        catalog.create_table(
            TableSchema(
                name,
                [Column(c, t) for c, t in columns],
                primary_key="id",
                foreign_keys=[ForeignKey(c, target, "id") for c, target in keys],
            ),
            rows=rows,
        )

    table("Person", [("id", DataType.INT), ("name", DataType.STRING)],
          [(v, NAMES[v % 4]) for v in range(n)])  # fmt: skip
    table("Tag", [("id", DataType.INT), ("label", DataType.STRING)],
          [(t, f"t{t}") for t in range(3)])  # fmt: skip
    table(
        "Link",
        [("id", DataType.INT), ("src", DataType.INT), ("dst", DataType.INT),
         ("kind", DataType.STRING), ("note", DataType.STRING)],
        [(i, s, d, "xy"[i % 2], None if i % 3 == 0 else f"n{1 + i % 4}")
         for i, (s, d) in enumerate(links)],
        [("src", "Person"), ("dst", "Person")],
    )  # fmt: skip
    table("HasTag", [("id", DataType.INT), ("pid", DataType.INT), ("tid", DataType.INT)],
          [(p, p, p % 3) for p in range(n)], [("pid", "Person"), ("tid", "Tag")])  # fmt: skip
    mapping = RGMapping("G", catalog)
    mapping.add_vertex("Person")
    mapping.add_vertex("Tag")
    mapping.add_edge("Link", source=("Person", "src"), target=("Person", "dst"))
    mapping.add_edge("HasTag", source=("Person", "pid"), target=("Tag", "tid"))
    catalog.register_graph(mapping)
    catalog.analyze()
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog


@st.composite
def branch_graphs(draw):
    """``(person count, links)``: hubs, parallel edges and self-loops."""
    n = draw(st.integers(1, 6))
    person = st.integers(0, n - 1)
    links = draw(st.lists(st.tuples(person, person), max_size=14))
    if links:
        links += draw(st.lists(st.sampled_from(links), max_size=6))
    return n, links


def _dead_branch_sql(
    labels, edges, vertex_preds, edge_preds, live, kept, consumer, ints=()
) -> str:
    """SQL/PGQ text over ``_branch_graph``: pattern vertex ``v{i}`` has
    ``labels[i]``, edge ``e{i}`` is ``edges[i] = (src, dst, label)``; the
    COLUMNS read the ``live`` vertices — a person's INT id when ``i`` is in
    ``ints``, else its NULL-bearing name or a tag's label — (and edge
    ``kept``'s kind), and the SELECT is ``consumer``: MIN / MAX of every
    column, MIN and MAX by turns (MIXED), MIN per group of the first column
    (GROUP), or the DISTINCT columns, optionally with a LIMIT
    (DISTINCT_LIMIT) — or COUNT / SUM / AVG of ``v0``'s id."""
    paths = [
        f"(v{s}:{labels[s]})-[e{i}:{label}]->(v{d}:{labels[d]})"
        for i, (s, d, label) in enumerate(edges)
    ]
    wheres = [
        (PERSON_PREDICATES if labels[i] == "Person" else TAG_PREDICATES)[p].format(v=f"v{i}")
        for i, p in enumerate(vertex_preds)
        if p is not None
    ]
    wheres += [
        LINK_PREDICATES[p].format(e=f"e{i}") for i, p in enumerate(edge_preds) if p is not None
    ]
    attrs = {"Person": "name", "Tag": "label"}
    columns = [f"v{i}.{'id' if i in ints else attrs[labels[i]]} AS c{i}" for i in live]
    names = [f"c{i}" for i in live]
    if kept is not None:
        columns.append(f"e{kept}.kind AS k{kept}")
        names.append(f"k{kept}")
    tail = ""
    if consumer in ("MIN", "MAX", "MIXED"):
        funcs = ["MIN", "MAX"] if consumer == "MIXED" else [consumer]
        select = ", ".join(
            f"{funcs[i % len(funcs)]}(g.{a}) AS m{i}" for i, a in enumerate(names)
        )
    elif consumer == "GROUP":
        rest = names[1:] or names[:1]
        select = f"g.{names[0]}, " + ", ".join(f"MIN(g.{a}) AS m{i}" for i, a in enumerate(rest))
        tail = f" GROUP BY g.{names[0]}"
    elif consumer.startswith("DISTINCT"):
        select = "DISTINCT " + ", ".join(f"g.{a}" for a in names)
        tail = " LIMIT 3" if consumer == "DISTINCT_LIMIT" else ""
    else:
        columns.append("v0.id AS vid")
        select = f"{consumer}(g.vid) AS agg"
    where = f" WHERE {' AND '.join(wheres)}" if wheres else ""
    return (
        f"SELECT {select} FROM GRAPH_TABLE (G MATCH {', '.join(paths)}{where} "
        f"COLUMNS ({', '.join(columns)})) g{tail}"
    )


@st.composite
def dead_branch_queries(draw):
    """A tree pattern of 2–6 vertices over ``_branch_graph`` (sometimes
    closed by one more edge: a cycle, a parallel pattern edge or a
    self-loop), predicates of every mask shape, 1–4 live vertices reading
    INT or NULL-bearing STRING attributes, and a duplicate-insensitive
    consumer: MIN / MAX over several leaves puts two or more reducing
    branches, nested ones too, on one anchor."""
    labels, edges = ["Person"], []
    for i in range(1, draw(st.integers(2, 6))):
        j = draw(st.integers(0, i - 1))
        if labels[j] == "Tag":
            labels.append("Person")
            edges.append((i, j, "HasTag"))
        elif draw(st.integers(0, 3)) == 0:
            labels.append("Tag")
            edges.append((j, i, "HasTag"))
        else:
            labels.append("Person")
            edges.append((j, i, "Link") if draw(st.booleans()) else (i, j, "Link"))
    persons = [i for i, label in enumerate(labels) if label == "Person"]
    if draw(st.integers(0, 3)) == 0:
        edges.append((draw(st.sampled_from(persons)), draw(st.sampled_from(persons)), "Link"))
    vertex_preds = [
        draw(st.sampled_from([None, None, *PERSON_PREDICATES]))
        if label == "Person"
        else draw(st.sampled_from([None, *TAG_PREDICATES]))
        for label in labels
    ]
    edge_preds = [
        draw(st.sampled_from([None, None, *LINK_PREDICATES])) if label == "Link" else None
        for _, _, label in edges
    ]
    if draw(st.booleans()):
        live = draw(st.lists(st.integers(0, len(labels) - 1), min_size=1, max_size=4, unique=True))
    else:
        # The pattern's leaves (and maybe v0): the shape whose branches reduce.
        degrees = [sum(i in e[:2] for e in edges) for i in range(len(labels))]
        live = [i for i, d in enumerate(degrees) if d == 1 or (i == 0 and draw(st.booleans()))]
        live = live or [0]
    ints = draw(st.sets(st.sampled_from([i for i in live if labels[i] == "Person"] or [0])))
    kept = draw(st.sampled_from([None] + [i for i, e in enumerate(edges) if e[2] == "Link"]))
    consumer = draw(st.sampled_from(["MIN", "MAX", "MIXED", "GROUP", "DISTINCT"]))
    return _dead_branch_sql(labels, edges, vertex_preds, edge_preds, live, kept, consumer, ints)


@st.composite
def reducing_queries(draw):
    """JOB16's shape over ``_branch_graph``: an anchor person (sometimes
    below a root person with a dense predicate) under 2–3 branches, each a
    chain of 1–2 persons whose last one a MIN / MAX reads (an INT id or the
    NULL-bearing name); the anchor is sometimes read too, and then it may
    be the GROUP BY key."""
    labels, edges, vertex_preds = ["Person"], [], ["dense"]
    anchor = 0
    if draw(st.booleans()):
        labels.append("Person")
        edges.append((0, 1, "Link"))
        vertex_preds.append(None)
        anchor = 1
    leaves = []
    for _ in range(draw(st.integers(2, 3))):
        parent = anchor
        for _ in range(draw(st.integers(1, 2))):
            i = len(labels)
            labels.append("Person")
            edges.append((parent, i, "Link") if draw(st.booleans()) else (i, parent, "Link"))
            vertex_preds.append(draw(st.sampled_from([None, None, *PERSON_PREDICATES])))
            parent = i
        leaves.append(parent)
    edge_preds = [draw(st.sampled_from([None, None, *LINK_PREDICATES])) for _ in edges]
    live = ([anchor] if draw(st.booleans()) else []) + leaves
    ints = draw(st.sets(st.sampled_from(leaves)))
    consumer = draw(st.sampled_from(["MIN", "MAX", "MIXED", "GROUP"]))
    return _dead_branch_sql(labels, edges, vertex_preds, edge_preds, live, None, consumer, ints)


def _reference_answer(catalog, sql: str) -> list[tuple]:
    """The query's answer from the reference matcher's bindings: the
    COLUMNS values per match, then DISTINCT, or GROUP BY and each MIN /
    MAX (NULLs skipped), in Python."""
    query = parse_and_bind(sql, catalog)
    clause = query.graph_table
    mapping = catalog.graph("G")
    index = catalog.graph_index("G")
    pattern = clause.pattern
    rows = []
    for binding in match_pattern(mapping, index, pattern):
        row = {}
        for mc in clause.columns:
            if mc.var in pattern.vertices:
                table = mapping.vertex_table(pattern.vertices[mc.var].label)
            else:
                table = mapping.edge_table(pattern.edges[mc.var].label)
            row[f"{clause.alias}.{mc.alias}"] = table.value(binding[mc.var], mc.attr)
        rows.append(row)

    def aggregate(func, values):
        values = [v for v in values if v is not None]
        return (min if func == "MIN" else max)(values) if values else None

    if not query.aggregates:
        answer = {tuple(row[e.name] for e, _ in query.projections) for row in rows}
    else:
        groups: dict = {} if query.group_by else {(): []}
        for row in rows:
            groups.setdefault(tuple(row[e.name] for e, _ in query.group_by), []).append(row)
        answer = {
            key
            + tuple(
                aggregate(spec.func, [row[spec.arg.name] for row in group])
                for spec in query.aggregates
            )
            for key, group in groups.items()
        }
    return sorted(answer, key=repr)


#: One fixed graph for the pinned cases: person 1 reaches 2 over three
#: parallel links, 5 has a self-loop, 3 is the only NULL name.
PINNED_GRAPH = (6, [(0, 1), (0, 2), (1, 2), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 5), (1, 2)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=branch_graphs(),
    sql=st.one_of(dead_branch_queries(), reducing_queries()),
    batch_size=st.sampled_from([1, 3, 1024]),
)
# JOB16's shape: two branches reduce on the anchor v1 (a NULL-bearing
# STRING MIN and an INT MAX), below the root v0.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT MIN(g.c1) AS m0, MIN(g.c3) AS m1, MAX(g.c5) AS m2 FROM GRAPH_TABLE (G MATCH "
    "(v0:Person)-[e0:Link]->(v1:Person), (v2:Person)-[e1:Link]->(v1:Person), "
    "(v2:Person)-[e2:Link]->(v3:Person), (v4:Person)-[e3:Link]->(v1:Person), "
    "(v4:Person)-[e4:Link]->(v5:Person) WHERE v0.id = 0 AND v5.name <> 'C' "
    "COLUMNS (v1.name AS c1, v3.name AS c3, v5.id AS c5)) g",
    batch_size=1,
)
# The same with a self-loop on the anchor: the REDUCE's value columns pass
# through the loop's pattern hash join; person 4 reaches the self-looped 5.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT MIN(g.c1) AS m0, MIN(g.c3) AS m1, MAX(g.c5) AS m2 FROM GRAPH_TABLE (G MATCH "
    "(v0:Person)-[e0:Link]->(v1:Person), (v2:Person)-[e1:Link]->(v1:Person), "
    "(v2:Person)-[e2:Link]->(v3:Person), (v4:Person)-[e3:Link]->(v1:Person), "
    "(v4:Person)-[e4:Link]->(v5:Person), (v1:Person)-[e5:Link]->(v1:Person) "
    "WHERE v0.id = 4 COLUMNS (v1.name AS c1, v3.name AS c3, v5.id AS c5)) g",
    batch_size=3,
)
# A dead chain of depth 2 under a live root, parallel links on the way.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT MIN(g.c0) AS m0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
    "(v1:Person)-[e1:Link]->(v2:Person) WHERE v0.name = 'A' COLUMNS (v0.name AS c0)) g",
    batch_size=1,
)
# A dead tree (two leaves below one dead vertex) with lazy predicates.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT DISTINCT g.c0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
    "(v1:Person)-[e1:Link]->(v2:Person), (v3:Person)-[e2:Link]->(v1:Person) "
    "WHERE v2.name LIKE 'A%' AND e2.note LIKE 'n1%' COLUMNS (v0.name AS c0)) g",
    batch_size=3,
)
# A branch no anchor satisfies: the answer is one row of NULLs.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT MAX(g.c0) AS m0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person) "
    "WHERE v1.name = 'Z' COLUMNS (v0.name AS c0)) g",
    batch_size=1024,
)
def test_dead_branch_rule_keeps_every_answer(graph, sql, batch_size):
    """Rules on (DeadBranchRule included), rules off and the reference
    matcher agree, numpy on and off, at batch sizes 1, 3 and 1024."""
    catalog = _branch_graph(*graph)
    expected = _reference_answer(catalog, sql)
    query = parse_and_bind(sql, catalog)
    frameworks = [
        RelGoFramework(catalog, "G", RelGoConfig(batch_size=batch_size)),
        RelGoFramework(catalog, "G", RelGoConfig(enable_rules=False, batch_size=batch_size)),
    ]
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            for framework in frameworks:
                result, optimized = framework.run(query)
                assert sorted(result.rows, key=repr) == expected, optimized.explain()
    finally:
        set_numpy_enabled(None)


def _linear_plan(pattern: PatternGraph, order: list[str]) -> GraphPlan:
    """The decomposition tree that scans ``order[0]`` and binds the other
    vertices one star step each, in ``order``."""
    plan = GraphPlan(pattern.induced_subpattern({order[0]}), "scan", 1.0, 1.0)
    bound = {order[0]}
    for v in order[1:]:
        bound.add(v)
        legs = tuple((e.other(v), e) for e in pattern.incident_edges(v) if e.other(v) in bound)
        plan = GraphPlan(
            pattern.induced_subpattern(bound), "expand", 1.0, 1.0,
            child=plan, step=StarStep(v, legs),
        )  # fmt: skip
    return plan


def _breadth_first(pattern: PatternGraph, root: str) -> list[str]:
    order = [root]
    for v in order:
        order += sorted(u for u in pattern.neighbors(v) if u not in order)
    return order


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=branch_graphs(), sql=dead_branch_queries(), batch_size=st.sampled_from([1, 3, 1024]))
# Depth 2: only persons 0 and 4 reach a 'C' in two links, and the anchors
# of one batch get different answers.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT MIN(g.c0) AS m0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
    "(v1:Person)-[e1:Link]->(v2:Person) WHERE v2.name = 'C' COLUMNS (v0.name AS c0)) g",
    batch_size=1024,
)
# Two branches on one anchor: persons 0, 1, 2 and 5 pass the second, only
# 0 and 1 both.
@example(
    graph=PINNED_GRAPH,
    sql="SELECT MIN(g.c0) AS m0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
    "(v2:Person)-[e1:Link]->(v0:Person) WHERE v1.name = 'C' AND v2.name = 'A' "
    "COLUMNS (v0.name AS c0)) g",
    batch_size=1024,
)
# An unconstrained leaf: only person 0 has a link at all.
@example(
    graph=(3, [(0, 1), (0, 2)]),
    sql="SELECT MIN(g.c0) AS m0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person) "
    "COLUMNS (v0.name AS c0)) g",
    batch_size=3,
)
def test_exists_checks_keep_the_live_tuples(graph, sql, batch_size):
    """Lowered from a live root, so every dead dangling branch that fans
    out becomes an EXISTS check: the distinct live tuples equal the
    reference matcher's, numpy on and off, in batches of equal lengths."""
    catalog = _branch_graph(*graph)
    query = parse_and_bind(sql, catalog)
    mapping, index = catalog.graph("G"), catalog.graph_index("G")
    pattern = query.graph_table.pattern
    live = frozenset(c.var for c in query.graph_table.columns if c.var in pattern.vertices)
    kept = frozenset(c.var for c in query.graph_table.columns if c.var in pattern.edges)
    for name in kept:
        live |= {pattern.edges[name].src, pattern.edges[name].dst}
    plan = _linear_plan(pattern, _breadth_first(pattern, min(live)))
    exists = dead_branches(plan, live, index)
    op = lower_plan(
        plan, mapping, index, LoweringConfig(needed_edge_vars=kept, stripped=exists), live | kept
    )
    assert ("EXISTS" in op.explain()) == bool(exists)
    variables = sorted(live | kept)
    expected = {tuple(b[v] for v in variables) for b in match_pattern(mapping, index, pattern)}
    positions = [op.var_index(v) for v in variables]
    lengths = []
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            batches = [
                cb.to_rows()
                for cb in op.columnar_batches(ExecutionContext(batch_size=batch_size))
            ]
            rows = [row for batch in batches for row in batch]
            assert {tuple(row[p] for p in positions) for row in rows} == expected
            lengths.append([len(batch) for batch in batches])
    finally:
        set_numpy_enabled(None)
    # One algorithm: the same rows survive in the same batches either way.
    assert all(x == lengths[0] for x in lengths)


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
def test_exists_decides_each_far_vertex_once(numpy_on, monkeypatch):
    """Across batches of one anchor each, an EXISTS chain ``v0 -> v1 <- v2``
    evaluates ``v2``'s lazy predicate at most once per rowid and expands
    each vertex along each step at most once — ``v1 = 2`` is reached from
    anchors 0 and 1, in different batches."""
    catalog = _branch_graph(*PINNED_GRAPH)
    sql = (
        "SELECT MIN(g.c0) AS m0 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
        "(v2:Person)-[e1:Link]->(v1:Person) WHERE v2.name LIKE 'A%' COLUMNS (v0.name AS c0)) g"
    )
    query = parse_and_bind(sql, catalog)
    mapping, index = catalog.graph("G"), catalog.graph_index("G")
    pattern = query.graph_table.pattern
    plan = _linear_plan(pattern, ["v0", "v1", "v2"])
    exists = dead_branches(plan, frozenset({"v0"}), index)
    op = lower_plan(plan, mapping, index, LoweringConfig(stripped=exists), {"v0"})
    assert op.explain().count("EXISTS") == 1

    checked, expanded = [], []
    compile_check = expr_module.rowid_predicate

    def counting_predicate(table, predicate):
        check = compile_check(table, predicate)

        def counted(rowid):
            checked.append(rowid)
            return check(rowid)

        return counted

    expand = kernels.csr_expand_vectors

    def recording(vertices, offsets, edges):
        expanded.extend((id(offsets), v) for v in as_values(vertices))
        return expand(vertices, offsets, edges)

    monkeypatch.setattr(expr_module, "rowid_predicate", counting_predicate)
    monkeypatch.setattr(kernels, "csr_expand_vectors", recording)
    set_numpy_enabled(numpy_on)
    try:
        rows = op.execute(ExecutionContext(batch_size=1))
    finally:
        set_numpy_enabled(None)
    # Names cycle A, B, C, NULL: only persons 0 and 4 are 'A...'; they
    # link to 1, 2, 0 and 5, which persons 0, 1, 4 and 5 link to.
    column = op.var_index("v0")
    assert sorted(row[column] for row in rows) == [0, 1, 4, 5]
    assert checked and len(checked) == len(set(checked))
    assert expanded and len(expanded) == len(set(expanded))


def _pinned_query(consumer: str, semantics: str = "homomorphism"):
    """A live ``v0`` with a dead, fanning chain ``v0 -> v1 -> v2``."""
    catalog = _branch_graph(*PINNED_GRAPH)
    sql = _dead_branch_sql(
        ["Person"] * 3, [(0, 1, "Link"), (1, 2, "Link")],
        ["dense", None, None], [None, None], [0], None, consumer,
    )  # fmt: skip
    query = parse_and_bind(sql, catalog)
    query.graph_table.semantics = semantics
    return catalog, query


@pytest.mark.parametrize("consumer", ["MIN", "MAX", "GROUP", "DISTINCT"])
def test_dead_branch_rule_fires_under_duplicate_insensitive_consumers(consumer):
    catalog, query = _pinned_query(consumer)
    result, optimized = RelGoFramework(catalog, "G").run(query)
    report = optimized.rule_report
    assert report.live_vertices == frozenset({"v0"})
    assert report.pruned_branches == [
        "v0 -[Link out]-> v1:Person, v1 -[Link out]-> v2:Person"
    ]
    assert "EXISTS v0 (v0 -[Link out]-> v1:Person, v1 -[Link out]-> v2:Person)" in (
        optimized.explain()
    )
    reference, _ = RelGoFramework(catalog, "G", RelGoConfig(enable_rules=False)).run(query)
    assert result.sorted_rows() == reference.sorted_rows()


#: JOB16's shape on ``PINNED_GRAPH``: root ``v0`` (``{where}``), anchor
#: ``v1`` read by ``c1``, and two branches ``v1 <- v2 -> v3`` and
#: ``v1 <- v4 -> v5`` whose leaves ``c3`` and ``c5`` read.
REDUCING_SQL = (
    "SELECT {select} FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
    "(v2:Person)-[e1:Link]->(v1:Person), (v2:Person)-[e2:Link]->(v3:Person), "
    "(v4:Person)-[e3:Link]->(v1:Person), (v4:Person)-[e4:Link]->(v5:Person) "
    "WHERE {where} COLUMNS (v1.name AS c1, v3.name AS c3, v5.id AS c5)) g{tail}"
)


def _reducing_query(consumer: str, semantics: str = "homomorphism"):
    """``REDUCING_SQL`` read by ``consumer``: MIN / MAX of each leaf
    (MIN), or a variant that must not reduce — see
    :func:`test_dead_branch_rule_never_fires_where_multiplicity_counts`."""
    catalog = _branch_graph(*PINNED_GRAPH)
    select, where, tail = "MIN(g.c1) AS m0, MIN(g.c3) AS m1, MAX(g.c5) AS m2", "v0.id = 0", ""
    if consumer in ("COUNT", "SUM", "AVG"):
        select = f"{consumer}(g.c5) AS agg"
    elif consumer == "DISTINCT_LIMIT":
        select, tail = "DISTINCT g.c3, g.c5", " LIMIT 3"
    elif consumer == "SPAN":
        select = "MIN(g.c5 + g.c5b) AS m0, MIN(g.c3) AS m1"
    elif consumer == "MIN_AND_MAX":
        select = "MIN(g.c3) AS m0, MIN(g.c5) AS m1, MAX(g.c5) AS m2"
    elif consumer == "GROUP_BRANCH":
        select, tail = "g.c3, MAX(g.c5) AS m1", " GROUP BY g.c3"
    elif consumer == "ROOT":
        where = "v5.id = 4"
    sql = REDUCING_SQL.format(select=select, where=where, tail=tail)
    if consumer == "SPAN":
        # One aggregate over the leaves of both branches.
        sql = sql.replace("v5.id AS c5)", "v5.id AS c5, v3.id AS c5b)")
    query = parse_and_bind(sql, catalog)
    query.graph_table.semantics = semantics
    return catalog, query


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
def test_dead_branch_rule_reduces_two_branches_per_anchor(numpy_on):
    """JOB16's shape: both branches on the anchor ``v1`` are read only
    inside MIN / MAX, so one REDUCE on ``v1`` replaces their star steps,
    and the answer is the one without rules."""
    catalog, query = _reducing_query("MIN")
    set_numpy_enabled(numpy_on)
    try:
        result, optimized = RelGoFramework(catalog, "G").run(query)
        reference, _ = RelGoFramework(catalog, "G", RelGoConfig(enable_rules=False)).run(query)
    finally:
        set_numpy_enabled(None)
    reduced = [
        "MIN v3.name: v1 -[Link in]-> v2:Person, v2 -[Link out]-> v3:Person",
        "MAX v5.id: v1 -[Link in]-> v4:Person, v4 -[Link out]-> v5:Person",
    ]
    assert optimized.rule_report.reduced_branches == reduced
    assert f"REDUCE v1 ({', '.join(reduced)})" in optimized.explain()
    assert result.sorted_rows() == reference.sorted_rows() == [("B", "B", 2)]


@pytest.mark.parametrize(
    "consumer,semantics",
    [
        ("COUNT", "homomorphism"),
        ("SUM", "homomorphism"),
        ("AVG", "homomorphism"),
        ("DISTINCT_LIMIT", "homomorphism"),
        ("MIN", "isomorphism"),
        ("MIN", "edge_distinct"),
        # The rule applies, but no branch reduces: one aggregate spans both
        # branches, one column is read by MIN and MAX, a branch attribute
        # is a GROUP BY key, or a branch vertex is the root scan.
        ("SPAN", "homomorphism"),
        ("MIN_AND_MAX", "homomorphism"),
        ("GROUP_BRANCH", "homomorphism"),
        ("ROOT", "homomorphism"),
    ],
)
def test_dead_branch_rule_never_fires_where_multiplicity_counts(consumer, semantics):
    counted = consumer in ("COUNT", "SUM", "AVG", "DISTINCT_LIMIT") or semantics != "homomorphism"
    cases = [_reducing_query(consumer, semantics)]
    if counted:
        cases.append(_pinned_query(consumer, semantics))
    for catalog, query in cases:
        answers = []
        for config in (RelGoConfig(), RelGoConfig(enable_rules=False)):
            result, optimized = RelGoFramework(catalog, "G", config).run(query)
            report = optimized.rule_report
            assert report.reduced_branches == []
            assert "REDUCE" not in optimized.explain()
            if counted:
                assert report.live_vertices is None
                assert report.pruned_branches == []
                assert "EXISTS" not in optimized.explain()
            answers.append(result.sorted_rows())
        assert answers[0] == answers[1]


def _pattern(*edges: tuple[str, str, str]) -> PatternGraph:
    """Person vertices (``t*`` are tags) joined by ``(src, dst, label)``."""
    builder = PatternGraph.builder()
    names = []
    for src, dst, _ in edges:
        names += [v for v in (src, dst) if v not in names]
    for v in names:
        builder = builder.vertex(v, "Tag" if v.startswith("t") else "Person")
    for i, (src, dst, label) in enumerate(edges):
        builder = builder.edge(src, dst, label, name=f"e{i}")
    return builder.build()


@pytest.mark.parametrize(
    "edges,order,live,pruned",
    [
        # A dead chain of depth 2 and a dead tree come off whole.
        ([("a", "b", "Link"), ("b", "c", "Link")], "abc", "a", {"a": ["b", "c"]}),
        (
            [("a", "b", "Link"), ("b", "c", "Link"), ("d", "b", "Link")],
            "abcd", "a", {"a": ["b", "c", "d"]},
        ),
        # A dead connector between two live vertices stays (JOB23's mc).
        ([("a", "b", "Link"), ("b", "c", "Link")], "abc", "ac", {}),
        # The root is never stripped, so its side of the pattern stays.
        ([("a", "b", "Link"), ("b", "c", "Link")], "cba", "a", {}),
        ([("a", "b", "Link"), ("b", "c", "Link"), ("a", "d", "Link")], "cbad", "a",
         {"a": ["d"]}),
        # A 1:1 leaf multiplies nothing; the same edge read from the tag fans out.
        ([("a", "t", "HasTag")], "at", "a", {}),
        ([("a", "t", "HasTag")], "ta", "t", {"t": ["a"]}),
        # A self-loop pins its vertex; two edges between one pair are a cycle.
        ([("a", "b", "Link"), ("b", "b", "Link")], "ab", "a", {}),
        ([("a", "b", "Link"), ("b", "a", "Link")], "ab", "a", {}),
    ],
)  # fmt: skip
def test_dead_branches_strip_dangling_dead_trees(edges, order, live, pruned):
    catalog = _branch_graph(*PINNED_GRAPH)
    pattern = _pattern(*edges)
    plan = _linear_plan(pattern, list(order))
    exists = dead_branches(plan, frozenset(live), catalog.graph_index("G"))
    assert {
        anchor: [v for b in branches for v in b.variables()]
        for anchor, branches in exists.items()
    } == pruned


def test_dead_branches_leave_plans_with_a_pattern_join_alone():
    catalog = _branch_graph(*PINNED_GRAPH)
    pattern = _pattern(("a", "b", "Link"), ("b", "c", "Link"), ("c", "d", "Link"))
    left = _linear_plan(pattern.induced_subpattern({"a", "b", "c"}), ["a", "b", "c"])
    right = _linear_plan(pattern.induced_subpattern({"c", "d"}), ["c", "d"])
    plan = GraphPlan(pattern, "join", 1.0, 1.0, left=left, right=right)
    assert dead_branches(plan, frozenset("a"), catalog.graph_index("G")) == {}
    # The same pattern as a chain of star steps prunes b, c and d.
    chain = _linear_plan(pattern, list("abcd"))
    assert list(dead_branches(chain, frozenset("a"), catalog.graph_index("G"))) == ["a"]
