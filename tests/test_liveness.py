"""Liveness: every graph operator carries only the variables read above it.

Lowering ends with one top-down walk
(:func:`repro.graph.optimizer.carry_live`) that narrows each operator
building its batches anew — EXPAND, EXPAND_EDGE, GET_VERTEX,
EXPAND_INTERSECT — to the input variables something above it reads.  Checked here:

* **guard** — on the 58 IC / QR / QC / JOB statements under every system,
  no such operator carries a variable that nothing above it reads (the
  reads restated from each operator's semantics, not taken from the
  walk), each dropped variable is printed once, on the operator that
  drops it, and ``relgo``'s QC1–QC3 emit the chunks they emitted before
  the walk existed, numpy on and off: the RESULT trip points of
  ``tests/test_hash_join.py`` are cut from these chunks;
* **property** — on generated multigraphs with self-loops and parallel
  edges, patterns with closing edges, intersect stars, self-loops and
  parallel pattern edges, edge variables in ``COLUMNS`` and MIN / MAX
  consumers that reduce branches: every system returns the reference
  matcher's answer (:func:`repro.graph.matching.match_pattern`) under
  homomorphism, and every system that lowers through the graph optimizer
  under isomorphism and edge-distinct semantics too, numpy on and off;
  ``kuzu`` refuses those two semantics.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.scan_graph_table import ScanGraphTableOp
from repro.core.sqlpgq import parse_and_bind
from repro.errors import UnsupportedFeatureError
from repro.exec import open_plan, set_numpy_enabled
from repro.graph.index import build_graph_index
from repro.graph.matching import match_pattern
from repro.graph.physical import (
    AllDistinct,
    BranchReduce,
    Expand,
    ExpandEdge,
    ExpandIntersect,
    Extension,
    GetVertex,
    GraphOperator,
    PatternHashJoin,
    value_var,
)
from repro.systems import make_system
from repro.systems.base import SYSTEM_CONFIGS
from repro.workloads.job import JobParams, generate_imdb
from repro.workloads.job.queries import job_queries
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import ic_queries, qc_queries, qr_queries
from tests.test_transform_and_rules import (
    LINK_PREDICATES,
    NUMPY_MODES,
    PERSON_PREDICATES,
    _branch_graph,
    branch_graphs,
)

#: Every system but ``calcite``, whose exhaustive join enumeration plans
#: no graph operator and would only slow the guard down.
SYSTEMS = [name for name in SYSTEM_CONFIGS if name != "calcite"] + ["kuzu"]

#: The systems that lower through the graph optimizer, and with it honour
#: a pattern's matching semantics.
CONVERGED = ["relgo", "relgo_norule", "relgo_noei", "relgo_hash", "relgo_loworder"]


def _reads(op: GraphOperator) -> set[str]:
    """The input variables ``op`` reads itself, from what it computes."""
    if isinstance(op, (Expand, ExpandEdge)):
        return {op.from_var}
    if isinstance(op, GetVertex):
        return {op.edge_var}
    if isinstance(op, ExpandIntersect):
        return {leg.from_var for leg in op.legs}
    if isinstance(op, BranchReduce):
        return {op.anchor}
    if isinstance(op, PatternHashJoin):
        return set(op.join_vars)
    if isinstance(op, AllDistinct):
        return {v.name for v in op.child.output_vars if v.kind == op.kind}
    return set()


def _check_carries(op, above: set[str], dropped: Counter) -> None:
    """Walk ``op``'s subtree with ``above``, the variables read above it."""
    if isinstance(op, Extension):
        names = [v.name for v in op.carried]
        assert set(names) <= above, (op.explain(), set(names) - above)
        assert op.output_vars == op.carried + op.appended
        gone = [v.name for v in op.child.output_vars if v.name not in names]
        dropped.update(gone)
        assert op._label().endswith(f" drop [{', '.join(gone)}]") == bool(gone)
    reads = _reads(op) if isinstance(op, GraphOperator) else set()
    for child in op.children():
        _check_carries(child, above | reads, dropped)


def _graph_tables(op):
    if isinstance(op, ScanGraphTableOp):
        yield op
    for child in op.children():
        yield from _graph_tables(child)


@pytest.fixture(scope="module")
def catalogs():
    ldbc, mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
    ldbc.register_graph_index(build_graph_index(mapping))
    imdb, mapping = generate_imdb(JobParams.scaled(0.3, seed=5))
    imdb.register_graph_index(build_graph_index(mapping))
    return {"snb": ldbc, "imdb": imdb}


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_graph_operators_carry_only_live_variables(catalogs, system_name):
    statements = [
        ("snb", {**ic_queries(), **qr_queries(), **qc_queries()}),
        ("imdb", job_queries()),
    ]
    assert sum(len(queries) for _, queries in statements) == 58
    scans = 0
    for graph, queries in statements:
        system = make_system(system_name, catalogs[graph], graph)
        for name, sql in queries.items():
            plan = system.optimize(sql).physical
            for scan in _graph_tables(plan):
                scans += 1
                columns = scan.clause.columns
                above = {c.var for c in columns}
                above |= {value_var(c.var, c.attr or "") for c in columns}
                dropped: Counter = Counter()
                _check_carries(scan.graph_op, above, dropped)
                assert all(n == 1 for n in dropped.values()), (name, dropped)
    assert scans == (0 if system_name in ("duckdb", "graindb", "umbra") else 58)


#: ``relgo``'s QC1–QC3 output chunks on the small LDBC catalog, as
#: ``(length, repeat)`` runs, recorded before the liveness walk: the same
#: in both numpy modes.
QC_CHUNKS = {
    "QC1": [(1024, 1), (976, 1), (256, 1)],
    "QC2": [
        (1024, 2), (696, 1), (1024, 3), (636, 1), (1024, 3), (422, 1), (1024, 1), (174, 1),
        (1024, 3), (169, 1), (1024, 3), (308, 1), (1024, 1), (757, 1), (1024, 2), (915, 1),
        (1024, 2), (768, 1), (1024, 2), (746, 1), (1024, 1), (635, 1), (1024, 2), (539, 1),
        (902, 1), (1024, 2), (298, 1), (687, 1), (1024, 2), (281, 1), (330, 1), (1024, 2),
        (219, 1), (195, 1), (1024, 1), (1001, 1), (57, 1), (1024, 1), (849, 1),
    ],
    "QC3": [
        (528, 1), (610, 1), (725, 1), (863, 1), (328, 1), (608, 1), (633, 1), (501, 1),
        (310, 1), (246, 1),
    ],
}  # fmt: skip


@pytest.mark.parametrize("numpy_on", NUMPY_MODES)
def test_relgo_qc_chunks_are_unchanged(numpy_on):
    """Carrying fewer columns moves no chunk boundary: QC1–QC3 emit the
    chunks their RESULT trip points were measured on."""
    set_numpy_enabled(numpy_on)
    try:
        catalog, mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
        catalog.register_graph_index(build_graph_index(mapping))
        system = make_system("relgo", catalog, "snb")
        for name, sql in qc_queries().items():
            plan = system.optimize(sql).physical
            assert " drop [" in plan.explain() or name == "QC1"
            with open_plan(plan) as (_, stream):
                lengths = [len(cb) for cb in stream]
            runs = [(lengths[0], 1)]
            for length in lengths[1:]:
                last, repeat = runs[-1]
                runs[-1:] = [(last, repeat + 1)] if length == last else [runs[-1], (length, 1)]
            assert runs == QC_CHUNKS[name], name
    finally:
        set_numpy_enabled(None)


# --------------------------------------------------------------------- #
# property: every system agrees with the reference matcher
# --------------------------------------------------------------------- #


@st.composite
def live_queries(draw):
    """``(sql, semantics)``: a Person / Link pattern of 2–5 vertices, a
    random spanning tree plus up to three more edges — closing edges
    (cycles, so intersect stars and cycle-closing joins), self-loops and
    parallel pattern edges — with predicates of every mask shape; the
    ``COLUMNS`` read 1–3 vertices (an INT id or a NULL-bearing name) and
    maybe one edge's kind, and the SELECT returns the rows or their MIN /
    MAX, which may reduce branches per anchor."""
    n = draw(st.integers(2, 5))
    edges = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.append((j, i) if draw(st.booleans()) else (i, j))
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    paths = [f"(v{s}:Person)-[e{i}:Link]->(v{d}:Person)" for i, (s, d) in enumerate(edges)]
    wheres = [
        PERSON_PREDICATES[p].format(v=f"v{i}")
        for i in range(n)
        if (p := draw(st.sampled_from([None, None, None, *PERSON_PREDICATES]))) is not None
    ]
    wheres += [
        LINK_PREDICATES[p].format(e=f"e{i}")
        for i in range(len(edges))
        if (p := draw(st.sampled_from([None, None, None, *LINK_PREDICATES]))) is not None
    ]
    live = draw(st.lists(vertex, min_size=1, max_size=3, unique=True))
    columns = [f"v{i}.{draw(st.sampled_from(['id', 'name']))} AS c{i}" for i in live]
    kept = draw(st.sampled_from([None, *range(len(edges))]))
    if kept is not None:
        columns.append(f"e{kept}.kind AS c{n + kept}")
    names = [c.split(" AS ")[1] for c in columns]
    consumer = draw(st.sampled_from(["ROWS", "MIN", "MAX"]))
    if consumer == "ROWS":
        select = ", ".join(f"g.{a}" for a in names)
    else:
        select = ", ".join(f"{consumer}(g.{a}) AS m{i}" for i, a in enumerate(names))
    where = f" WHERE {' AND '.join(wheres)}" if wheres else ""
    sql = (
        f"SELECT {select} FROM GRAPH_TABLE (G MATCH {', '.join(paths)}{where} "
        f"COLUMNS ({', '.join(columns)})) g"
    )
    return sql, draw(st.sampled_from(["homomorphism", "isomorphism", "edge_distinct"]))


#: Drawn cases with more matches than this are skipped: the reference
#: matcher and the row-at-a-time baselines would dominate the suite's time.
MAX_MATCHES = 5_000


def _expected(catalog, query) -> list[tuple]:
    """The query's answer from the reference matcher's bindings under the
    clause's semantics: the COLUMNS rows, or each column's MIN / MAX with
    NULLs skipped."""
    clause = query.graph_table
    mapping, index = catalog.graph("G"), catalog.graph_index("G")
    pattern = clause.pattern
    rows = []
    for binding in match_pattern(mapping, index, pattern, clause.semantics):
        row = []
        for mc in clause.columns:
            if mc.var in pattern.vertices:
                table = mapping.vertex_table(pattern.vertices[mc.var].label)
            else:
                table = mapping.edge_table(pattern.edges[mc.var].label)
            row.append(table.value(binding[mc.var], mc.attr))
        rows.append(tuple(row))
    assume(len(rows) <= MAX_MATCHES)
    if not query.aggregates:
        return sorted(rows, key=repr)
    answer = []
    for i, spec in enumerate(query.aggregates):
        values = [row[i] for row in rows if row[i] is not None]
        answer.append((min if spec.func == "MIN" else max)(values) if values else None)
    return [tuple(answer)]


#: Person 1 reaches 2 over three parallel links, 5 has a self-loop.
PINNED_GRAPH = (6, [(0, 1), (0, 2), (1, 2), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 5), (1, 2)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=branch_graphs(), query=live_queries())
# A triangle closed by an intersect star over parallel links, only the
# root read: both leaves are dropped after the star.
@example(
    graph=PINNED_GRAPH,
    query=(
        "SELECT g.c2 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
        "(v1:Person)-[e1:Link]->(v2:Person), (v0:Person)-[e2:Link]->(v2:Person) "
        "COLUMNS (v2.name AS c2)) g",
        "homomorphism",
    ),
)
# JOB16's shape: two branches reduce on the anchor v1, whose value
# columns are carried past the star step that binds v0.
@example(
    graph=PINNED_GRAPH,
    query=(
        "SELECT MIN(g.c1) AS m0, MIN(g.c3) AS m1, MIN(g.c5) AS m2 FROM GRAPH_TABLE (G MATCH "
        "(v0:Person)-[e0:Link]->(v1:Person), (v2:Person)-[e1:Link]->(v1:Person), "
        "(v2:Person)-[e2:Link]->(v3:Person), (v4:Person)-[e3:Link]->(v1:Person), "
        "(v4:Person)-[e4:Link]->(v5:Person) WHERE v0.id = 4 "
        "COLUMNS (v1.name AS c1, v3.name AS c3, v5.id AS c5)) g",
        "homomorphism",
    ),
)
# A self-loop and a read edge variable under edge-distinct semantics.
@example(
    graph=PINNED_GRAPH,
    query=(
        "SELECT g.c0, g.c4 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
        "(v1:Person)-[e1:Link]->(v1:Person), (v1:Person)-[e2:Link]->(v0:Person) "
        "COLUMNS (v0.id AS c0, e1.kind AS c4)) g",
        "edge_distinct",
    ),
)
# A two-hop path under isomorphism: homomorphic matching finds more rows.
@example(
    graph=PINNED_GRAPH,
    query=(
        "SELECT g.c0, g.c2 FROM GRAPH_TABLE (G MATCH (v0:Person)-[e0:Link]->(v1:Person), "
        "(v1:Person)-[e1:Link]->(v2:Person) COLUMNS (v0.id AS c0, v2.id AS c2)) g",
        "isomorphism",
    ),
)
def test_every_system_agrees_with_the_matcher(graph, query):
    sql, semantics = query
    catalog = _branch_graph(*graph)
    bound = parse_and_bind(sql, catalog)
    bound.graph_table.semantics = semantics
    expected = _expected(catalog, bound)
    names = SYSTEMS if semantics == "homomorphism" else CONVERGED
    if semantics != "homomorphism":
        # The declaration-order baseline has no all-distinct filter: it
        # refuses the pattern instead of returning homomorphic matches.
        with pytest.raises(UnsupportedFeatureError):
            make_system("kuzu", catalog, "G").optimize(bound)
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            for name in names:
                system = make_system(name, catalog, "G")
                optimized = system.optimize(bound)
                rows = system.framework.execute(optimized).rows
                assert sorted(rows, key=repr) == expected, (name, optimized.explain())
    finally:
        set_numpy_enabled(None)
