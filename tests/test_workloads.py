"""Workload integration: generators are well-formed, all queries parse and
bind, and all systems agree on results at a small scale."""

from __future__ import annotations

import pytest

from repro.core.sqlpgq import parse_and_bind
from repro.graph.index import build_graph_index
from repro.systems import make_system
from repro.workloads.job import JobParams, generate_imdb, job_queries
from repro.workloads.ldbc import (
    LdbcParams,
    generate_ldbc,
    ic_queries,
    qc_queries,
    qr_queries,
)


@pytest.fixture(scope="module")
def ldbc_tiny():
    catalog, mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog, mapping


@pytest.fixture(scope="module")
def imdb_tiny():
    catalog, mapping = generate_imdb(JobParams.scaled(0.25))
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog, mapping


def test_ldbc_generator_shape(ldbc_tiny):
    catalog, mapping = ldbc_tiny
    assert catalog.table("person").num_rows == 80
    assert catalog.table("knows").num_rows > 0
    # knows is symmetric: every (a, b) has (b, a).
    pairs = set(
        zip(catalog.table("knows").column("p1"), catalog.table("knows").column("p2"))
    )
    assert all((b, a) in pairs for a, b in pairs)
    mapping.validate()


def test_ldbc_degree_skew(ldbc_tiny):
    catalog, mapping = ldbc_tiny
    index = catalog.graph_index("snb")
    adj = index.adjacency("person", "knows", "out")
    degrees = sorted(
        (adj.offsets[v + 1] - adj.offsets[v] for v in range(len(adj.offsets) - 1)),
        reverse=True,
    )
    # Power-law-ish: the top person has several times the median degree.
    median = degrees[len(degrees) // 2]
    assert degrees[0] >= max(3 * max(median, 1), 4)


def test_imdb_generator_shape(imdb_tiny):
    catalog, mapping = imdb_tiny
    assert catalog.table("title").num_rows == 300
    assert catalog.table("cast_info").num_rows == catalog.table("cast_info_name").num_rows
    mapping.validate()
    # Fig 12's special keyword must exist.
    assert "character-name-in-title" in catalog.table("keyword").column("keyword")


def test_all_ldbc_queries_bind(ldbc_tiny):
    catalog, _ = ldbc_tiny
    suite = {**ic_queries(), **qr_queries(), **qc_queries()}
    assert len(suite) == 18 + 4 + 3
    for name, sql in suite.items():
        query = parse_and_bind(sql, catalog)
        assert query.graph_table is not None, name


def test_all_job_queries_bind(imdb_tiny):
    catalog, _ = imdb_tiny
    suite = job_queries()
    assert len(suite) == 33
    for name, sql in suite.items():
        query = parse_and_bind(sql, catalog)
        assert query.graph_table is not None, name
        assert query.aggregates, name


SYSTEMS_UNDER_TEST = ["relgo", "relgo_norule", "relgo_noei", "relgo_hash",
                      "duckdb", "graindb", "umbra", "kuzu"]


@pytest.mark.parametrize("query_name", ["IC1-2", "IC5-1", "IC7", "QC1", "QR1"])
def test_ldbc_systems_agree(ldbc_tiny, query_name):
    catalog, _ = ldbc_tiny
    suite = {**ic_queries(), **qr_queries(), **qc_queries()}
    sql = suite[query_name]
    reference = None
    for name in SYSTEMS_UNDER_TEST:
        system = make_system(name, catalog, "snb")
        query = parse_and_bind(sql, catalog)
        optimized = system.optimize(query)
        result = system.framework.execute(optimized)
        rows = result.sorted_rows()
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"{name} disagrees on {query_name}"


@pytest.mark.parametrize("query_name", ["JOB1", "JOB17", "JOB30"])
def test_job_systems_agree(imdb_tiny, query_name):
    catalog, _ = imdb_tiny
    sql = job_queries([query_name])[query_name]
    reference = None
    for name in ["relgo", "duckdb", "graindb", "umbra", "relgo_hash"]:
        system = make_system(name, catalog, "imdb")
        query = parse_and_bind(sql, catalog)
        optimized = system.optimize(query)
        result = system.framework.execute(optimized)
        rows = result.sorted_rows()
        if reference is None:
            reference = rows
        else:
            assert rows == reference, f"{name} disagrees on {query_name}"


def test_system_result_statuses(ldbc_tiny):
    catalog, _ = ldbc_tiny
    system = make_system("relgo", catalog, "snb")
    result = system.run(qc_queries()["QC1"], query_name="QC1")
    assert result.ok()
    assert result.total_time > 0


def test_qc3_oom_shape(ldbc_tiny):
    """The Fig 9 / Sec 5.3.3 OOM shape: under one memory budget, RelGo's
    wco plan fits while the naive (Kùzu) and multi-join (NoEI) plans blow
    their intermediates."""
    catalog, _ = ldbc_tiny
    budget = 20_000
    kuzu = make_system("kuzu", catalog, "snb", memory_budget_rows=budget)
    assert kuzu.run(qc_queries()["QC3"], query_name="QC3").status == "OOM"
    noei = make_system("relgo_noei", catalog, "snb", memory_budget_rows=budget)
    assert noei.run(qc_queries()["QC3"], query_name="QC3").status == "OOM"
    relgo = make_system("relgo", catalog, "snb", memory_budget_rows=budget)
    assert relgo.run(qc_queries()["QC3"], query_name="QC3").ok()


@pytest.mark.parametrize("backend", ["dict", "list"])
def test_qc3_oom_trip_points_storage_independent(backend):
    """The memory budget charges *rows*, never bytes, so switching the
    column storage backend (dictionary-encoded strings over typed buffers,
    plain lists) must leave the Fig 9 OOM trip points exactly where the
    seed pinned them: same budget, same per-system statuses."""
    from repro.relational.column import set_storage_backend

    try:
        set_storage_backend(backend)
        catalog, mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
        catalog.register_graph_index(build_graph_index(mapping))
        budget = 20_000
        statuses = {
            name: make_system(name, catalog, "snb", memory_budget_rows=budget)
            .run(qc_queries()["QC3"], query_name="QC3")
            .status
            for name in ("kuzu", "relgo_noei", "relgo")
        }
    finally:
        set_storage_backend(None)
    assert statuses == {"kuzu": "OOM", "relgo_noei": "OOM", "relgo": "ok"}
