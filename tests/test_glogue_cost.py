"""GLogue statistics and the cost model's cardinality estimates; GLogue's
walk counts against the reference matcher."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.glogue as glogue_module
from repro.core.framework import RelGoFramework
from repro.core.sqlpgq import parse_and_bind
from repro.exec import numpy_available, set_numpy_enabled
from repro.exec.kernels import WALK_ROWS, walk_count
from repro.graph import matching
from repro.graph.cost import CardinalityEstimator
from repro.graph.glogue import GLogue
from repro.graph.index import build_graph_index
from repro.graph.matching import count_matches, edge_order, match_pattern
from repro.graph.pattern import PatternGraph
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.relational.expr import col, eq, lit
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import DataType
from repro.workloads.job import JobParams, generate_imdb
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.registry import suite


@pytest.fixture(scope="module")
def snb():
    catalog, mapping = generate_ldbc(LdbcParams(persons=120, seed=5))
    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    return catalog, mapping, index


def knows_path(k):
    b = PatternGraph.builder()
    for i in range(k + 1):
        b.vertex(f"p{i}", "person")
    for i in range(k):
        b.edge(f"p{i}", f"p{i + 1}", "knows")
    return b.build()


def triangle():
    return (
        PatternGraph.builder()
        .vertex("a", "person")
        .vertex("b", "person")
        .vertex("c", "person")
        .edge("a", "b", "knows")
        .edge("b", "c", "knows")
        .edge("a", "c", "knows")
        .build()
    )


def test_single_counts_exact(snb):
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index)
    assert glogue.vertex_count("person") == 120
    assert glogue.edge_count("knows") == catalog.table("knows").num_rows


def test_two_path_count_exact(snb):
    """2-edge patterns are computed exactly from CSR degrees."""
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index)
    wedge = knows_path(2)
    assert glogue.pattern_count(wedge) == count_matches(mapping, index, wedge)


def test_triangle_estimate_full_sample_exact(snb):
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index, sample_ratio=1.0)
    assert glogue.pattern_count(triangle()) == count_matches(
        mapping, index, triangle()
    )


def test_triangle_sampled_estimate_reasonable(snb):
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index, sample_ratio=0.4, min_sample=32)
    actual = count_matches(mapping, index, triangle())
    estimate = glogue.pattern_count(triangle())
    assert actual / 4 <= estimate <= actual * 4


def test_glogue_beats_independence_on_triangles(snb):
    """High-order statistics must estimate the triangle better than the
    independence fallback (the whole point of GLogue, Sec 4.3)."""
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index, sample_ratio=1.0)
    high = CardinalityEstimator(glogue, catalog, use_glogue=True)
    low = CardinalityEstimator(glogue, catalog, use_glogue=False)
    actual = count_matches(mapping, index, triangle())
    err_high = abs(high.estimate(triangle()) - actual)
    err_low = abs(low.estimate(triangle()) - actual)
    assert err_high <= err_low


def test_larger_pattern_estimates_positive(snb):
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index, sample_ratio=0.5)
    estimator = CardinalityEstimator(glogue, catalog)
    for k in (3, 4, 5):
        estimate = estimator.estimate(knows_path(k))
        assert estimate > 0


def test_constraint_selectivity_shrinks_estimate(snb):
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index, sample_ratio=0.5)
    estimator = CardinalityEstimator(glogue, catalog)
    plain = knows_path(2)
    constrained = plain.with_vertex_constraint(
        "p0", eq(col("first_name"), lit("Jan"))
    )
    assert estimator.estimate(constrained) < estimator.estimate(plain)


def test_memoization_by_structure(snb):
    """Isomorphic patterns with different names share one GLogue entry."""
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index, sample_ratio=1.0)
    a = knows_path(2)
    renamed = (
        PatternGraph.builder()
        .vertex("x", "person")
        .vertex("y", "person")
        .vertex("z", "person")
        .edge("x", "y", "knows")
        .edge("y", "z", "knows")
        .build()
    )
    glogue.pattern_count(a)
    cached = len(glogue._cache)
    glogue.pattern_count(renamed)
    assert len(glogue._cache) == cached


# --------------------------------------------------------------------- #
# GLogue counts by CSR walks, checked against the reference matcher
# --------------------------------------------------------------------- #

NUMPY_MODES = [False, True] if numpy_available() else [False]


@st.composite
def walk_cases(draw):
    """A two-label graph — ``A`` vertices linked to each other (self-loops
    and parallel links drawn freely) and owning ``B`` vertices, either table
    possibly empty — and a connected pattern of at most three vertices whose
    edges may contradict their endpoint labels."""
    n_a, n_b = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    links = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=16)) if n_a else []
    owns = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=10)) if n_a and n_b else []
    links = [(s % n_a, d % n_a) for s, d in links]
    owns = [(s % n_a, d % n_b) for s, d in owns]
    n = draw(st.integers(1, 3))
    builder = PatternGraph.builder()
    for i in range(n):
        builder.vertex(f"v{i}", draw(st.sampled_from(["A", "B"])))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    if n == 1 and not pairs:
        pairs = [(0, 0)]
    for a, b in pairs:
        src, dst = (a, b) if draw(st.booleans()) else (b, a)
        builder.edge(f"v{src}", f"v{dst}", draw(st.sampled_from(["Link", "Owns"])))
    return (n_a, n_b, links, owns), builder.build()


def _walk_graph(n_a, n_b, links, owns):
    catalog = Catalog()
    for name, rows in (("A", n_a), ("B", n_b)):
        catalog.create_table(
            TableSchema(name, [Column("id", DataType.INT)], primary_key="id"),
            rows=[(i,) for i in range(rows)],
        )
    for name, target, pairs in (("Link", "A", links), ("Owns", "B", owns)):
        catalog.create_table(
            TableSchema(
                name,
                [Column("id", DataType.INT), Column("src", DataType.INT), Column("dst", DataType.INT)],
                primary_key="id",
                foreign_keys=[ForeignKey("src", "A", "id"), ForeignKey("dst", target, "id")],
            ),
            rows=[(i, s, d) for i, (s, d) in enumerate(pairs)],
        )
    mapping = RGMapping("G", catalog)
    mapping.add_vertex("A")
    mapping.add_vertex("B")
    mapping.add_edge("Link", source=("A", "src"), target=("A", "dst"))
    mapping.add_edge("Owns", source=("A", "src"), target=("B", "dst"))
    return mapping, build_graph_index(mapping)


@settings(max_examples=150, deadline=None)
@given(case=walk_cases(), picks=st.lists(st.integers(0, 5), max_size=8), limit=st.integers(1, 4))
def test_walk_count_is_the_reference_matchers_count(case, picks, limit):
    graph, pattern = case
    mapping, index = _walk_graph(*graph)
    start_label = pattern.vertices[edge_order(pattern)[0][0]].label
    n = mapping.vertex_table(start_label).num_rows
    samples = [range(n), sorted({p % n for p in picks}) if n else []]
    try:
        for numpy_on in NUMPY_MODES:
            set_numpy_enabled(numpy_on)
            glogue = GLogue(mapping, index, sample_ratio=1.0)
            steps = glogue._walk_steps(pattern)
            for starts in samples:
                want = len(match_pattern(mapping, index, pattern, start_rowids=list(starts)))
                for bound in (limit, WALK_ROWS):
                    got = 0 if steps is None else walk_count(starts, steps, bound)
                    assert got == want, (numpy_on, list(starts), bound)
            # A sample covering the start relation counts exactly.
            if pattern.num_edges >= 2 or pattern.num_vertices == 3:
                assert glogue.pattern_count(pattern) == count_matches(mapping, index, pattern)
    finally:
        set_numpy_enabled(None)


def test_sampled_count_scales_the_reference_matchers_sample_count(snb, monkeypatch):
    catalog, mapping, index = snb
    glogue = GLogue(mapping, index)
    samples = []

    def spy(starts, steps, limit=WALK_ROWS):
        samples.append(list(starts))
        return walk_count(starts, steps, limit)

    monkeypatch.setattr(glogue_module, "walk_count", spy)
    n = glogue.vertex_count("person")
    estimate = glogue.pattern_count(triangle())
    (sample,) = samples
    assert len(sample) < n
    matches = match_pattern(mapping, index, triangle(), start_rowids=sample)
    assert estimate == len(matches) * (n / len(sample))


GLOGUE_CACHE_SCRIPT = """
from repro.core.framework import RelGoFramework
from repro.core.sqlpgq import parse_and_bind
from repro.graph.index import build_graph_index
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.registry import suite

catalog, mapping = generate_ldbc(LdbcParams(persons=400, seed=7))
catalog.register_graph_index(build_graph_index(mapping))
framework = RelGoFramework(catalog, "snb")
framework.prepare()
for name in ("IC", "QR", "QC"):
    for sql in suite(name).values():
        framework.optimize(parse_and_bind(sql, catalog))
print(sorted(framework.glogue._cache.items()))
"""


def test_glogue_samples_the_same_vertices_in_every_process():
    """The sample is seeded from a digest of the pattern, not from ``hash``,
    which Python salts per process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", GLOGUE_CACHE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )  # fmt: skip
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "knows" in outputs[0]


def test_cold_compile_enumerates_no_matches(monkeypatch):
    """Compiling every IC/QR/QC/JOB statement on a fresh framework counts
    GLogue's patterns by CSR walks: the reference matcher never runs."""
    original = matching.match_pattern
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("repro") and getattr(module, "match_pattern", None) is original:
            monkeypatch.setattr(module, "match_pattern", counting)
    ldbc, ldbc_mapping = generate_ldbc(LdbcParams(persons=120, seed=5))
    imdb, imdb_mapping = generate_imdb(JobParams.scaled(0.2, seed=5))
    compiled = 0
    for catalog, mapping, names in ((ldbc, ldbc_mapping, ("IC", "QR", "QC")), (imdb, imdb_mapping, ("JOB",))):
        catalog.register_graph_index(build_graph_index(mapping))
        framework = RelGoFramework(catalog, mapping.name)
        framework.prepare()
        for name in names:
            for sql in suite(name).values():
                framework.optimize(parse_and_bind(sql, catalog))
                compiled += 1
        assert framework.glogue._cache
    assert compiled == 58
    assert calls == []
