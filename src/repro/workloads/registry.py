"""Named datasets and query suites, as the paper's evaluation refers to them.

``dataset("LDBC30")`` returns a ready catalog (tables loaded, RGMapping
registered, graph index built, statistics analyzed); ``suite("IC")`` returns
the corresponding named query dictionary.  The benchmark files use their own
session fixtures for caching; this registry is the convenience front door
for examples and interactive use.
"""

from __future__ import annotations

from repro.graph.index import build_graph_index
from repro.relational.catalog import Catalog
from repro.workloads.job import JobParams, generate_imdb, job_queries
from repro.workloads.ldbc import (
    LdbcParams,
    generate_ldbc,
    ic_queries,
    qc_queries,
    qr_queries,
)

# Laptop-scale stand-ins for the paper's datasets (see DESIGN.md Sec 2).
_DATASET_BUILDERS = {
    "LDBC10": lambda seed: generate_ldbc(LdbcParams.scaled(0.6, seed=seed)),
    "LDBC30": lambda seed: generate_ldbc(LdbcParams.scaled(1.2, seed=seed)),
    "LDBC100": lambda seed: generate_ldbc(LdbcParams.scaled(2.2, seed=seed)),
    "IMDB": lambda seed: generate_imdb(JobParams.scaled(1.0, seed=seed)),
}


def dataset_names() -> list[str]:
    return sorted(_DATASET_BUILDERS)


def dataset(name: str, seed: int = 7, with_index: bool = True) -> Catalog:
    """Build a named dataset; raises KeyError for unknown names."""
    catalog, mapping = _DATASET_BUILDERS[name](seed)
    if with_index:
        catalog.register_graph_index(build_graph_index(mapping))
    catalog.analyze()
    return catalog


_SUITES = {
    "IC": ic_queries,
    "QR": qr_queries,
    "QC": qc_queries,
    "JOB": job_queries,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def suite(name: str) -> dict[str, str]:
    """A named query suite: query name -> SQL/PGQ text."""
    return _SUITES[name]()
