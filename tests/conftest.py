"""Shared fixtures.

``fig2_catalog`` reproduces the running example of the paper's Figure 2:
Person / Message / Likes / Knows / Place relations, the RGMapping onto the
property graph G, and the graph index.  Ground-truth matching results on
this graph are known by hand, so most correctness tests are phrased
against it.

``storage_mode`` runs a test once per cell of the engine's configuration
matrix, storage backend x numpy (see ``STORAGE_MODES``).
"""

from __future__ import annotations

import pytest

from repro.graph.index import build_graph_index
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, ForeignKey, TableSchema
from repro.relational.types import DataType


def build_fig2_catalog() -> tuple[Catalog, RGMapping]:
    catalog = Catalog()
    catalog.create_table(
        TableSchema(
            "Person",
            [
                Column("person_id", DataType.INT),
                Column("name", DataType.STRING),
                Column("place_id", DataType.INT),
            ],
            primary_key="person_id",
            foreign_keys=[ForeignKey("place_id", "Place", "id")],
        ),
        rows=[
            (1, "Tom", 101),
            (2, "Bob", 102),
            (3, "David", 103),
        ],
    )
    catalog.create_table(
        TableSchema(
            "Message",
            [Column("message_id", DataType.INT), Column("content", DataType.STRING)],
            primary_key="message_id",
        ),
        rows=[(11, "m1-content"), (12, "m2-content")],
    )
    catalog.create_table(
        TableSchema(
            "Likes",
            [
                Column("likes_id", DataType.INT),
                Column("pid", DataType.INT),
                Column("mid", DataType.INT),
                Column("date", DataType.DATE),
            ],
            primary_key="likes_id",
            foreign_keys=[
                ForeignKey("pid", "Person", "person_id"),
                ForeignKey("mid", "Message", "message_id"),
            ],
        ),
        rows=[
            (1, 1, 11, "2024-03-31"),
            (2, 2, 11, "2024-03-28"),
            (3, 2, 12, "2024-03-20"),
            (4, 3, 12, "2024-03-21"),
        ],
    )
    catalog.create_table(
        TableSchema(
            "Knows",
            [
                Column("knows_id", DataType.INT),
                Column("pid1", DataType.INT),
                Column("pid2", DataType.INT),
                Column("date", DataType.DATE),
            ],
            primary_key="knows_id",
            foreign_keys=[
                ForeignKey("pid1", "Person", "person_id"),
                ForeignKey("pid2", "Person", "person_id"),
            ],
        ),
        rows=[
            (1, 1, 2, "2023-01-15"),
            (2, 2, 1, "2023-01-15"),
            (3, 2, 3, "2023-02-18"),
            (4, 3, 2, "2023-02-18"),
        ],
    )
    catalog.create_table(
        TableSchema(
            "Place",
            [Column("id", DataType.INT), Column("name", DataType.STRING)],
            primary_key="id",
        ),
        rows=[(101, "Germany"), (102, "Denmark"), (103, "China")],
    )
    mapping = RGMapping("G", catalog)
    mapping.add_vertex("Person")
    mapping.add_vertex("Message")
    mapping.add_edge("Likes", source=("Person", "pid"), target=("Message", "mid"))
    mapping.add_edge("Knows", source=("Person", "pid1"), target=("Person", "pid2"))
    catalog.register_graph(mapping)
    catalog.analyze()
    return catalog, mapping


@pytest.fixture(scope="session")
def fig2():
    catalog, mapping = build_fig2_catalog()
    index = build_graph_index(mapping)
    catalog.register_graph_index(index)
    return catalog, mapping, index


#: The storage x numpy matrix, by test id: (storage backend, numpy on).
#: The ids name what sets each cell apart: ``dict`` is the default engine,
#: ``numpy`` runs plain-list storage through ndarray views, ``array`` runs
#: the default storage (``array.array`` buffers and dictionary strings)
#: without numpy, and ``list`` is the pure-Python reference semantics.
STORAGE_MODES = {
    "dict": ("dict", True),
    "numpy": ("list", True),
    "array": ("dict", False),
    "list": ("list", False),
}


@pytest.fixture(params=list(STORAGE_MODES))
def storage_mode(request):
    """Run under one storage x numpy cell (numpy cells skip without
    numpy); the defaults are restored when the test ends.  Tables built
    inside the test use the cell's storage backend."""
    from repro.exec import numpy_available, set_numpy_enabled
    from repro.relational.column import set_storage_backend

    backend, use_numpy = STORAGE_MODES[request.param]
    if use_numpy and not numpy_available():
        pytest.skip("numpy not installed")
    set_numpy_enabled(use_numpy)
    set_storage_backend(backend)
    yield request.param
    set_numpy_enabled(None)
    set_storage_backend(None)


@pytest.fixture
def repro_env():
    """``repro_env(spill_threshold=64, faults=None)``: set (or, with None,
    unset) ``REPRO_*`` variables and reload the settings; the environment
    and the settings are restored when the test ends."""
    from repro import settings

    with pytest.MonkeyPatch.context() as patch:

        def apply(**variables):
            for name, value in variables.items():
                variable = f"REPRO_{name.upper()}"
                if value is None:
                    patch.delenv(variable, raising=False)
                else:
                    patch.setenv(variable, str(value))
            return settings.reload()

        yield apply
    settings.reload()
