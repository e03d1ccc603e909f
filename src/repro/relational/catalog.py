"""The catalog: named tables, their statistics, property graphs and indexes.

The catalog is the single shared-state object of the engine.  Systems under
comparison receive the *same* catalog (same tables, same graph index) and
differ only in which parts of it their optimizer consults — e.g. the
DuckDB-like baseline ignores the graph index during planning even when it is
present, exactly as in the paper's setup.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import CatalogError
from repro.relational.schema import TableSchema
from repro.relational.statistics import TableStats, collect_stats
from repro.relational.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.index import GraphIndex
    from repro.graph.rgmapping import RGMapping


class Catalog:
    """A named collection of tables plus graph metadata layered on top."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._histogram_stats: dict[str, TableStats] = {}
        self._graphs: dict[str, "RGMapping"] = {}
        self._graph_indexes: dict[str, "GraphIndex"] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic schema/statistics epoch.

        Bumped by every change that can invalidate a cached query plan —
        DDL (tables, graphs, graph indexes) and explicit statistics
        refresh.  The plan cache stamps each entry with the version it was
        optimized under and discards entries whose stamp is stale.  Plain
        data appends do NOT bump it: snapshot pinning already gives cached
        plans a consistent view, and re-optimizing per append would defeat
        the cache.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------ #
    # tables
    # ------------------------------------------------------------------ #

    def create_table(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]] | None = None,
        validate: bool = True,
    ) -> Table:
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema, rows=rows, validate=validate)
        self._tables[schema.name] = table
        self._bump_version()
        return table

    def add_table(self, table: Table) -> None:
        if table.schema.name in self._tables:
            raise CatalogError(f"table {table.schema.name!r} already exists")
        self._tables[table.schema.name] = table
        self._bump_version()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def analyze(self, histogram_buckets: int = 32) -> None:
        """(Re)collect statistics for every table.

        Both the low-order tier and the histogram tier are refreshed;
        individual optimizers pick the tier they are allowed to see.
        """
        for name, table in self._tables.items():
            self._stats[name] = collect_stats(table, histogram_buckets=0)
            self._histogram_stats[name] = collect_stats(
                table, histogram_buckets=histogram_buckets
            )
        self._bump_version()

    def stats(self, name: str, histograms: bool = False) -> TableStats:
        """Statistics for ``name``; collected lazily if analyze() wasn't run."""
        store = self._histogram_stats if histograms else self._stats
        if name not in store:
            table = self.table(name)
            buckets = 32 if histograms else 0
            store[name] = collect_stats(table, histogram_buckets=buckets)
        return store[name]

    # ------------------------------------------------------------------ #
    # property graphs & indexes
    # ------------------------------------------------------------------ #

    def register_graph(self, mapping: "RGMapping") -> None:
        if mapping.name in self._graphs:
            raise CatalogError(f"property graph {mapping.name!r} already exists")
        self._graphs[mapping.name] = mapping
        self._bump_version()

    def graph(self, name: str) -> "RGMapping":
        try:
            return self._graphs[name]
        except KeyError:
            raise CatalogError(f"no property graph named {name!r}") from None

    def has_graph(self, name: str) -> bool:
        return name in self._graphs

    def graph_names(self) -> list[str]:
        return sorted(self._graphs)

    def default_graph(self) -> "RGMapping":
        """The sole registered graph; raises if zero or several exist."""
        if len(self._graphs) != 1:
            raise CatalogError(
                f"expected exactly one property graph, found {sorted(self._graphs)}"
            )
        return next(iter(self._graphs.values()))

    def register_graph_index(self, index: "GraphIndex") -> None:
        self._graph_indexes[index.graph_name] = index
        self._bump_version()

    def graph_index(self, graph_name: str) -> "GraphIndex | None":
        return self._graph_indexes.get(graph_name)

    def __repr__(self) -> str:
        return (
            f"Catalog(tables={len(self._tables)}, graphs={len(self._graphs)}, "
            f"indexes={len(self._graph_indexes)})"
        )
