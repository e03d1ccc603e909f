"""RGMapping: the relations-to-graph mapping of Sec 2.1.

An :class:`RGMapping` declares which relations are **vertex relations** and
which are **edge relations**, and materializes the two total functions
``λˢ`` and ``λᵗ`` that send each edge tuple to its source / target vertex
tuple through primary-/foreign-key relationships.  Tuples are mapped to graph
elements as:

* identifier — the tuple's rowid (the paper: "the row ID of the tuple in the
  relation can be directly used as the ID", with the relation name as a
  disambiguating prefix; we keep (label, rowid) pairs);
* label — the mapping's label (defaults to the relation name);
* attributes — the declared property columns.

The mapping is *virtual*: no graph is materialized (the GRainDB design the
paper adopts), only the graph index derives physical structures from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError, SchemaError
from repro.relational.catalog import Catalog


@dataclass(frozen=True)
class VertexMapping:
    """Maps one relation to vertices with ``label``.

    ``key`` is the column holding the vertex identifier (the relation's
    primary key); ``properties`` are the exposed attribute columns (defaults
    to every column).
    """

    label: str
    table_name: str
    key: str
    properties: tuple[str, ...]


@dataclass(frozen=True)
class EdgeMapping:
    """Maps one relation to edges with ``label``.

    ``source_key``/``target_key`` are the foreign-key columns in the edge
    relation; ``source_label``/``target_label`` name the endpoint vertex
    mappings; together with the vertex keys they realize ``λˢ`` and ``λᵗ``.
    """

    label: str
    table_name: str
    source_label: str
    source_key: str
    target_label: str
    target_key: str
    properties: tuple[str, ...]


@dataclass
class RGMapping:
    """A named property graph defined over a catalog's relations."""

    name: str
    catalog: Catalog
    vertices: dict[str, VertexMapping] = field(default_factory=dict)
    edges: dict[str, EdgeMapping] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_vertex(
        self,
        table_name: str,
        label: str | None = None,
        key: str | None = None,
        properties: list[str] | None = None,
    ) -> VertexMapping:
        """Declare a vertex relation.

        ``key`` defaults to the table's primary key; ``label`` to the table
        name; ``properties`` to all columns.
        """
        table = self.catalog.table(table_name)
        label = label or table_name
        if label in self.vertices or label in self.edges:
            raise CatalogError(f"label {label!r} already used in graph {self.name!r}")
        key = key or table.schema.primary_key
        if key is None:
            raise SchemaError(
                f"vertex table {table_name!r} needs a primary key (or explicit key)"
            )
        if not table.schema.has_column(key):
            raise SchemaError(f"no column {key!r} in {table_name!r}")
        props = tuple(properties) if properties is not None else tuple(
            table.schema.column_names
        )
        for p in props:
            if not table.schema.has_column(p):
                raise SchemaError(f"no property column {p!r} in {table_name!r}")
        mapping = VertexMapping(label, table_name, key, props)
        self.vertices[label] = mapping
        return mapping

    def add_edge(
        self,
        table_name: str,
        source: tuple[str, str],
        target: tuple[str, str],
        label: str | None = None,
        properties: list[str] | None = None,
    ) -> EdgeMapping:
        """Declare an edge relation.

        Args:
            table_name: the edge relation.
            source: ``(source_vertex_label, fk_column_in_edge_table)``.
            target: ``(target_vertex_label, fk_column_in_edge_table)``.
            label: edge label, defaulting to the table name.
            properties: exposed attribute columns (defaults to all).
        """
        table = self.catalog.table(table_name)
        label = label or table_name
        if label in self.edges or label in self.vertices:
            raise CatalogError(f"label {label!r} already used in graph {self.name!r}")
        source_label, source_key = source
        target_label, target_key = target
        for endpoint_label in (source_label, target_label):
            if endpoint_label not in self.vertices:
                raise CatalogError(
                    f"edge {label!r} references unknown vertex label {endpoint_label!r}"
                )
        for fk in (source_key, target_key):
            if not table.schema.has_column(fk):
                raise SchemaError(f"no column {fk!r} in {table_name!r}")
        props = tuple(properties) if properties is not None else tuple(
            table.schema.column_names
        )
        mapping = EdgeMapping(
            label, table_name, source_label, source_key, target_label, target_key, props
        )
        self.edges[label] = mapping
        return mapping

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def vertex(self, label: str) -> VertexMapping:
        try:
            return self.vertices[label]
        except KeyError:
            raise CatalogError(
                f"no vertex label {label!r} in graph {self.name!r}"
            ) from None

    def edge(self, label: str) -> EdgeMapping:
        try:
            return self.edges[label]
        except KeyError:
            raise CatalogError(
                f"no edge label {label!r} in graph {self.name!r}"
            ) from None

    def vertex_table(self, label: str):
        return self.catalog.table(self.vertex(label).table_name)

    def edge_table(self, label: str):
        return self.catalog.table(self.edge(label).table_name)

    def vertex_labels(self) -> list[str]:
        return sorted(self.vertices)

    def edge_labels_between(self, source_label: str, target_label: str) -> list[str]:
        """Edge labels whose endpoints are exactly (source_label, target_label)."""
        return sorted(
            label
            for label, em in self.edges.items()
            if em.source_label == source_label and em.target_label == target_label
        )

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check that ``λˢ`` and ``λᵗ`` are total functions.

        Every foreign-key value of every edge tuple must resolve to exactly
        one vertex tuple (resolution uses the vertex table's PK index, which
        itself rejects duplicates).  Raises :class:`SchemaError` on dangling
        references.
        """
        for label, em in self.edges.items():
            table = self.catalog.table(em.table_name)
            for endpoint_label, fk in (
                (em.source_label, em.source_key),
                (em.target_label, em.target_key),
            ):
                vm = self.vertex(endpoint_label)
                vtable = self.catalog.table(vm.table_name)
                fk_values = table.column(fk)
                for rowid, value in enumerate(fk_values):
                    if value is None or vtable.pk_lookup(value) is None:
                        raise SchemaError(
                            f"edge {label!r} tuple {rowid} has dangling "
                            f"{fk}={value!r} into {vm.table_name!r}"
                        )

    def __repr__(self) -> str:
        return (
            f"RGMapping({self.name!r}, vertices={sorted(self.vertices)}, "
            f"edges={sorted(self.edges)})"
        )
