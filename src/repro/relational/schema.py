"""Table schemas: ordered, named, typed columns plus key metadata.

Primary/foreign key declarations matter beyond integrity: RGMapping (Sec 2.1
of the paper) derives the total functions ``λˢ`` and ``λᵗ`` that map edge
tuples to endpoint vertex tuples from exactly these PK/FK relationships, and
the graph index (Sec 3.2.1) is built along them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.relational.types import DataType


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __str__(self) -> str:
        return f"{self.name}:{self.dtype.value}"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key declaration: ``column`` references ``ref_table.ref_column``."""

    column: str
    ref_table: str
    ref_column: str


@dataclass
class TableSchema:
    """The schema of one relation.

    Attributes:
        name: relation name, unique within a catalog.
        columns: ordered column list; order defines the tuple layout.
        primary_key: name of the primary-key column (single-column keys are
            sufficient for the paper's workloads), or ``None``.
        foreign_keys: foreign-key declarations used by RGMapping and the
            graph index builder.
    """

    name: str
    columns: list[Column]
    primary_key: str | None = None
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(f"duplicate column {col.name!r} in table {self.name!r}")
            seen.add(col.name)
        if self.primary_key is not None and self.primary_key not in seen:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for fk in self.foreign_keys:
            if fk.column not in seen:
                raise SchemaError(
                    f"foreign key column {fk.column!r} is not a column of {self.name!r}"
                )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def __str__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        return f"{self.name}({cols})"
