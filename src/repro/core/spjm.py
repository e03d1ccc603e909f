"""The SPJM query skeleton (Eq. 1 of the paper).

An SPJM query is::

    Q = π_A ( σ_Ψ ( R_1 ⋈ ... ⋈ R_m ⋈ ( π̂_{A*} M_G(P) ) ) )

represented here as:

* a :class:`GraphTableClause` — the graph component ``π̂ M_G(P)``: the
  pattern ``P`` (with any constraints pushed into it), the graph-calibrated
  projection ``π̂`` (the COLUMNS clause, :class:`MatchColumn` entries), an
  exposure alias, and the matching semantics;
* the relational component — base relations, a conjunctive predicate bag
  referencing both relational columns (``alias.column``) and graph columns
  (``<gt alias>.<output name>``), projections / aggregation / ordering.

The structure is deliberately optimizer-neutral: the graph-agnostic
pipeline translates the clause away (Lemma 1) while RelGo optimizes it into
a SCAN_GRAPH_TABLE — both consume this same object.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

from repro.errors import BindError
from repro.graph.pattern import PatternGraph
from repro.relational.expr import Expr
from repro.relational.logical import AggregateSpec


@dataclass(frozen=True)
class MatchColumn:
    """One COLUMNS entry: project ``var.attr`` (or a special) as ``alias``.

    ``special`` is ``None`` for plain attributes, ``"id"`` for the element
    identifier or ``"label"`` for the element label (the paper's ``id(v)``
    and ``ℓ(v)`` projections).
    """

    var: str
    attr: str | None
    alias: str
    special: str | None = None

    def __post_init__(self) -> None:
        if (self.attr is None) == (self.special is None):
            raise BindError(
                f"match column {self.alias!r} needs exactly one of attr/special"
            )


@dataclass
class GraphTableClause:
    """The GRAPH_TABLE(...) clause: graph name, pattern, COLUMNS, alias."""

    graph_name: str
    pattern: PatternGraph
    columns: list[MatchColumn]
    alias: str = "g"
    semantics: str = "homomorphism"

    def column_map(self) -> dict[str, MatchColumn]:
        """Qualified output name -> MatchColumn."""
        return {f"{self.alias}.{c.alias}": c for c in self.columns}


@dataclass
class SPJMQuery:
    """One SPJM query: graph component + relational component."""

    graph_table: GraphTableClause | None
    relations: list[tuple[str, str]] = field(default_factory=list)  # (table, alias)
    predicates: list[Expr] = field(default_factory=list)
    projections: list[tuple[Expr, str]] | None = None
    group_by: list[tuple[Expr, str]] = field(default_factory=list)
    aggregates: list[AggregateSpec] = field(default_factory=list)
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False

    def copy(self) -> "SPJMQuery":
        """A deep-enough copy for rule application (expressions are immutable)."""
        gt = None
        if self.graph_table is not None:
            gt = GraphTableClause(
                self.graph_table.graph_name,
                self.graph_table.pattern,
                list(self.graph_table.columns),
                self.graph_table.alias,
                self.graph_table.semantics,
            )
        return SPJMQuery(
            graph_table=gt,
            relations=list(self.relations),
            predicates=list(self.predicates),
            projections=list(self.projections) if self.projections is not None else None,
            group_by=list(self.group_by),
            aggregates=list(self.aggregates),
            order_by=list(self.order_by),
            limit=self.limit,
            distinct=self.distinct,
        )
