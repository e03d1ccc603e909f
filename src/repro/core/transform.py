"""The graph-agnostic transformation (Lemma 1).

Losslessly rewrites ``π̂_{A*} M_G(P)`` into relational scans and EVJoin
predicates:

* every pattern vertex variable ``v`` becomes one scan of its vertex
  relation under alias ``_v_<v>`` (redundant copies per incident edge are
  already eliminated, as in Example 4's final step);
* every pattern edge variable ``e = (u, w)`` becomes one scan of its edge
  relation under alias ``_e_<e>`` plus the two EVJoin equalities
  ``λˢ: _e_<e>.src_fk = _v_u.key`` and ``λᵗ: _e_<e>.dst_fk = _v_w.key``
  (Eq. 3);
* pattern constraints become scan predicates;
* each COLUMNS entry resolves to a qualified relational column (``id`` →
  the key column, ``label`` → a constant).

The output plugs straight into the relational optimizer as a flat
conjunctive block — the graph-agnostic baselines (DuckDB / GRainDB / Umbra
plans / Calcite timing) all run through this translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BindError, UnsupportedFeatureError
from repro.graph.rgmapping import RGMapping
from repro.relational.catalog import Catalog
from repro.relational.expr import Expr, col, eq, lit
from repro.relational.logical import LogicalScan
from repro.core.spjm import GraphTableClause, MatchColumn


def vertex_alias(var: str) -> str:
    return f"_v_{var}"


def edge_alias(var: str) -> str:
    return f"_e_{var}"


@dataclass
class AgnosticTranslation:
    """The relational rendering of one GRAPH_TABLE clause."""

    scans: list[LogicalScan] = field(default_factory=list)
    join_predicates: list[Expr] = field(default_factory=list)
    # qualified GRAPH_TABLE output column (g.x) -> replacement expression
    column_exprs: dict[str, Expr] = field(default_factory=dict)


def translate_match(
    clause: GraphTableClause,
    mapping: RGMapping,
    catalog: Catalog,
) -> AgnosticTranslation:
    """Apply Lemma 1 to one GRAPH_TABLE clause."""
    if clause.semantics != "homomorphism":
        raise UnsupportedFeatureError(
            "the graph-agnostic translation implements homomorphism semantics; "
            "all-distinct post filters are not translated"
        )
    pattern = clause.pattern
    translation = AgnosticTranslation()
    # One scan per pattern vertex variable.
    for name in sorted(pattern.vertices):
        pv = pattern.vertices[name]
        vm = mapping.vertex(pv.label)
        schema = catalog.table(vm.table_name).schema
        translation.scans.append(
            LogicalScan(
                vm.table_name,
                vertex_alias(name),
                schema.column_names,
                predicate=pv.predicate,
            )
        )
    # One scan per pattern edge variable, plus the two EVJoin equalities.
    for name in sorted(pattern.edges):
        pe = pattern.edges[name]
        em = mapping.edge(pe.label)
        src_pv = pattern.vertices[pe.src]
        dst_pv = pattern.vertices[pe.dst]
        if em.source_label != src_pv.label or em.target_label != dst_pv.label:
            raise BindError(
                f"edge {name!r}:{pe.label} connects "
                f"{em.source_label}->{em.target_label}, but the pattern binds "
                f"{src_pv.label}->{dst_pv.label}"
            )
        schema = catalog.table(em.table_name).schema
        translation.scans.append(
            LogicalScan(
                em.table_name,
                edge_alias(name),
                schema.column_names,
                predicate=pe.predicate,
            )
        )
        src_vm = mapping.vertex(em.source_label)
        dst_vm = mapping.vertex(em.target_label)
        translation.join_predicates.append(
            eq(
                col(f"{edge_alias(name)}.{em.source_key}"),
                col(f"{vertex_alias(pe.src)}.{src_vm.key}"),
            )
        )
        translation.join_predicates.append(
            eq(
                col(f"{edge_alias(name)}.{em.target_key}"),
                col(f"{vertex_alias(pe.dst)}.{dst_vm.key}"),
            )
        )
    # COLUMNS resolution.
    for column in clause.columns:
        qualified = f"{clause.alias}.{column.alias}"
        translation.column_exprs[qualified] = _resolve_column(
            column, clause, mapping
        )
    return translation


def _resolve_column(
    column: MatchColumn, clause: GraphTableClause, mapping: RGMapping
) -> Expr:
    pattern = clause.pattern
    if column.var in pattern.vertices:
        label = pattern.vertices[column.var].label
        vm = mapping.vertex(label)
        alias = vertex_alias(column.var)
        if column.special == "id":
            return col(f"{alias}.{vm.key}")
        if column.special == "label":
            return lit(label)
        if column.attr not in vm.properties:
            raise BindError(
                f"vertex label {label!r} has no property {column.attr!r}"
            )
        return col(f"{alias}.{column.attr}")
    if column.var in pattern.edges:
        label = pattern.edges[column.var].label
        em = mapping.edge(label)
        alias = edge_alias(column.var)
        if column.special == "id":
            # Edge relations may lack a surrogate key; the source FK plus the
            # alias is good enough for projection purposes.
            key = mapping.catalog.table(em.table_name).schema.primary_key
            if key is None:
                raise BindError(
                    f"edge relation {em.table_name!r} has no primary key to "
                    f"serve as id()"
                )
            return col(f"{alias}.{key}")
        if column.special == "label":
            return lit(label)
        if column.attr not in em.properties:
            raise BindError(f"edge label {label!r} has no property {column.attr!r}")
        return col(f"{alias}.{column.attr}")
    raise BindError(f"COLUMNS references unknown pattern variable {column.var!r}")
