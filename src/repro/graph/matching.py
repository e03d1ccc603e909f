"""Reference implementation of the matching operator ``M(P)`` (Def. 1).

A direct backtracking matcher over the graph index.  It is deliberately
simple — its job is to be *obviously correct* so that tests can check every
optimized physical plan (expand/intersect/join pipelines, graph-agnostic SPJ
translations) against it on small graphs.

Semantics (Sec 2.2 / 3.1): the default is **homomorphism** — pattern
elements need not map to distinct data elements.  ``isomorphism`` and
``edge_distinct`` apply the paper's *all-distinct* operator as a post filter
over vertices / edges respectively.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import PlanError
from repro.graph.index import GraphIndex
from repro.graph.pattern import PatternEdge, PatternGraph
from repro.graph.rgmapping import RGMapping
from repro.relational.expr import (
    Expr,
    compile_predicate_columnar,
    predicate_columns,
    rowid_predicate,
)
from repro.relational.table import Table

Binding = dict[str, int]

HOMOMORPHISM = "homomorphism"
ISOMORPHISM = "isomorphism"
EDGE_DISTINCT = "edge_distinct"


def rowid_selection(table: Table, predicate: Expr, num_rows: int | None = None):
    """Columnar sibling of :func:`~repro.relational.expr.rowid_predicate`.

    Compiles ``predicate`` into ``candidates -> surviving candidates`` over
    rowids of ``table``, evaluated column-at-a-time (the vectorized scan /
    filter path).  Returns the input object unchanged when every candidate
    survives.  ``num_rows`` caps the evaluated extent (a snapshot-pinned
    caller passes its pinned count); the default is the live row count.
    """
    names = predicate_columns(predicate)
    arrays = []
    layout: dict[str, int] = {}
    length = table.num_rows if num_rows is None else num_rows
    for i, name in enumerate(names):
        tail = name.rsplit(".", 1)[-1]
        # Vectorized views: typed columns filter via numpy boolean masks.
        arrays.append(table.vector(tail, min_rows=length))
        layout[name] = i
    selector = compile_predicate_columnar(predicate, layout)
    return lambda candidates: selector(arrays, candidates, length)


def match_pattern(
    mapping: RGMapping,
    index: GraphIndex,
    pattern: PatternGraph,
    semantics: str = HOMOMORPHISM,
    start_rowids: list[int] | None = None,
) -> list[Binding]:
    """Enumerate all matches of ``pattern``; each binding maps every pattern
    vertex and edge variable to a rowid in its label's relation.

    ``start_rowids`` restricts the candidates of the traversal's start vertex
    (``edge_order(pattern)[0][0]``) — the reference for GLogue's sparsified
    sample counts (Sec 4.2.1, "sparsification technique").
    """
    if not pattern.is_connected():
        raise PlanError("the matching operator is defined over connected patterns")
    vertex_pred: dict[str, Callable[[int], bool] | None] = {}
    for name, pv in pattern.vertices.items():
        table = mapping.vertex_table(pv.label)
        vertex_pred[name] = (
            rowid_predicate(table, pv.predicate) if pv.predicate is not None else None
        )
    edge_pred: dict[str, Callable[[int], bool] | None] = {}
    for name, pe in pattern.edges.items():
        table = mapping.edge_table(pe.label)
        edge_pred[name] = (
            rowid_predicate(table, pe.predicate) if pe.predicate is not None else None
        )

    order = edge_order(pattern)
    results: list[Binding] = []
    binding: Binding = {}

    start = order[0][0] if order else next(iter(pattern.vertices))

    def check_vertex(var: str, rowid: int) -> bool:
        pred = vertex_pred[var]
        return pred is None or pred(rowid)

    def extend(step: int) -> None:
        if step == len(order):
            results.append(dict(binding))
            return
        from_var, edge = order[step]
        to_var = edge.other(from_var)
        direction = edge.direction_from(from_var)
        em = mapping.edge(edge.label)
        # Endpoint labels must agree with the pattern's labels, otherwise
        # this edge label simply cannot match.
        src_pv = pattern.vertices[edge.src]
        dst_pv = pattern.vertices[edge.dst]
        if em.source_label != src_pv.label or em.target_label != dst_pv.label:
            return
        adjacency = index.adjacency(
            pattern.vertices[from_var].label, edge.label, direction
        )
        far = index.edge_index(edge.label).endpoint_rowids(direction)
        epred = edge_pred[edge.name]
        bound_to = binding.get(to_var)
        for edge_rowid in adjacency.edges_of(binding[from_var]):
            if epred is not None and not epred(edge_rowid):
                continue
            target = far[edge_rowid]
            if bound_to is not None:
                if target != bound_to:
                    continue
                binding[edge.name] = edge_rowid
                extend(step + 1)
                del binding[edge.name]
            else:
                if not check_vertex(to_var, target):
                    continue
                binding[to_var] = target
                binding[edge.name] = edge_rowid
                extend(step + 1)
                del binding[edge.name]
                del binding[to_var]

    start_table = mapping.vertex_table(pattern.vertices[start].label)
    candidates = (
        start_rowids if start_rowids is not None else range(start_table.num_rows)
    )
    for rowid in candidates:
        if not check_vertex(start, rowid):
            continue
        binding[start] = rowid
        extend(0)
        del binding[start]

    if semantics == HOMOMORPHISM:
        return results
    if semantics == ISOMORPHISM:
        return [b for b in results if _all_distinct(b, pattern, vertices=True)]
    if semantics == EDGE_DISTINCT:
        return [b for b in results if _all_distinct(b, pattern, vertices=False)]
    raise PlanError(f"unknown matching semantics {semantics!r}")


def edge_order(pattern: PatternGraph) -> list[tuple[str, PatternEdge]]:
    """Order edges so each step expands from an already-bound vertex:
    ``(bound vertex, edge)`` pairs, starting at the first vertex name in
    sorted order — the matcher's traversal, which GLogue's sampled counts
    walk too."""
    if not pattern.edges:
        return []
    order: list[tuple[str, PatternEdge]] = []
    bound: set[str] = set()
    remaining = dict(pattern.edges)
    start = next(iter(sorted(pattern.vertices)))
    bound.add(start)
    while remaining:
        progressed = False
        for name in sorted(remaining):
            edge = remaining[name]
            if edge.src in bound or edge.dst in bound:
                from_var = edge.src if edge.src in bound else edge.dst
                order.append((from_var, edge))
                bound.add(edge.src)
                bound.add(edge.dst)
                del remaining[name]
                progressed = True
                break
        if not progressed:  # pragma: no cover - unreachable for connected P
            raise PlanError("pattern is not connected")
    return order


def _all_distinct(binding: Binding, pattern: PatternGraph, vertices: bool) -> bool:
    if vertices:
        elements = [
            (pattern.vertices[n].label, binding[n]) for n in pattern.vertices
        ]
    else:
        elements = [(pattern.edges[n].label, binding[n]) for n in pattern.edges]
    return len(set(elements)) == len(elements)


def count_matches(
    mapping: RGMapping,
    index: GraphIndex,
    pattern: PatternGraph,
    semantics: str = HOMOMORPHISM,
) -> int:
    """Convenience wrapper returning only the match count."""
    return len(match_pattern(mapping, index, pattern, semantics))
