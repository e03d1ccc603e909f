"""Heuristic cross-domain rules (Sec 4.2.3).

**FilterIntoMatchRule** — a relational selection over GRAPH_TABLE output
columns that all derive from *one* pattern element's attributes is pushed
into the pattern as a constraint: ``σ_{d'}(π̂ M(P)) ≡ σ_{Ψ'}(π̂ M((P, {d})))``.
The rule fires before graph optimization so the cost model can re-estimate
cardinalities with the constraint in place (the paper applies it greedily).

**TrimAndFuseRule** — the field trimmer walks every consumer of the
GRAPH_TABLE's columns (projections, predicates, aggregates, ordering) and
drops COLUMNS entries nothing reads; edge variables left without any
surviving column are *trimmed*, which licenses fusing their
EXPAND_EDGE + GET_VERTEX pair into a single EXPAND during lowering.

**DeadBranchRule** — when the query above the GRAPH_TABLE ignores
duplicates (only MIN / MAX aggregates, or a DISTINCT without aggregates or
LIMIT), a pattern vertex nothing reads matters only through whether it
matches, not how often, and a vertex read only inside MIN / MAX arguments
only through the least or greatest value it offers.  The rule computes the
*live* vertices (those the surviving COLUMNS read, plus both endpoints of
every kept edge variable) and, among them, the *reducible* ones; lowering
(:func:`repro.graph.optimizer.dead_branches`) then replaces each dangling
branch of dead vertices that fans out by one EXISTS check on the vertex it
hangs from, and dangling branches that end in reducible leaves, where two
or more meet at one anchor, by one per-anchor MIN / MAX reduction — GOpt's
field trimming taken from columns to multiplicity, and the (min, ×)
instance of per-anchor aggregation (FAQ) beside the boolean one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.expr import (
    ColumnRef,
    Expr,
    referenced_columns,
    rename_columns,
    split_conjuncts,
)
from repro.core.spjm import MatchColumn, SPJMQuery


@dataclass
class RuleReport:
    """What the rules did — surfaced in plan dumps and asserted by tests."""

    pushed_constraints: int = 0
    trimmed_columns: list[str] = field(default_factory=list)
    trimmed_edge_vars: list[str] = field(default_factory=list)
    needed_edge_vars: frozenset[str] = frozenset()
    # DeadBranchRule: the live vertices when it applies (None: it does not),
    # the live vertices read only inside MIN / MAX arguments with their
    # (func, attr) reads, and the branches lowering turned into EXISTS
    # checks and into MIN / MAX reductions.
    live_vertices: frozenset[str] | None = None
    reducible: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)
    pruned_branches: list[str] = field(default_factory=list)
    reduced_branches: list[str] = field(default_factory=list)


def apply_filter_into_match(query: SPJMQuery) -> tuple[SPJMQuery, RuleReport]:
    """Push eligible outer conjuncts into pattern constraints."""
    report = RuleReport()
    clause = query.graph_table
    if clause is None:
        return query, report
    query = query.copy()
    clause = query.graph_table
    assert clause is not None
    column_map = clause.column_map()
    kept: list[Expr] = []
    pattern = clause.pattern
    for conjunct in [c for p in query.predicates for c in split_conjuncts(p)]:
        target = _single_var_rewrite(conjunct, column_map)
        if target is None:
            kept.append(conjunct)
            continue
        var, rewritten = target
        if var in pattern.vertices:
            pattern = pattern.with_vertex_constraint(var, rewritten)
        else:
            pattern = pattern.with_edge_constraint(var, rewritten)
        report.pushed_constraints += 1
    clause.pattern = pattern
    query.predicates = kept
    return query, report


def _single_var_rewrite(
    conjunct: Expr, column_map: dict[str, MatchColumn]
) -> tuple[str, Expr] | None:
    """If every column of ``conjunct`` is an attribute of one pattern
    variable, return (var, conjunct rewritten over bare attribute names)."""
    variables: set[str] = set()
    rename: dict[str, str] = {}
    for name in referenced_columns(conjunct):
        mc = column_map.get(name)
        if mc is None or mc.special is not None:
            # References a relational column, another GRAPH_TABLE output
            # kind (id/label), or something unknown: not pushable.
            return None
        variables.add(mc.var)
        rename[name] = mc.attr or ""
    if len(variables) != 1:
        return None
    return variables.pop(), rename_columns(conjunct, rename)


def apply_trim_and_fuse(query: SPJMQuery) -> tuple[SPJMQuery, RuleReport]:
    """Drop unread COLUMNS entries; compute the surviving edge variables."""
    report = RuleReport()
    clause = query.graph_table
    if clause is None:
        return query, report
    query = query.copy()
    clause = query.graph_table
    assert clause is not None
    if query.projections is None and not query.aggregates and not query.group_by:
        # SELECT * over the graph table: every column is the output.
        report.needed_edge_vars = frozenset(
            c.var for c in clause.columns if c.var in clause.pattern.edges
        )
        for name in clause.pattern.edges:
            if name not in report.needed_edge_vars:
                report.trimmed_edge_vars.append(name)
        return query, report
    used: set[str] = set()
    for p in query.predicates:
        used |= referenced_columns(p)
    if query.projections:
        for e, _ in query.projections:
            used |= referenced_columns(e)
    for e, _ in query.group_by:
        used |= referenced_columns(e)
    for spec in query.aggregates:
        if spec.arg is not None:
            used |= referenced_columns(spec.arg)
    for e, _ in query.order_by:
        used |= referenced_columns(e)
    surviving: list[MatchColumn] = []
    for column in clause.columns:
        qualified = f"{clause.alias}.{column.alias}"
        if qualified in used:
            surviving.append(column)
        else:
            report.trimmed_columns.append(column.alias)
    # A query whose outputs are all trimmed still needs one column so the
    # match cardinality survives into the relational result.
    if not surviving and clause.columns:
        surviving = [clause.columns[0]]
        report.trimmed_columns.remove(clause.columns[0].alias)
    clause.columns = surviving
    needed_edges = {
        c.var for c in surviving if c.var in clause.pattern.edges
    }
    # Edges with constraints are evaluated inside EXPAND without keeping the
    # column, so they do not block trimming.
    for name in clause.pattern.edges:
        if name not in needed_edges:
            report.trimmed_edge_vars.append(name)
    report.needed_edge_vars = frozenset(needed_edges)
    return query, report


def apply_dead_branch(
    query: SPJMQuery, trimmed: RuleReport
) -> tuple[frozenset[str], dict[str, tuple[tuple[str, str], ...]]] | None:
    """DeadBranchRule: the live pattern vertices of a trimmed query whose
    consumer ignores duplicates, and the reducible ones among them; None
    when the rule does not apply.

    The consumer ignores duplicates when the query has at least one
    aggregate and every aggregate is MIN or MAX (GROUP BY allowed), or when
    it is a DISTINCT without aggregates and without LIMIT.  COUNT, SUM,
    AVG, plain projections and a LIMIT without aggregates count every
    match, so the rule never fires for them; nor under isomorphism or
    edge-distinct semantics, whose all-distinct check reads every binding.

    A live vertex is *reducible* when every read of it is an aggregate
    whose argument is one bare column of its attributes, and every
    aggregate over one attribute uses the same function; it maps to its
    ``(func, attr)`` reads.  A vertex that a GROUP BY key, ORDER BY key or
    outer predicate reads, whose id or label is read, that any other
    aggregate argument mentions, or that a kept edge touches is not
    reducible.

    Why the answer cannot change: project every match onto its live
    vertices.  Pruning a dead branch into an existence check on its anchor
    keeps exactly the pruned rows whose anchor has at least one match of
    the branch.  Each full match projects onto exactly one such pruned row
    (its own bindings pass the check), and each passing pruned row extends
    to at least one full match (the branch's match, which shares nothing
    with the rest of the pattern but the anchor).  So the *set* of distinct
    live tuples is unchanged, and with it every MIN / MAX, GROUP BY key and
    DISTINCT row; only how often each tuple repeats changes.  A branch
    holding reducible vertices keeps the same pruned rows, each carrying
    its anchor's MIN (MAX) over the branch's matches of every attribute it
    reduces: the MIN over the matches of one group is the MIN, over the
    group's anchors, of each anchor's own MIN, because no GROUP BY key
    reads the branch and each attribute is reduced on its own.
    """
    clause = query.graph_table
    if clause is None or clause.semantics != "homomorphism":
        return None
    if query.aggregates:
        if any(spec.func not in ("MIN", "MAX") for spec in query.aggregates):
            return None
    elif not query.distinct or query.limit is not None:
        return None
    read = {c.var for c in clause.columns if c.var in clause.pattern.vertices}
    edges = clause.pattern.edges
    ends = {v for name in trimmed.needed_edge_vars for v in (edges[name].src, edges[name].dst)}
    return frozenset(read | ends), _reducible(query, read - ends)


def _reducible(
    query: SPJMQuery, candidates: set[str]
) -> dict[str, tuple[tuple[str, str], ...]]:
    """The ``candidates`` read only inside MIN / MAX arguments, each with
    its ``(func, attr)`` reads (see :func:`apply_dead_branch`)."""
    clause = query.graph_table
    assert clause is not None
    column_map = clause.column_map()
    read: set[str] = set()  # qualified columns read outside reducible arguments
    for e, _ in [*query.group_by, *(query.projections or []), *query.order_by]:
        read |= referenced_columns(e)
    for p in query.predicates:
        read |= referenced_columns(p)
    funcs: dict[tuple[str, str], set[str]] = {}
    for spec in query.aggregates:
        mc = column_map.get(spec.arg.name) if isinstance(spec.arg, ColumnRef) else None
        if mc is not None and mc.attr is not None:
            funcs.setdefault((mc.var, mc.attr), set()).add(spec.func)
        elif spec.arg is not None:
            read |= referenced_columns(spec.arg)
    pinned = {column_map[name].var for name in read if name in column_map}
    pinned |= {var for (var, _), used in funcs.items() if len(used) > 1}
    reducible: dict[str, tuple[tuple[str, str], ...]] = {}
    for (var, attr), used in funcs.items():
        if var in candidates and var not in pinned:
            (func,) = used
            reducible[var] = reducible.get(var, ()) + ((func, attr),)
    return reducible
