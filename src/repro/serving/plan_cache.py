"""Parameterized plan cache: fingerprints, templates, rebinding.

Repeated query *shapes* dominate a serving workload, and for short queries
the frontend (lexer → parser → binder → optimizer) costs more than
execution.  The cache removes that cost for repeats:

1. **Fingerprint** — a regex scan normalizes the query text: string and
   number literals become ``?``, comments drop, whitespace collapses.  The
   scan matches literals and comments only; keywords and identifiers are
   copied as they are.  The literal values are collected *in text order*,
   which is exactly the slot numbering the parameterizing parser assigns
   (each NUMBER / STRING token in token order), so slot ``i`` of any query
   matching the fingerprint rebinds to that query's i-th literal.
2. **Template** — on a miss, the query is parsed with
   ``Parser(parameterize=True)``: expression-position literals become
   :class:`~repro.relational.expr.ParamLiteral` nodes carrying their slot,
   while structurally-consumed literals (LIMIT count, LIKE / STARTS WITH
   patterns, IN-list members, implicit-alias projections) are **baked** —
   their values are part of the plan shape, so the cache keys template
   *variants* by the baked values.  The optimized physical plan is stored
   with the result of one walk over it (:func:`param_sites`): the set of
   slots its ParamLiterals carry and the *sites* — the paths from the root
   to every attribute holding one.
3. **Rebind** — on a hit, only the recorded sites are rebuilt
   (:func:`bind_plan`): operators on a path are shallow-cloned, and only
   the recorded attributes get their literals substituted
   (:func:`~repro.relational.expr.substitute_params`).  Subtrees without
   parameters are *shared* with the template, which is safe because plan
   nodes are execution-immutable (the morsel scheduler already executes
   one tree concurrently).  Clones keep the template root's per-plan memos,
   such as the tables :func:`~repro.exec.context.pin_plan` pins, so a hit
   walks no plan tree at all.

**Safety valve** — ``and_()`` dedups conjuncts by string, constant folding
may merge literals, and other transforms can drop a ParamLiteral from the
final plan (e.g. ``x = 5 AND x = 5`` collapses to one conjunct, losing a
slot).  After optimizing, the cache compares the slots actually present in
the physical plan against the slots the parser handed out; on any mismatch
the query still executes, but the template is **not cached** — correctness
never depends on a transform being parameter-preserving.

Invalidation: each entry is stamped with the catalog's schema/statistics
``version``; a stale stamp is a miss (the entry is dropped and re-optimized
under the new catalog).  Capacity is LRU-bounded.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ParameterError
from repro.exec.operator import Operator
from repro.graph.physical import Branch, StarLeg
from repro.relational.expr import Expr, param_slots, substitute_params
from repro.relational.logical import AggregateSpec

# ---------------------------------------------------------------------- #
# fingerprinting
# ---------------------------------------------------------------------- #

#: One alternation pass over the query text that matches literals only:
#: keywords and identifiers are left where they are, so the callback runs
#: once per literal (plus once per comment) instead of once per word.
#: Order matters: strings and comments must win over the number rule so
#: quoted text is never tokenized.  Mirrors the lexer: ``''`` escapes inside
#: strings, ``--`` comments to end of line, numbers are ``\d+(\.\d+)?``
#: (the lexer's trailing-dot rule: ``1.x`` lexes as NUMBER 1, ``.``, IDENT).
#: A number starts at a word boundary (``\b\d+``), so a digit inside a name
#: (``p2``, ``_1``) is never a literal: a name never starts with a digit,
#: so each of its digits follows a word character.  The boundary is spelled
#: as a lookbehind after the first digit, ``\d(?<!\w\d)``: when every
#: branch starts with a character, the regex engine skips ahead to the next
#: character that can start one; a leading ``\b`` defeats that and made the
#: scan of the LDBC interactive texts about twice as slow.
_SCAN = re.compile(
    r"""
      '(?:[^']|'')*'            # string literal (with '' escapes)
    | --[^\n]*                  # line comment
    | \d(?<!\w\d)\d*(?:\.\d+)?   # number literal (never inside a name)
    | \?                        # DB-API parameter placeholder
    """,
    re.VERBOSE,
)


class _Placeholder:
    """Sentinel occupying a ``?`` placeholder's slot until params merge."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "?"


PLACEHOLDER = _Placeholder()

#: The only bindable parameter types — exactly the value types SQL text
#: literals can express, so a params-bound query and its literal-spliced
#: twin always share one fingerprint key.  bool is excluded explicitly:
#: it is an int subclass but the text form (TRUE/FALSE) is a keyword, not
#: a scanner literal, and would split the keyspace.
_BINDABLE = (int, float, str)


@dataclass(frozen=True)
class Fingerprint:
    """Normalized query text + its literals, in text (= slot) order."""

    normalized: str
    values: tuple[Any, ...]
    type_names: tuple[str, ...]

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        """Cache key: normalized text + literal *types* (an int vs float in
        the same slot binds typed kernels differently, so they get separate
        templates)."""
        return (self.normalized, self.type_names)


def scan_text(sql: str) -> tuple[str, tuple[Any, ...]]:
    """Normalize ``sql`` and collect its slot values, without parsing.

    String/number literals carry their value; ``?`` placeholders carry the
    :data:`PLACEHOLDER` sentinel (merged against params later).  Both
    normalize to ``?`` in the text, which is why a prepared statement and
    a literal-spliced query of the same shape share one normalized form.
    The scan visits literals and comments only (:data:`_SCAN`); every
    other character is copied, and whitespace collapses afterwards.
    """
    values: list[Any] = []

    def norm(match: re.Match) -> str:
        text = match.group()
        head = text[0]
        if head == "'":
            values.append(text[1:-1].replace("''", "'"))
        elif head == "-":
            return " "
        elif head == "?":
            values.append(PLACEHOLDER)
        else:
            values.append(float(text) if "." in text else int(text))
        return "?"

    normalized = " ".join(_SCAN.sub(norm, sql).split())
    return normalized, tuple(values)


def merge_params(values: tuple[Any, ...], params) -> tuple[Any, ...]:
    """Fill every :data:`PLACEHOLDER` slot in ``values`` from ``params``.

    Raises :class:`~repro.errors.ParameterError` on count mismatch or a
    value outside the bindable literal types (int/float/str).
    """
    slots = [i for i, v in enumerate(values) if v is PLACEHOLDER]
    given = () if params is None else tuple(params)
    if len(given) != len(slots):
        raise ParameterError(
            f"statement has {len(slots)} '?' placeholder(s) but "
            f"{len(given)} parameter(s) were bound"
        )
    for value in given:
        if not isinstance(value, _BINDABLE) or isinstance(value, bool):
            raise ParameterError(
                f"cannot bind parameter {value!r}: only int, float and str "
                "values are bindable"
            )
    if not slots:
        return values
    merged = list(values)
    for i, value in zip(slots, given):
        merged[i] = value
    return tuple(merged)


def fingerprint(sql: str, params=None) -> Fingerprint:
    """Scan ``sql`` into a :class:`Fingerprint` without parsing it.

    ``params`` binds ``?`` placeholders positionally (DB-API style); the
    merged values land in the same slot numbering inline literals use, so
    ``age = ?`` with ``params=[28]`` and ``age = 28`` produce identical
    fingerprints — and therefore share one cached plan template.
    """
    normalized, raw = scan_text(sql)
    vals = merge_params(raw, params)
    return Fingerprint(normalized, vals, tuple(type(v).__name__ for v in vals))


# ---------------------------------------------------------------------- #
# template rebinding
# ---------------------------------------------------------------------- #

#: Operator attributes that can carry ParamLiterals: expressions (and the
#: plan records holding them) first, then the children.  The store-time
#: walk reads only these, so it never touches bulk data attributes (CSR
#: arrays, pointer columns).
_OPERATOR_ATTRS = (
    "predicate",
    "edge_predicate",
    "src_predicate",
    "dst_predicate",
    "vertex_predicate",
    "condition",
    "residual",
    "exprs",
    "keys",
    "group_by",
    "aggregates",
    "legs",
    "branches",
    "child",
    "left",
    "right",
    "graph_op",
    "plans",
)

#: The same for the plan records operators hold expressions in.
_RECORD_ATTRS = {
    AggregateSpec: ("arg",),
    StarLeg: ("edge_predicate",),
    Branch: ("edge_predicate", "vertex_predicate", "branches"),
}

#: The site of an expression holding a ParamLiteral: substitute it whole.
_LEAF = True


def _sites(item: Any, slots: set[int]) -> Any:
    """The rebind site of ``item``, or None when no ParamLiteral is under
    it; adds every slot found to ``slots``.

    A site mirrors the path from ``item`` to its parameters: :data:`_LEAF`
    for an expression holding one, else ``((key, site), ...)`` over the
    attribute names (operators, plan records) or indexes (tuples, lists)
    that lead to more.
    """
    if isinstance(item, Expr):
        found = param_slots(item)
        slots.update(found)
        return _LEAF if found else None
    if isinstance(item, Operator):
        state = vars(item)
        keys = ((attr, state.get(attr)) for attr in _OPERATOR_ATTRS)
    elif isinstance(item, (tuple, list)):
        keys = enumerate(item)
    else:
        attrs = _RECORD_ATTRS.get(type(item))
        if attrs is None:
            return None
        keys = ((attr, getattr(item, attr)) for attr in attrs)
    site = tuple(
        (key, sub) for key, part in keys if (sub := _sites(part, slots)) is not None
    )
    return site or None


def param_sites(plan: Operator) -> tuple[set[int], Any]:
    """One walk over a template plan: the ParamLiteral slots it holds (the
    safety valve's "what survived optimization" side) and its rebind sites
    (:func:`bind_plan`'s map; None when the plan holds no parameter)."""
    slots: set[int] = set()
    sites = _sites(plan, slots)
    return slots, sites


def bind_plan(plan: Any, sites: Any, values) -> Any:
    """``plan`` with every ParamLiteral under ``sites`` bound to
    ``values[slot]``.

    Only the nodes on a recorded path are rebuilt: operators are
    shallow-cloned (their memoized ``_label_text`` dropped — labels print
    literal values — while every other per-plan memo, such as
    :func:`~repro.exec.context.pin_plan`'s, carries over: rebinding never
    changes tables, indexes or columns), plan records are ``replace``-d,
    and only the recorded attributes are rebound.  Subtrees without
    parameters are shared with the template.  Sharing is safe: execution
    never mutates plan nodes (per-query state lives in the ExecutionContext
    and operator-local generator frames).
    """
    if sites is _LEAF:
        return substitute_params(plan, values)
    if isinstance(plan, Operator):
        # ``copy.copy`` without its reduce protocol: plan nodes are plain
        # objects whose whole state is their ``__dict__``.
        clone = object.__new__(type(plan))
        state = clone.__dict__
        state.update(plan.__dict__)
        state.pop("_label_text", None)
        for attr, sub in sites:
            state[attr] = bind_plan(state[attr], sub, values)
        return clone
    if isinstance(plan, (tuple, list)):
        parts = list(plan)
        for i, sub in sites:
            parts[i] = bind_plan(parts[i], sub, values)
        return parts if isinstance(plan, list) else tuple(parts)
    return replace(
        plan, **{attr: bind_plan(getattr(plan, attr), sub, values) for attr, sub in sites}
    )


# ---------------------------------------------------------------------- #
# the cache
# ---------------------------------------------------------------------- #


@dataclass
class PlanTemplate:
    """One cached optimized plan, parameterized over its expr slots."""

    optimized: Any  # OptimizedQuery — the template's physical plan holds ParamLiterals
    baked_slots: frozenset[int]
    catalog_version: int
    #: :func:`param_sites` of the physical plan (None: nothing to rebind).
    sites: Any

    def bind(self, values) -> Operator:
        """The physical plan bound to ``values`` through the sites recorded
        at store time (:func:`bind_plan`): no walk over the rest of the
        tree, no attribute probing, no substitution into parameter-free
        expressions."""
        if self.sites is None:
            return self.optimized.physical
        return bind_plan(self.optimized.physical, self.sites, values)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    uncacheable: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "uncacheable": self.uncacheable,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


#: Default LRU capacity (distinct (fingerprint, baked-values) variants).
DEFAULT_CAPACITY = 256


class PlanCache:
    """LRU of :class:`PlanTemplate` keyed by fingerprint + baked values.

    Thread-safe: sessions of one Database share a single cache under a
    lock (lookups are dict operations; optimization happens outside the
    lock, so a slow optimize never blocks other sessions' hits).  A racy
    double-optimize of the same shape is benign — last store wins.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, capacity)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: (fingerprint key, baked values) -> template, least recent first.
        self._entries: OrderedDict[tuple, PlanTemplate] = OrderedDict()
        #: fingerprint key -> [baked slots in order, live variant count].
        #: Every variant of one normalized text bakes the *same* slots
        #: (baking is decided by grammar position, not value), so this
        #: selects the baked values of any query matching the key.
        self._baked: dict[tuple, list] = {}

    def lookup(self, fp: Fingerprint) -> PlanTemplate | None:
        """The live template for ``fp``, or None (a miss)."""
        with self._lock:
            baked = self._baked.get(fp.key)
            if baked is not None:
                pair = (fp.key, tuple(fp.values[s] for s in baked[0]))
                entry = self._entries.get(pair)
                if entry is not None:
                    if entry.catalog_version == self._catalog_version():
                        self.stats.hits += 1
                        self._entries.move_to_end(pair)
                        return entry
                    self.stats.invalidations += 1
                    self._evict(pair)
            self.stats.misses += 1
            return None

    def store(self, fp: Fingerprint, template: PlanTemplate) -> None:
        slots = tuple(sorted(template.baked_slots))
        pair = (fp.key, tuple(fp.values[s] for s in slots))
        with self._lock:
            if pair not in self._entries:
                self._baked.setdefault(fp.key, [slots, 0])[1] += 1
            self._entries[pair] = template
            self._entries.move_to_end(pair)
            while len(self._entries) > self.capacity:
                self._evict(next(iter(self._entries)))
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._baked.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals (caller holds the lock) ------------------------------ #

    _catalog_version_fn = None

    def bind_catalog(self, catalog) -> "PlanCache":
        """Attach the catalog whose ``version`` gates entry liveness."""
        self._catalog_version_fn = lambda: catalog.version
        return self

    def _catalog_version(self) -> int:
        fn = self._catalog_version_fn
        return fn() if fn is not None else 0

    def _evict(self, pair: tuple) -> None:
        del self._entries[pair]
        baked = self._baked[pair[0]]
        baked[1] -= 1
        if not baked[1]:
            del self._baked[pair[0]]


# ---------------------------------------------------------------------- #
# the one cache-or-optimize flow (shared by Database and System wrappers)
# ---------------------------------------------------------------------- #


def compile_template(cache, fp, sql, catalog, optimize, params=None, on_ddl=None):
    """The cache-miss path: parse, bind, optimize, store if rebindable.

    Shared by :func:`cached_optimize` and the prepared-statement handle
    (which skips the fingerprint scan but still compiles here on its first
    execute and after an epoch invalidation).  Returns ``(optimized,
    template_or_None)``; DDL (dispatched to ``on_ddl``) returns
    ``(None, None)``.
    """
    from repro.core.sqlpgq.ast import AstCreateGraph
    from repro.core.sqlpgq.binder import bind_query
    from repro.core.sqlpgq.parser import Parser

    parser = Parser(sql, parameterize=True, params=params)
    statement = parser.parse_statement()
    if on_ddl is not None and isinstance(statement, AstCreateGraph):
        on_ddl(statement)
        return None, None
    query = bind_query(statement, catalog)
    optimized = optimize(query)
    # Safety valve: cache only when every ParamLiteral the parser handed
    # out is still present in the physical plan (and none appeared out of
    # thin air).  ``and_()``'s string-dedup, constant folding, or a rule
    # rewrite can eliminate a parameter (e.g. ``x = 5 AND x = 5``
    # collapses to one conjunct) — such a plan is correct for THIS query
    # but not rebindable, so it executes uncached.
    slots, sites = param_sites(optimized.physical)
    if slots != parser.expr_slots:
        cache.stats.uncacheable += 1
        return optimized, None
    template = PlanTemplate(
        optimized=optimized,
        baked_slots=frozenset(parser.baked_slots),
        catalog_version=catalog.version,
        sites=sites,
    )
    cache.store(fp, template)
    return optimized, template


def cached_optimize(cache, sql, catalog, optimize, on_ddl=None, params=None):
    """Resolve SQL/PGQ text to an ``OptimizedQuery`` through ``cache``.

    On a hit the returned query carries the rebound physical plan (a
    copy-on-write clone of the template's); on a miss the text is parsed
    in parameterized mode, bound against ``catalog``, run through
    ``optimize`` and stored when the safety valve passes.  DDL statements
    are dispatched to ``on_ddl`` and return ``(None, False)`` (without it,
    DDL raises through ``bind_query``).  ``params`` binds ``?``
    placeholders positionally — merged before fingerprinting, so the
    params path and the literal path share cache entries.  Returns
    ``(optimized, hit)``.
    """
    fp = fingerprint(sql, params)
    entry = cache.lookup(fp)
    if entry is not None:
        bound = entry.bind(fp.values)
        return replace(entry.optimized, physical=bound), True
    optimized, _ = compile_template(
        cache, fp, sql, catalog, optimize, params=params, on_ddl=on_ddl
    )
    return optimized, False
