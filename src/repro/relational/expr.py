"""Scalar expression AST and compilation.

Expressions appear in selections (``σ``), join conditions, projections and —
after FilterIntoMatchRule fires — as constraints attached to pattern vertices
and edges.  The AST is deliberately small and immutable; evaluation compiles
an expression into a Python closure over a *layout* (a mapping from column
name to position in the row tuple), so per-row evaluation is a chain of plain
function calls with no name lookups.

Helpers at the bottom (``split_conjuncts``, ``referenced_columns``,
``rename_columns``) are what the optimizer rules are built out of.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import PlanError

Row = tuple
Evaluator = Callable[[Row], Any]


# ---------------------------------------------------------------------- #
# AST
# ---------------------------------------------------------------------- #


class Expr:
    """Base class of all scalar expressions (immutable)."""

    def __and__(self, other: "Expr") -> "Expr":
        return and_(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return BoolOp("OR", (self, other))


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to a column by (possibly qualified) name, e.g. ``p.name``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (int, float, str, bool, or None for NULL)."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class ParamLiteral(Literal):
    """A literal lifted into a plan-cache parameter slot.

    Behaves exactly like :class:`Literal` everywhere — evaluation,
    compilation, ``__str__`` (so implicit output aliases match the
    uncached parse byte-for-byte) — but additionally remembers which
    fingerprint slot its value came from, so a cached plan template can be
    rebound to fresh literals (:func:`substitute_params`) without
    re-optimizing.  The slot is part of equality/hash: two ``x = ?``
    predicates over different slots never collapse in ``and_``'s
    string-keyed dedup *unless* their values also coincide — the one case
    the cache layer detects via :func:`param_slots` and refuses to cache.
    """

    slot: int = -1


_COMPARISON_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` with SQL comparison semantics (NULL-safe)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BoolOp(Expr):
    """N-ary AND / OR."""

    op: str  # "AND" | "OR"
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in ("AND", "OR"):
            raise PlanError(f"unknown boolean operator {self.op!r}")
        if len(self.args) < 2:
            raise PlanError("BoolOp needs at least two arguments")

    def __str__(self) -> str:
        sep = f" {self.op} "
        return "(" + sep.join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def __str__(self) -> str:
        return f"(NOT {self.arg})"


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else None,
    "%": lambda a, b: a % b if b != 0 else None,
}


@dataclass(frozen=True)
class Arith(Expr):
    """``left op right`` arithmetic; NULL-propagating, division by zero -> NULL."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise PlanError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Like(Expr):
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards (and STARTS WITH sugar)."""

    arg: Expr
    pattern: str

    def __str__(self) -> str:
        return f"({self.arg} LIKE '{self.pattern}')"


@dataclass(frozen=True)
class InList(Expr):
    """``arg IN (v1, v2, ...)`` over literal values."""

    arg: Expr
    values: tuple[Any, ...]

    def __str__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"({self.arg} IN ({inner}))"


@dataclass(frozen=True)
class IsNull(Expr):
    arg: Expr
    negated: bool = False

    def __str__(self) -> str:
        return f"({self.arg} IS {'NOT ' if self.negated else ''}NULL)"


# ---------------------------------------------------------------------- #
# construction helpers
# ---------------------------------------------------------------------- #


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    return Literal(value)


def eq(left: Expr | str, right: Expr | Any) -> Comparison:
    return _cmp("=", left, right)


def ne(left: Expr | str, right: Expr | Any) -> Comparison:
    return _cmp("<>", left, right)


def lt(left: Expr | str, right: Expr | Any) -> Comparison:
    return _cmp("<", left, right)


def le(left: Expr | str, right: Expr | Any) -> Comparison:
    return _cmp("<=", left, right)


def gt(left: Expr | str, right: Expr | Any) -> Comparison:
    return _cmp(">", left, right)


def ge(left: Expr | str, right: Expr | Any) -> Comparison:
    return _cmp(">=", left, right)


def _coerce(value: Expr | Any) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        # Bare strings in the builder API are column names only when they
        # look like identifiers with an optional qualifier; everything else
        # must be wrapped in lit() explicitly.  To keep the builder
        # unambiguous we treat plain strings as column references.
        return ColumnRef(value)
    return Literal(value)


def _cmp(op: str, left: Expr | str, right: Expr | Any) -> Comparison:
    left_expr = _coerce(left)
    right_expr = right if isinstance(right, Expr) else Literal(right)
    return Comparison(op, left_expr, right_expr)


def and_(*args: Expr) -> Expr:
    """Conjunction; flattens nested ANDs and drops duplicates, preserving order."""
    flat: list[Expr] = []
    seen: set[str] = set()
    for arg in args:
        parts = arg.args if isinstance(arg, BoolOp) and arg.op == "AND" else (arg,)
        for part in parts:
            key = str(part)
            if key not in seen:
                seen.add(key)
                flat.append(part)
    if not flat:
        raise PlanError("and_() needs at least one argument")
    if len(flat) == 1:
        return flat[0]
    return BoolOp("AND", tuple(flat))


def starts_with(arg: Expr | str, prefix: str) -> Like:
    return Like(_coerce(arg), prefix + "%")


# ---------------------------------------------------------------------- #
# compilation
# ---------------------------------------------------------------------- #


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    """Translate a LIKE pattern into a compiled-regex matcher.

    Fast paths for the three overwhelmingly common shapes (prefix, suffix,
    infix) avoid regex entirely.
    """
    if "_" not in pattern:
        body = pattern.strip("%")
        if "%" not in body:
            if pattern.endswith("%") and not pattern.startswith("%"):
                return lambda s: s.startswith(body)
            if pattern.startswith("%") and not pattern.endswith("%"):
                return lambda s: s.endswith(body)
            if pattern.startswith("%") and pattern.endswith("%"):
                return lambda s: body in s
            return lambda s: s == body
    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )
    return lambda s: regex.match(s) is not None


def compile_expr(expr: Expr, layout: Mapping[str, int]) -> Evaluator:
    """Compile ``expr`` into a closure evaluating it against a row tuple.

    Args:
        expr: the expression to compile.
        layout: maps each column name referenced by ``expr`` to its index in
            the row tuples the closure will receive.

    Raises:
        PlanError: when the expression references a column absent from the
            layout — this indicates a planner bug, not bad user input, since
            binding happens earlier.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        idx = _resolve_layout(expr.name, layout)
        return lambda row: row[idx]
    if isinstance(expr, Comparison):
        fn = _COMPARISON_OPS[expr.op]
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)

        def _compare(row: Row) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            return fn(lv, rv)

        return _compare
    if isinstance(expr, BoolOp):
        parts = [compile_expr(a, layout) for a in expr.args]
        if expr.op == "AND":

            def _and(row: Row) -> Any:
                saw_null = False
                for part in parts:
                    value = part(row)
                    if value is None:
                        saw_null = True
                    elif not value:
                        return False
                return None if saw_null else True

            return _and

        def _or(row: Row) -> Any:
            saw_null = False
            for part in parts:
                value = part(row)
                if value is None:
                    saw_null = True
                elif value:
                    return True
            return None if saw_null else False

        return _or
    if isinstance(expr, Not):
        arg = compile_expr(expr.arg, layout)

        def _not(row: Row) -> Any:
            value = arg(row)
            return None if value is None else (not value)

        return _not
    if isinstance(expr, Arith):
        fn = _ARITH_OPS[expr.op]
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)

        def _arith(row: Row) -> Any:
            lv = left(row)
            rv = right(row)
            if lv is None or rv is None:
                return None
            return fn(lv, rv)

        return _arith
    if isinstance(expr, Like):
        arg = compile_expr(expr.arg, layout)
        match = _like_matcher(expr.pattern)

        def _like(row: Row) -> Any:
            value = arg(row)
            if value is None:
                return None
            return match(value)

        return _like
    if isinstance(expr, InList):
        arg = compile_expr(expr.arg, layout)
        values = frozenset(expr.values)

        def _in(row: Row) -> Any:
            value = arg(row)
            if value is None:
                return None
            return value in values

        return _in
    if isinstance(expr, IsNull):
        arg = compile_expr(expr.arg, layout)
        if expr.negated:
            return lambda row: arg(row) is not None
        return lambda row: arg(row) is None
    raise PlanError(f"cannot compile expression {expr!r}")


def compile_predicate(expr: Expr, layout: Mapping[str, int]) -> Callable[[Row], bool]:
    """Like :func:`compile_expr` but collapses NULL to False (WHERE semantics)."""
    evaluator = compile_expr(expr, layout)

    def _predicate(row: Row) -> bool:
        value = evaluator(row)
        return bool(value) if value is not None else False

    return _predicate


# ---------------------------------------------------------------------- #
# columnar compilation
# ---------------------------------------------------------------------- #
#
# The vectorized execution path evaluates expressions column-at-a-time.
# Two compiled shapes exist:
#
# * a **columnar evaluator** ``(columns, selection, length) -> values``
#   computes the expression's value for every visible row; ``columns`` is
#   the operator's raw column list (layout order), ``selection`` an optional
#   row-index vector, and the result is a dense list aligned with the
#   visible rows.
# * a **selection evaluator** ``(columns, selection, length) -> selection``
#   refines the selection to the rows where the predicate holds (WHERE
#   semantics: NULL filters out).  Returning the *input* selection object
#   unchanged signals the all-selected fast path, so callers can skip
#   rebuilding batches.
#
# Common shapes (column vs literal comparisons, IN lists, LIKE, conjunction
# chains) compile to single comprehensions with no per-row closure calls —
# this is where the columnar engine's speedup over the row engine comes
# from.  Everything else falls back to the row-wise evaluator applied to
# reconstructed tuples, which keeps semantics identical by construction.

ColumnarEvaluator = Callable[[Sequence, "Sequence[int] | None", int], list]
SelectionEvaluator = Callable[
    [Sequence, "Sequence[int] | None", int], "Sequence[int] | None"
]


def _resolve_layout(name: str, layout: Mapping[str, int]) -> int:
    """Column index of ``name``; unqualified references resolve when exactly
    one layout column has that tail (SQL's usual disambiguation rule).
    Shared by the row-wise and columnar compilers so both resolve names
    identically."""
    if name in layout:
        return layout[name]
    matches = {
        i for lname, i in layout.items() if lname.rsplit(".", 1)[-1] == name
    }
    if len(matches) != 1:
        raise PlanError(f"column {name!r} not in layout {sorted(layout)}")
    return matches.pop()


def _candidates(sel: "Sequence[int] | None", n: int) -> Sequence:
    return range(n) if sel is None else sel


def _refined(kept: list, sel: "Sequence[int] | None", n: int):
    """Normalize a refined selection: hand back the input object (or None)
    unchanged when every visible row survived, enabling identity-checked
    all-selected fast paths downstream."""
    if sel is None:
        return None if len(kept) == n else kept
    return sel if len(kept) == len(sel) else kept


#: Memo for compiled columnar evaluators/selectors.  Compiled closures are
#: pure functions of ``(columns, selection, length)`` — they close over
#: layout *indices* only and re-check numpy enablement per call — so one
#: compilation serves every execution of the same (expr, layout) shape.
#: Exprs are frozen dataclasses (hashable); unhashable literals skip the
#: cache.  Bounded by wholesale clear: plan shapes per process are few.
_COMPILE_CACHE: dict = {}
_COMPILE_CACHE_LIMIT = 1024


def _literal_types(expr: Expr, out: list) -> None:
    """Collect the concrete types of every literal value in tree order.

    Python equality conflates ``True == 1 == 1.0``, so two exprs can be
    ``==`` (and hash-equal) while compiling to closures that emit
    *differently-typed* values; the cache key must tell them apart.
    """
    if isinstance(expr, Literal):
        out.append(type(expr.value))
    elif isinstance(expr, (Comparison, Arith)):
        _literal_types(expr.left, out)
        _literal_types(expr.right, out)
    elif isinstance(expr, BoolOp):
        for arg in expr.args:
            _literal_types(arg, out)
    elif isinstance(expr, Not):
        _literal_types(expr.arg, out)
    elif isinstance(expr, (Like, IsNull)):
        _literal_types(expr.arg, out)
    elif isinstance(expr, InList):
        _literal_types(expr.arg, out)
        out.extend(type(v) for v in expr.values)


def _compile_cached(kind: str, expr: Expr, layout: Mapping[str, int], build):
    try:
        literal_types: list = []
        _literal_types(expr, literal_types)
        key = (kind, expr, tuple(literal_types), tuple(sorted(layout.items())))
        cached = _COMPILE_CACHE.get(key)
    except TypeError:  # unhashable literal somewhere in the expression
        return build(expr, layout)
    if cached is None:
        cached = build(expr, layout)
        if len(_COMPILE_CACHE) >= _COMPILE_CACHE_LIMIT:
            _COMPILE_CACHE.clear()
        _COMPILE_CACHE[key] = cached
    return cached


def compile_expr_columnar(
    expr: Expr, layout: Mapping[str, int]
) -> ColumnarEvaluator:
    """Compile ``expr`` into a column-at-a-time evaluator (memoized).

    The returned callable maps ``(columns, selection, length)`` to a dense
    list holding the expression's value per visible row.
    """
    return _compile_cached("expr", expr, layout, _compile_expr_columnar)


def _compile_expr_columnar(
    expr: Expr, layout: Mapping[str, int]
) -> ColumnarEvaluator:
    from repro.exec.vector import as_values, gather

    if isinstance(expr, Literal):
        value = expr.value

        def _lit(cols: Sequence, sel, n: int) -> list:
            return [value] * (len(sel) if sel is not None else n)

        return _lit
    if isinstance(expr, ColumnRef):
        idx = _resolve_layout(expr.name, layout)

        def _col(cols: Sequence, sel, n: int) -> list:
            column = cols[idx]
            if sel is None:
                values = as_values(column)
                return values if isinstance(values, list) else list(values)
            return gather(column, sel)

        return _col
    if isinstance(expr, Comparison):
        fn = _COMPARISON_OPS[expr.op]
        return _columnar_binary(expr.left, expr.right, fn, layout)
    if isinstance(expr, Arith):
        fn = _ARITH_OPS[expr.op]
        return _columnar_binary(expr.left, expr.right, fn, layout)
    if isinstance(expr, Like):
        arg = compile_expr_columnar(expr.arg, layout)
        match = _like_matcher(expr.pattern)

        def _like(cols: Sequence, sel, n: int) -> list:
            return [None if v is None else match(v) for v in arg(cols, sel, n)]

        return _like
    if isinstance(expr, InList):
        arg = compile_expr_columnar(expr.arg, layout)
        values = frozenset(expr.values)

        def _in(cols: Sequence, sel, n: int) -> list:
            return [None if v is None else v in values for v in arg(cols, sel, n)]

        return _in
    if isinstance(expr, IsNull):
        arg = compile_expr_columnar(expr.arg, layout)
        if expr.negated:
            return lambda cols, sel, n: [v is not None for v in arg(cols, sel, n)]
        return lambda cols, sel, n: [v is None for v in arg(cols, sel, n)]
    if isinstance(expr, Not):
        arg = compile_expr_columnar(expr.arg, layout)

        def _not(cols: Sequence, sel, n: int) -> list:
            return [None if v is None else (not v) for v in arg(cols, sel, n)]

        return _not
    # Generic fallback (boolean combinations in value position, future node
    # types): evaluate row-wise over reconstructed tuples.
    rowwise = compile_expr(expr, layout)

    def _fallback(cols: Sequence, sel, n: int) -> list:
        out = []
        for i in _candidates(sel, n):
            out.append(rowwise(tuple(c[i] for c in cols)))
        return out

    return _fallback


def _columnar_binary(
    left: Expr, right: Expr, fn: Callable[[Any, Any], Any], layout: Mapping[str, int]
) -> ColumnarEvaluator:
    """NULL-propagating binary evaluator with literal-operand fast paths."""
    if isinstance(right, Literal):
        k = right.value
        lv = compile_expr_columnar(left, layout)
        if k is None:
            return lambda cols, sel, n: [None] * (len(sel) if sel is not None else n)
        return lambda cols, sel, n: [
            None if v is None else fn(v, k) for v in lv(cols, sel, n)
        ]
    if isinstance(left, Literal):
        k = left.value
        rv = compile_expr_columnar(right, layout)
        if k is None:
            return lambda cols, sel, n: [None] * (len(sel) if sel is not None else n)
        return lambda cols, sel, n: [
            None if v is None else fn(k, v) for v in rv(cols, sel, n)
        ]
    lv = compile_expr_columnar(left, layout)
    rv = compile_expr_columnar(right, layout)
    return lambda cols, sel, n: [
        None if a is None or b is None else fn(a, b)
        for a, b in zip(lv(cols, sel, n), rv(cols, sel, n))
    ]


def compile_predicate_columnar(
    expr: Expr, layout: Mapping[str, int]
) -> SelectionEvaluator:
    """Compile ``expr`` into a selection-vector refiner (WHERE semantics).

    The returned callable (memoized per (expr, layout) shape) maps
    ``(columns, selection, length)`` to the refined selection: the subset
    of visible row indices where the predicate evaluates to TRUE (NULL and
    FALSE filter out).  When every visible row passes, the input
    ``selection`` object itself is returned so callers can detect the
    all-selected fast path with an identity check.
    """
    return _compile_cached("pred", expr, layout, _compile_predicate_columnar)


def _compile_predicate_columnar(
    expr: Expr, layout: Mapping[str, int]
) -> SelectionEvaluator:
    if isinstance(expr, BoolOp) and expr.op == "AND":
        # Conjunction chain: each conjunct refines the survivors of the
        # previous one, so later (often more expensive) conjuncts only see
        # already-filtered rows.
        parts = [compile_predicate_columnar(a, layout) for a in expr.args]
        masks = [getattr(p, "_numpy_mask", None) for p in parts]
        all_maskable = all(m is not None for m in masks)

        def _and(cols: Sequence, sel, n: int):
            # A full-prefix ``range`` selection (how table scans window
            # into cached whole-column vectors) is just as dense as None.
            if all_maskable and (
                sel is None
                or (type(sel) is range and sel.start == 0 and sel.step == 1)
                and len(sel) == n
            ):
                # Dense input and every conjunct is a vectorizable
                # column-vs-literal: AND the boolean masks directly and
                # materialize survivor indices once, instead of a
                # flatnonzero + index-gather round per conjunct.
                combined = _combined_mask(masks, cols, n)
                if combined is not _NO_NUMPY_PATH:
                    from repro.exec import vector

                    if combined.all():
                        return sel
                    return vector._np.flatnonzero(combined)
            for part in parts:
                sel = part(cols, sel, n)
                if sel is not None and len(sel) == 0:
                    return sel
            return sel

        if all_maskable:
            _and._numpy_mask = lambda cols, n: _combined_mask(  # type: ignore[attr-defined]
                masks, cols, n
            )
        return _and
    if isinstance(expr, Comparison):
        fn = _COMPARISON_OPS[expr.op]
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return _selection_vs_literal(left, right.value, fn, layout, expr.op)
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            flipped = lambda a, b: fn(b, a)  # noqa: E731
            # ``=``/``<>`` are symmetric, so the dictionary code-compare
            # fast path keyed on the op stays valid with the operands
            # flipped; order ops only ever use the flipped ``fn``.
            return _selection_vs_literal(
                right, left.value, flipped, layout, expr.op
            )
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            li = _resolve_layout(left.name, layout)
            ri = _resolve_layout(right.name, layout)

            def _col_col(cols: Sequence, sel, n: int):
                ca, cb = cols[li], cols[ri]
                np_sel = _numpy_selection_pair(ca, cb, sel, n, fn)
                if np_sel is not _NO_NUMPY_PATH:
                    return np_sel
                kept = [
                    i
                    for i in _candidates(sel, n)
                    if (a := ca[i]) is not None
                    and (b := cb[i]) is not None
                    and fn(a, b)
                ]
                return _refined(kept, sel, n)

            def _col_col_mask(cols: Sequence, n: int):
                from repro.exec import vector

                np = vector._np
                ca, cb = cols[li], cols[ri]
                if (
                    np is None
                    or not vector.numpy_enabled()
                    or not isinstance(ca, np.ndarray)
                    or not isinstance(cb, np.ndarray)
                    or ca.dtype == object
                    or cb.dtype == object
                ):
                    return _NO_NUMPY_PATH
                try:
                    return fn(ca[:n], cb[:n])
                except (TypeError, ValueError):
                    return _NO_NUMPY_PATH

            _col_col._numpy_mask = _col_col_mask  # type: ignore[attr-defined]
            return _col_col
    if isinstance(expr, InList) and isinstance(expr.arg, ColumnRef):
        idx = _resolve_layout(expr.arg.name, layout)
        values = frozenset(expr.values)

        def _in(cols: Sequence, sel, n: int):
            column = cols[idx]
            dict_sel = _dict_selection_in(column, sel, n, values)
            if dict_sel is not _NO_NUMPY_PATH:
                return dict_sel
            kept = [
                i
                for i in _candidates(sel, n)
                if (v := column[i]) is not None and v in values
            ]
            return _refined(kept, sel, n)

        def _in_mask(cols: Sequence, n: int):
            from repro.exec import vector

            dv = vector.dict_vector(cols[idx])
            if dv is None:
                return _NO_NUMPY_PATH
            codes = [
                c
                for c in (
                    dv.index.get(v) for v in values if type(v) is str
                )
                if c is not None
            ]
            return vector._np.isin(dv.codes[:n], codes)

        _in._numpy_mask = _in_mask  # type: ignore[attr-defined]
        return _in
    if isinstance(expr, Like) and isinstance(expr.arg, ColumnRef):
        idx = _resolve_layout(expr.arg.name, layout)
        match = _like_matcher(expr.pattern)

        def _like(cols: Sequence, sel, n: int):
            column = cols[idx]
            dict_sel = _dict_selection_vs_dictionary(column, sel, n, match)
            if dict_sel is not _NO_NUMPY_PATH:
                return dict_sel
            kept = [
                i
                for i in _candidates(sel, n)
                if (v := column[i]) is not None and match(v)
            ]
            return _refined(kept, sel, n)

        def _like_mask(cols: Sequence, n: int):
            from repro.exec import vector

            dv = vector.dict_vector(cols[idx])
            if dv is None:
                return _NO_NUMPY_PATH
            mask = _dictionary_value_mask(dv, match, vector._np)
            return mask[dv.codes[:n]] if mask is not _NO_NUMPY_PATH else mask

        _like._numpy_mask = _like_mask  # type: ignore[attr-defined]
        return _like
    if isinstance(expr, IsNull) and isinstance(expr.arg, ColumnRef):
        idx = _resolve_layout(expr.arg.name, layout)
        negated = expr.negated

        def _isnull(cols: Sequence, sel, n: int):
            column = cols[idx]
            if getattr(column, "is_dictionary", False):
                # Dictionary columns hold no NULLs (a NULL demotes the
                # whole column to a list before any view is built).
                return sel if negated else []
            if negated:
                kept = [i for i in _candidates(sel, n) if column[i] is not None]
            else:
                kept = [i for i in _candidates(sel, n) if column[i] is None]
            return _refined(kept, sel, n)

        return _isnull
    if isinstance(expr, Literal):
        value = expr.value
        if value is not None and value:
            return lambda cols, sel, n: sel
        return lambda cols, sel, n: []
    # Generic fallback: evaluate as a value column, keep the truthy rows
    # (None is falsy, matching WHERE semantics).
    evaluator = compile_expr_columnar(expr, layout)

    def _generic(cols: Sequence, sel, n: int):
        values = evaluator(cols, sel, n)
        if sel is None:
            kept = [i for i, v in enumerate(values) if v]
        else:
            kept = [s for s, v in zip(sel, values) if v]
        return _refined(kept, sel, n)

    return _generic


def _selection_vs_literal(
    ref: ColumnRef,
    k: Any,
    fn: Callable[[Any, Any], Any],
    layout: Mapping[str, int],
    op: str,
) -> SelectionEvaluator:
    """column-vs-constant comparison: the hottest filter shape."""
    idx = _resolve_layout(ref.name, layout)
    if k is None:
        # Comparison with NULL is NULL for every row -> nothing passes.
        return lambda cols, sel, n: []

    def _cmp_lit(cols: Sequence, sel, n: int):
        column = cols[idx]
        dict_sel = _dict_selection(column, sel, n, fn, k, op)
        if dict_sel is not _NO_NUMPY_PATH:
            return dict_sel
        np_sel = _numpy_selection(column, sel, n, fn, k)
        if np_sel is not _NO_NUMPY_PATH:
            return np_sel
        kept = [
            i
            for i in _candidates(sel, n)
            if (v := column[i]) is not None and fn(v, k)
        ]
        return _refined(kept, sel, n)

    def _mask(cols: Sequence, n: int):
        """Dense boolean mask over rows [0, n), or _NO_NUMPY_PATH."""
        from repro.exec import vector

        np = vector._np
        column = cols[idx]
        dv = vector.dict_vector(column)
        if dv is not None:
            return _dict_code_mask(dv, dv.codes[:n], fn, k, op, np)
        if (
            np is None
            or not vector.numpy_enabled()
            or not isinstance(column, np.ndarray)
            or column.dtype == object
        ):
            return _NO_NUMPY_PATH
        try:
            return fn(column[:n], k)
        except (TypeError, ValueError):
            return _NO_NUMPY_PATH

    _cmp_lit._numpy_mask = _mask  # type: ignore[attr-defined]
    return _cmp_lit


# ---------------------------------------------------------------------- #
# dictionary-encoded fast paths
# ---------------------------------------------------------------------- #
#
# Dictionary columns arrive as ``repro.exec.vector.DictVector``: an int64
# code ndarray plus the column's value dictionary.  String predicates then
# never touch the strings row-wise — equality/inequality compare codes
# against one literal lookup, and anything evaluated *per value* (order
# comparisons, LIKE) runs once over the dictionary (size = distinct
# values) and broadcasts to rows by indexing the per-value mask with the
# codes.  A literal missing from the dictionary is a constant-false (or,
# for ``<>``, constant-true: dictionary columns hold no NULLs) predicate.


def _dict_code_mask(dv, codes, fn, k, op: str, np):
    """Boolean mask aligned with ``codes``, or _NO_NUMPY_PATH."""
    if op == "=" or op == "<>":
        code = dv.index.get(k) if type(k) is str else None
        if code is None:
            mask = np.zeros(len(codes), dtype=bool)
            return ~mask if op == "<>" else mask
        return (codes != code) if op == "<>" else (codes == code)
    values = dv.values
    try:
        per_value = np.fromiter(
            (fn(v, k) for v in values), dtype=bool, count=len(values)
        )
    except TypeError:  # incomparable literal: keep exact row-path errors
        return _NO_NUMPY_PATH
    if not len(per_value):
        return np.zeros(len(codes), dtype=bool)
    return per_value[codes]


def _dictionary_value_mask(dv, match, np):
    """``match`` evaluated once per dictionary value, as a code-indexed mask."""
    values = dv.values
    if not values:
        return _NO_NUMPY_PATH
    return np.fromiter((match(v) for v in values), dtype=bool, count=len(values))


def _mask_to_selection(mask, sel, n: int, np, vector):
    """Shared mask -> refined-selection tail (the _refined conventions)."""
    if sel is None:
        kept = np.flatnonzero(mask)
        return None if len(kept) == n else kept
    cand = vector.as_index_array(sel)
    if mask.all():
        return sel
    return cand[mask]


def _dict_selection(column, sel, n: int, fn, k, op: str):
    """Comparison on a dictionary column's codes (numpy or pure Python)."""
    from repro.exec import vector

    if not getattr(column, "is_dictionary", False):
        return _NO_NUMPY_PATH
    dv = vector.dict_vector(column)
    if dv is None:
        # Raw DictColumn storage (the no-numpy leg): integer-compare the
        # code buffer in Python — still beats decoding every row.
        if op != "=" and op != "<>":
            return _NO_NUMPY_PATH
        code = column.index.get(k) if type(k) is str else None
        if code is None:
            return [] if op == "=" else sel
        codes = column.codes
        if op == "=":
            kept = [i for i in _candidates(sel, n) if codes[i] == code]
        else:
            kept = [i for i in _candidates(sel, n) if codes[i] != code]
        return _refined(kept, sel, n)
    np = vector._np
    if op == "=" or op == "<>":
        # One hash lookup replaces every per-row string compare.
        code = dv.index.get(k) if type(k) is str else None
        if code is None:
            if op == "=":
                return []
            return sel  # <> a value the column never holds: all rows pass
        codes = dv.codes
        if sel is None:
            mask = codes[:n] == code if op == "=" else codes[:n] != code
            kept = np.flatnonzero(mask)
            return None if len(kept) == n else kept
        if type(sel) is range and sel.step == 1:
            # Scan batches window into whole-column vectors with a range
            # selection: slice the codes (zero-copy) instead of paying an
            # arange + fancy-index gather per batch.
            window = codes[sel.start : sel.stop]
            mask = window == code if op == "=" else window != code
            if mask.all():
                return sel
            kept = np.flatnonzero(mask)
            return kept + sel.start if sel.start else kept
        cand = vector.as_index_array(sel)
        mask = codes[cand] == code if op == "=" else codes[cand] != code
        if mask.all():
            return sel
        return cand[mask]
    codes = dv.codes[:n] if sel is None else dv.codes[vector.as_index_array(sel)]
    mask = _dict_code_mask(dv, codes, fn, k, op, np)
    if mask is _NO_NUMPY_PATH:
        return _NO_NUMPY_PATH
    return _mask_to_selection(mask, sel, n, np, vector)


def _dict_selection_in(column, sel, n: int, values):
    """IN-list membership over translated codes (``np.isin`` / int set)."""
    from repro.exec import vector

    if not getattr(column, "is_dictionary", False):
        return _NO_NUMPY_PATH
    index = column.index
    codes = [
        c
        for c in (index.get(v) for v in values if type(v) is str)
        if c is not None
    ]
    if not codes:
        return []
    dv = vector.dict_vector(column)
    if dv is None:
        wanted = set(codes)
        col_codes = column.codes
        kept = [i for i in _candidates(sel, n) if col_codes[i] in wanted]
        return _refined(kept, sel, n)
    np = vector._np
    col_codes = (
        dv.codes[:n] if sel is None else dv.codes[vector.as_index_array(sel)]
    )
    return _mask_to_selection(np.isin(col_codes, codes), sel, n, np, vector)


def _dict_selection_vs_dictionary(column, sel, n: int, match):
    """A per-value predicate (LIKE) broadcast through the codes."""
    from repro.exec import vector

    if not getattr(column, "is_dictionary", False):
        return _NO_NUMPY_PATH
    dv = vector.dict_vector(column)
    if dv is None:
        values = column.values
        wanted = {c for c, v in enumerate(values) if match(v)}
        if not wanted:
            return []
        col_codes = column.codes
        kept = [i for i in _candidates(sel, n) if col_codes[i] in wanted]
        return _refined(kept, sel, n)
    np = vector._np
    per_value = _dictionary_value_mask(dv, match, np)
    if per_value is _NO_NUMPY_PATH:
        return []
    col_codes = (
        dv.codes[:n] if sel is None else dv.codes[vector.as_index_array(sel)]
    )
    return _mask_to_selection(per_value[col_codes], sel, n, np, vector)


def _combined_mask(mask_fns, cols: Sequence, n: int):
    """AND of per-conjunct dense masks; _NO_NUMPY_PATH when any declines."""
    combined = None
    for mask_fn in mask_fns:
        mask = mask_fn(cols, n)
        if mask is _NO_NUMPY_PATH:
            return _NO_NUMPY_PATH
        combined = mask if combined is None else combined & mask
    return combined


def compile_predicate_mask(expr: Expr, layout: Mapping[str, int]):
    """``expr`` as a dense boolean-mask evaluator, or None.

    Returns ``(columns, n) -> bool ndarray | None`` when every piece of the
    predicate compiles to a vectorizable mask shape (column-vs-literal /
    column-vs-column comparisons and conjunctions thereof); None when the
    predicate has no fully-vectorized form, so callers check rowids on
    demand (:class:`repro.exec.vector.LazyMask`) instead of paying a
    whole-relation Python pass.  The evaluator
    itself returns None when the columns turn out not to be ndarrays at
    run time.
    """
    pred = compile_predicate_columnar(expr, layout)
    mask_fn = getattr(pred, "_numpy_mask", None)
    if mask_fn is None:
        return None

    def run(cols: Sequence, n: int):
        mask = mask_fn(cols, n)
        return None if mask is _NO_NUMPY_PATH else mask

    return run


#: Sentinel distinguishing "no numpy fast path applies" from a legitimate
#: all-selected result (which is ``None`` / the input selection object).
_NO_NUMPY_PATH = object()


def _numpy_selection(column, sel, n: int, fn, k):
    """Vectorized comparison when the column is a numpy array.

    Returns the refined selection (following the :func:`_refined`
    conventions; refined selections stay ndarrays so downstream gathers
    never leave the array domain), or :data:`_NO_NUMPY_PATH` when the
    caller must use the pure-Python fallback.
    """
    from repro.exec import vector

    np = vector._np
    if np is None or not vector.numpy_enabled():
        return _NO_NUMPY_PATH
    if not isinstance(column, np.ndarray) or column.dtype == object:
        return _NO_NUMPY_PATH
    try:
        if sel is None:
            mask = fn(column[:n], k)
            kept = np.flatnonzero(mask)
            return None if len(kept) == n else kept
        cand = vector.as_index_array(sel)
        mask = fn(column[cand], k)
        if mask.all():
            return sel
        return cand[mask]
    except (TypeError, ValueError):  # incomparable dtype: use the fallback
        return _NO_NUMPY_PATH


def _numpy_selection_pair(ca, cb, sel, n: int, fn):
    """Vectorized column-vs-column comparison (both columns ndarrays).

    Typed ndarray columns cannot hold NULLs, so the mask needs no
    NULL-handling; anything else falls back to the pure-Python loop.
    """
    from repro.exec import vector

    np = vector._np
    if np is None or not vector.numpy_enabled():
        return _NO_NUMPY_PATH
    if not (isinstance(ca, np.ndarray) and isinstance(cb, np.ndarray)):
        return _NO_NUMPY_PATH
    if ca.dtype == object or cb.dtype == object:
        return _NO_NUMPY_PATH
    try:
        if sel is None:
            mask = fn(ca[:n], cb[:n])
            kept = np.flatnonzero(mask)
            return None if len(kept) == n else kept
        cand = vector.as_index_array(sel)
        mask = fn(ca[cand], cb[cand])
        if mask.all():
            return sel
        return cand[mask]
    except (TypeError, ValueError):  # incomparable dtypes: use the fallback
        return _NO_NUMPY_PATH


# ---------------------------------------------------------------------- #
# analysis / rewriting helpers
# ---------------------------------------------------------------------- #


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "AND":
        out: list[Expr] = []
        for arg in expr.args:
            out.extend(split_conjuncts(arg))
        return out
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Expr | None:
    """Inverse of :func:`split_conjuncts`; None for an empty list."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return and_(*conjuncts)


def referenced_columns(expr: Expr) -> set[str]:
    """All column names mentioned anywhere in the expression."""
    out: set[str] = set()
    _collect_columns(expr, out)
    return out


def _collect_columns(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, ColumnRef):
        out.add(expr.name)
    elif isinstance(expr, (Comparison, Arith)):
        _collect_columns(expr.left, out)
        _collect_columns(expr.right, out)
    elif isinstance(expr, BoolOp):
        for arg in expr.args:
            _collect_columns(arg, out)
    elif isinstance(expr, Not):
        _collect_columns(expr.arg, out)
    elif isinstance(expr, (Like, InList, IsNull)):
        _collect_columns(expr.arg, out)


def rename_columns(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Return a copy of ``expr`` with column names substituted via ``mapping``.

    Names absent from the mapping are kept as-is.
    """
    if isinstance(expr, ColumnRef):
        return ColumnRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op, rename_columns(expr.left, mapping), rename_columns(expr.right, mapping)
        )
    if isinstance(expr, Arith):
        return Arith(
            expr.op, rename_columns(expr.left, mapping), rename_columns(expr.right, mapping)
        )
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(rename_columns(a, mapping) for a in expr.args))
    if isinstance(expr, Not):
        return Not(rename_columns(expr.arg, mapping))
    if isinstance(expr, Like):
        return Like(rename_columns(expr.arg, mapping), expr.pattern)
    if isinstance(expr, InList):
        return InList(rename_columns(expr.arg, mapping), expr.values)
    if isinstance(expr, IsNull):
        return IsNull(rename_columns(expr.arg, mapping), expr.negated)
    raise PlanError(f"cannot rename columns in {expr!r}")


def param_slots(expr: Expr) -> set[int]:
    """Fingerprint slots of every :class:`ParamLiteral` under ``expr``."""
    out: set[int] = set()
    _collect_params(expr, out)
    return out


def _collect_params(expr: Expr, out: set[int]) -> None:
    if isinstance(expr, ParamLiteral):
        out.add(expr.slot)
    elif isinstance(expr, (Comparison, Arith)):
        _collect_params(expr.left, out)
        _collect_params(expr.right, out)
    elif isinstance(expr, BoolOp):
        for arg in expr.args:
            _collect_params(arg, out)
    elif isinstance(expr, (Not, Like, InList, IsNull)):
        _collect_params(expr.arg, out)


def substitute_params(expr: Expr, values: Sequence[Any]) -> Expr:
    """Bind a plan template's parameter literals to fresh values.

    Every :class:`ParamLiteral` becomes a plain :class:`Literal` holding
    ``values[slot]``; subtrees without parameters are returned *as the
    same object*, so rebinding shares everything it can with the cached
    template.
    """
    if isinstance(expr, ParamLiteral):
        return Literal(values[expr.slot])
    if isinstance(expr, (Comparison, Arith)):
        left = substitute_params(expr.left, values)
        right = substitute_params(expr.right, values)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(expr.op, left, right)
    if isinstance(expr, BoolOp):
        args = tuple(substitute_params(a, values) for a in expr.args)
        if all(a is b for a, b in zip(args, expr.args)):
            return expr
        return BoolOp(expr.op, args)
    if isinstance(expr, Not):
        arg = substitute_params(expr.arg, values)
        return expr if arg is expr.arg else Not(arg)
    if isinstance(expr, Like):
        arg = substitute_params(expr.arg, values)
        return expr if arg is expr.arg else Like(arg, expr.pattern)
    if isinstance(expr, InList):
        arg = substitute_params(expr.arg, values)
        return expr if arg is expr.arg else InList(arg, expr.values)
    if isinstance(expr, IsNull):
        arg = substitute_params(expr.arg, values)
        return expr if arg is expr.arg else IsNull(arg, expr.negated)
    return expr


def substitute_columns(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace column references by whole expressions (e.g. a constant label).

    Used by the graph-agnostic transformation to splice GRAPH_TABLE output
    columns into the outer query's predicates and projections.
    """
    if isinstance(expr, ColumnRef):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, Arith):
        return Arith(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(substitute_columns(a, mapping) for a in expr.args))
    if isinstance(expr, Not):
        return Not(substitute_columns(expr.arg, mapping))
    if isinstance(expr, Like):
        return Like(substitute_columns(expr.arg, mapping), expr.pattern)
    if isinstance(expr, InList):
        return InList(substitute_columns(expr.arg, mapping), expr.values)
    if isinstance(expr, IsNull):
        return IsNull(substitute_columns(expr.arg, mapping), expr.negated)
    raise PlanError(f"cannot substitute columns in {expr!r}")


def is_equi_join_condition(expr: Expr) -> tuple[str, str] | None:
    """If ``expr`` is ``colA = colB``, return the pair of column names."""
    if (
        isinstance(expr, Comparison)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
    ):
        return (expr.left.name, expr.right.name)
    return None
