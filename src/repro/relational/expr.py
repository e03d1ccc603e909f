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
from typing import TYPE_CHECKING, Any

from repro.errors import PlanError
from repro.exec import vector as _vector

if TYPE_CHECKING:
    from repro.relational.table import Table

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


def _like_shape(pattern: str) -> "tuple[str, str] | None":
    """``(kind, body)`` for a LIKE pattern with no ``_`` and no inner
    ``%``: ``prefix`` (``'x%'``), ``suffix`` (``'%x'``), ``infix``
    (``'%x%'``, also ``'%'``) or ``exact`` (``'x'``); None for every other
    pattern."""
    body = pattern.strip("%")
    if "_" in pattern or "%" in body:
        return None
    leading, trailing = pattern.startswith("%"), pattern.endswith("%")
    if leading and trailing:
        return "infix", body
    if leading:
        return "suffix", body
    return ("prefix" if trailing else "exact"), body


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    """Translate a LIKE pattern into a compiled-regex matcher.

    The shapes of :func:`_like_shape` avoid regex entirely.
    """
    shape = _like_shape(pattern)
    if shape is not None:
        kind, body = shape
        if kind == "prefix":
            return lambda s: s.startswith(body)
        if kind == "suffix":
            return lambda s: s.endswith(body)
        if kind == "infix":
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
# A selection evaluator is a :class:`CompiledPredicate`.  Each common
# shape (column vs literal, column vs column, IN, LIKE, AND) has one
# vectorized body — which is also the dense rowid mask of expansions and
# predefined joins — and one row-wise comprehension over the raw columns.
# Everything else falls back to the row-wise evaluator applied to
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


def compile_expr_columnar(
    expr: Expr, layout: Mapping[str, int]
) -> ColumnarEvaluator:
    """Compile ``expr`` into a column-at-a-time evaluator.

    The returned callable maps ``(columns, selection, length)`` to a dense
    list holding the expression's value per visible row.
    """
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


class CompiledPredicate:
    """A WHERE predicate compiled once for one layout.

    ``vector(columns, window)`` is the shape's one vectorized body: the
    predicate's truth over the rows ``window`` addresses (a slice or an
    index ndarray) as a boolean ndarray, or None when these columns have no
    array form (lists, object arrays, incomparable dtypes) or the shape has
    none for them (a LIKE with ``_`` over a '<U' column).  Shapes that
    never vectorize — OR, NOT, IS NULL, literals, computed operands — have
    none.  ``rows(columns, selection, length)`` is the row-wise fallback:
    the surviving candidates.

    Calling the object refines a selection (a :data:`SelectionEvaluator`);
    :meth:`mask` runs the same body over a whole column prefix — the dense
    rowid mask expansions and predefined joins look rowids up in.
    """

    __slots__ = ("vector", "rows")

    def __init__(self, vector, rows):
        self.vector = vector
        self.rows = rows

    def __call__(self, cols: Sequence, sel, n: int):
        if self.vector is not None and _vector.numpy_enabled():
            # Contiguous candidates (all rows, scan chunks) window the
            # columns as zero-copy slices; anything else gathers.
            if sel is None:
                window = slice(0, n)
            elif type(sel) is range and sel.step == 1:
                window = slice(sel.start, sel.stop)
            else:
                window = _vector.as_index_array(sel)
            keep = self.vector(cols, window)
            if keep is not None:
                if keep.all():
                    return sel
                if type(window) is not slice:
                    return window[keep]
                kept = _vector._np.flatnonzero(keep)
                return kept + window.start if window.start else kept
        kept = self.rows(cols, sel, n)
        return sel if len(kept) == (n if sel is None else len(sel)) else kept

    def mask(self, cols: Sequence, n: int):
        """The predicate over rows ``[0, n)`` as a boolean ndarray; None
        when the columns have no array form or numpy is off."""
        if self.vector is None or not _vector.numpy_enabled():
            return None
        return self.vector(cols, slice(0, n))


def compile_predicate_mask(expr: Expr, layout: Mapping[str, int]):
    """``expr`` as a dense boolean-mask evaluator, or None.

    Returns ``(columns, n) -> bool ndarray | None`` — the
    :meth:`CompiledPredicate.mask` of the object
    :func:`compile_predicate_columnar` returns for the same arguments —
    when the predicate's shape has a vectorized body (comparisons, IN,
    LIKE and conjunctions of those); None otherwise, so callers check
    rowids on demand (:class:`repro.exec.vector.LazyMask`) instead of
    paying a whole-relation Python pass.  The evaluator itself returns None
    when the columns turn out to have no array form.
    """
    pred = compile_predicate_columnar(expr, layout)
    return pred.mask if pred.vector is not None else None


def compile_predicate_columnar(
    expr: Expr, layout: Mapping[str, int]
) -> CompiledPredicate:
    """Compile ``expr`` into a selection-vector refiner (WHERE semantics).

    The returned :class:`CompiledPredicate` maps ``(columns, selection,
    length)`` to the refined selection: the subset of visible row indices
    where the predicate evaluates to TRUE (NULL and FALSE filter out).
    When every visible row passes, the input ``selection`` object itself is
    returned so callers can detect the all-selected fast path with an
    identity check.
    """
    if isinstance(expr, BoolOp) and expr.op == "AND":
        return _conjunction([compile_predicate_columnar(a, layout) for a in expr.args])
    if isinstance(expr, Comparison):
        fn = _COMPARISON_OPS[expr.op]
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return _column_vs_literal(left, right.value, fn, expr.op, layout)
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            # ``=``/``<>`` are symmetric, so the dictionary code compare
            # keyed on the op holds with the operands flipped; order ops
            # only ever use the flipped ``fn``.
            flipped = lambda a, b: fn(b, a)  # noqa: E731
            return _column_vs_literal(right, left.value, flipped, expr.op, layout)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            return _column_vs_column(
                _resolve_layout(left.name, layout),
                _resolve_layout(right.name, layout),
                fn,
            )
    if isinstance(expr, InList) and isinstance(expr.arg, ColumnRef):
        # A '<U' window holds strings only, which equal no other literal.
        strings = tuple(v for v in expr.values if type(v) is str)
        return _one_column(
            _resolve_layout(expr.arg.name, layout),
            frozenset(expr.values).__contains__,
            array_op=_vector.string_test("in", strings),
            codes_of=expr.values,
        )
    if isinstance(expr, Like) and isinstance(expr.arg, ColumnRef):
        shape = _like_shape(expr.pattern)
        return _one_column(
            _resolve_layout(expr.arg.name, layout),
            _like_matcher(expr.pattern),
            array_op=None if shape is None else _vector.string_test(*shape),
        )
    if isinstance(expr, IsNull) and isinstance(expr.arg, ColumnRef):
        return _is_null(_resolve_layout(expr.arg.name, layout), expr.negated)
    if isinstance(expr, Literal):
        return _constant(expr.value is not None and bool(expr.value))
    # Generic fallback: evaluate as a value column, keep the truthy rows
    # (None is falsy, matching WHERE semantics).
    evaluator = compile_expr_columnar(expr, layout)

    def _truthy(cols: Sequence, sel, n: int):
        return [i for i, v in zip(_candidates(sel, n), evaluator(cols, sel, n)) if v]

    return CompiledPredicate(None, _truthy)


def _column_vs_literal(
    ref: ColumnRef,
    k: Any,
    fn: Callable[[Any, Any], Any],
    op: str,
    layout: Mapping[str, int],
) -> CompiledPredicate:
    """column-vs-constant comparison: the hottest filter shape."""
    idx = _resolve_layout(ref.name, layout)
    if k is None:
        # Comparison with NULL is NULL for every row -> nothing passes.
        return _constant(False)
    # '<U' arrays drop trailing NULs: none compares such a literal exactly.
    exact = not (type(k) is str and "\x00" in k)
    return _one_column(
        idx,
        lambda v: fn(v, k),
        array_op=(lambda values: fn(values, k)) if exact else None,
        codes_of=(k,) if op == "=" or op == "<>" else None,
        negate=op == "<>",
    )


def _is_array(column) -> bool:
    """A typed ndarray column (numpy on, no object dtype)."""
    return _vector.is_ndarray(column) and column.dtype != object


def _one_column(
    idx: int,
    test: Callable[[Any], bool],
    array_op=None,
    codes_of: "Sequence | None" = None,
    negate: bool = False,
) -> CompiledPredicate:
    """A predicate on one column: ``test(v)`` for each non-NULL value.

    ``array_op`` is ``test`` over an ndarray window (None: no array form);
    it raises ``TypeError`` or ``ValueError`` for windows it cannot test
    exactly, and the row body runs instead.  Typed and '<U' columns run it
    over the window.  Dictionary columns never touch their strings
    row-wise.  With ``codes_of``, a row passes when its code is one of
    those values' codes (``negate``: none of them) — ``=``/``<>`` compare
    codes against the one looked-up literal code, and a literal missing
    from the dictionary is constant-false (``<>``: constant-true;
    dictionary columns hold no NULLs).  Without it, ``array_op`` runs once
    over the dictionary's '<U' values (:func:`repro.exec.vector.
    dictionary_strings`) and broadcasts to rows through the codes; only
    where that declines (a NUL or over-long value, a LIKE with ``_``) does
    ``test`` run once per dictionary value.
    """
    if codes_of is not None:
        codes_of = [v for v in codes_of if type(v) is str]

    def per_value(dv):
        if array_op is not None:
            strings = _vector.dictionary_strings(dv)
            if strings is not None:
                try:
                    return array_op(strings)
                except (TypeError, ValueError):  # fall through to the values
                    pass
        values = dv.values
        try:
            return _vector._np.fromiter(map(test, values), dtype=bool, count=len(values))
        except TypeError:  # incomparable literal: keep exact row-path errors
            return None

    def vector(cols: Sequence, window):
        column = cols[idx]
        dv = _vector.dict_vector(column)
        if dv is not None:
            codes = dv.codes[window]
            if codes_of is None:
                passes = per_value(dv)
                return None if passes is None else passes[codes]
            found = [c for c in map(dv.index.get, codes_of) if c is not None]
            if len(found) == 1:
                return codes != found[0] if negate else codes == found[0]
            keep = _vector._np.isin(codes, found)
            return ~keep if negate else keep
        if array_op is None or not _is_array(column):
            return None
        try:
            return array_op(column[window])
        except (TypeError, ValueError):  # incomparable dtype: use the rows
            return None

    def rows(cols: Sequence, sel, n: int):
        column = cols[idx]
        candidates = _candidates(sel, n)
        if getattr(column, "is_dictionary", False):
            # Raw dictionary storage (numpy off): decide each distinct
            # value once, then test rows by code.
            try:
                wanted = {c for c, v in enumerate(column.values) if test(v)}
            except TypeError:  # incomparable literal: fail as the rows do
                pass
            else:
                codes = column.codes
                return [i for i in candidates if codes[i] in wanted]
        return [i for i in candidates if (v := column[i]) is not None and test(v)]

    return CompiledPredicate(vector, rows)


def _column_vs_column(
    li: int, ri: int, fn: Callable[[Any, Any], Any]
) -> CompiledPredicate:
    """Two columns compared row by row.  Typed ndarray columns cannot hold
    NULLs, so their body needs no NULL handling."""

    def vector(cols: Sequence, window):
        ca, cb = cols[li], cols[ri]
        if not (_is_array(ca) and _is_array(cb)):
            return None
        try:
            return fn(ca[window], cb[window])
        except (TypeError, ValueError):  # incomparable dtypes: use the rows
            return None

    def rows(cols: Sequence, sel, n: int):
        ca, cb = cols[li], cols[ri]
        return [
            i
            for i in _candidates(sel, n)
            if (a := ca[i]) is not None and (b := cb[i]) is not None and fn(a, b)
        ]

    return CompiledPredicate(vector, rows)


def _conjunction(parts: list[CompiledPredicate]) -> CompiledPredicate:
    """AND.  When every conjunct has a vector body, their masks AND over one
    window and the survivors materialize once.  Otherwise — or when a body
    declines at run time — each conjunct refines the survivors of the
    previous one, so later (often more expensive) conjuncts only see
    already-filtered rows."""
    bodies = [part.vector for part in parts]

    def vector(cols: Sequence, window):
        keep = None
        for body in bodies:
            mask = body(cols, window)
            if mask is None:
                return None
            keep = mask if keep is None else keep & mask
        return keep

    def rows(cols: Sequence, sel, n: int):
        for part in parts:
            sel = part(cols, sel, n)
            if sel is not None and len(sel) == 0:
                break
        return _candidates(sel, n)

    return CompiledPredicate(None if None in bodies else vector, rows)


def _is_null(idx: int, negated: bool) -> CompiledPredicate:
    def rows(cols: Sequence, sel, n: int):
        column = cols[idx]
        candidates = _candidates(sel, n)
        if getattr(column, "is_dictionary", False):
            # Dictionary columns hold no NULLs (a NULL demotes the whole
            # column to a list before any view is built).
            return candidates if negated else []
        if negated:
            return [i for i in candidates if column[i] is not None]
        return [i for i in candidates if column[i] is None]

    return CompiledPredicate(None, rows)


def _constant(passes: bool) -> CompiledPredicate:
    if passes:
        return CompiledPredicate(None, lambda cols, sel, n: _candidates(sel, n))
    return CompiledPredicate(None, lambda cols, sel, n: [])


# ---------------------------------------------------------------------- #
# predicates over the rowids of a table
# ---------------------------------------------------------------------- #


def rowid_predicate(table: "Table", predicate: Expr) -> Callable[[int], bool]:
    """Compile ``predicate`` into a check over a rowid of ``table``.

    Column references may be bare attribute names or qualified
    (``var.attr``); only the tail is resolved against the table schema.
    The reference matcher, the lazy masks and the predefined joins' row
    bodies check rowids through it.
    """
    names = predicate_columns(predicate)
    arrays = [table.column(name.rsplit(".", 1)[-1]) for name in names]
    pred = compile_predicate(predicate, {name: i for i, name in enumerate(names)})
    if len(arrays) == 1:
        only = arrays[0]
        return lambda rowid: pred((only[rowid],))
    return lambda rowid: pred(tuple(a[rowid] for a in arrays))


def rowid_mask(table: "Table", predicate: Expr, num_rows: int | None = None):
    """``predicate`` over the rowids of ``table`` as a mask: ``mask[rowids]``
    is the predicate's WHERE-truth (NULL -> False) per rowid.

    Expansions and predefined joins filter whole batches with one lookup
    into this mask (:func:`repro.exec.vector.passing`) instead of a
    per-rowid Python call.  Predicates with a vectorized body
    (:func:`compile_predicate_mask` decides *structurally*) evaluate once
    over the base table into a dense boolean ndarray: comparisons, IN,
    STARTS WITH and LIKE without ``_`` or an inner ``%`` over typed, '<U'
    and dictionary columns, and conjunctions of those.  Everything else —
    a LIKE the array tests cannot express over a list column, any
    predicate over a NULL-bearing column, OR, NOT, IS NULL, or numpy
    disabled — becomes a :class:`~repro.exec.vector.LazyMask` over
    :func:`rowid_predicate`, so a whole-table Python pass is never paid:
    only rowids a traversal reaches are checked, each once.  ``num_rows``
    is the pinned extent of ``table`` (default: the live row count); masks
    cover rowids below it.
    """
    length = table.num_rows if num_rows is None else num_rows
    if _vector.numpy_enabled():
        names = predicate_columns(predicate)
        mask_fn = compile_predicate_mask(
            predicate, {name: i for i, name in enumerate(names)}
        )
        if mask_fn is not None:
            columns = [
                table.vector(name.rsplit(".", 1)[-1], min_rows=length)
                for name in names
            ]
            mask = mask_fn(columns, length)
            if mask is not None:
                return mask
    return _vector.LazyMask.per_rowid(rowid_predicate(table, predicate), length)


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


def predicate_columns(expr: Expr) -> tuple[str, ...]:
    """``sorted(referenced_columns(expr))`` — the column layout a rowid
    predicate compiles against — memoized on ``expr``.

    A plan's predicates are immutable, so the walk runs once per plan
    rather than once per execution; :func:`substitute_params` hands the
    memo to the rebound copy, because binding changes literal values,
    never columns.
    """
    names = expr.__dict__.get("_columns")
    if names is None:
        names = tuple(sorted(referenced_columns(expr)))
        object.__setattr__(expr, "_columns", names)
    return names


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
    template.  The template's :func:`predicate_columns` memo carries over.
    """
    bound = _substitute_params(expr, values)
    names = expr.__dict__.get("_columns")
    if names is not None and bound is not expr:
        object.__setattr__(bound, "_columns", names)
    return bound


def _substitute_params(expr: Expr, values: Sequence[Any]) -> Expr:
    if isinstance(expr, ParamLiteral):
        return Literal(values[expr.slot])
    if isinstance(expr, (Comparison, Arith)):
        left = _substitute_params(expr.left, values)
        right = _substitute_params(expr.right, values)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(expr.op, left, right)
    if isinstance(expr, BoolOp):
        args = tuple(_substitute_params(a, values) for a in expr.args)
        if all(a is b for a, b in zip(args, expr.args)):
            return expr
        return BoolOp(expr.op, args)
    if isinstance(expr, Not):
        arg = _substitute_params(expr.arg, values)
        return expr if arg is expr.arg else Not(arg)
    if isinstance(expr, Like):
        arg = _substitute_params(expr.arg, values)
        return expr if arg is expr.arg else Like(arg, expr.pattern)
    if isinstance(expr, InList):
        arg = _substitute_params(expr.arg, values)
        return expr if arg is expr.arg else InList(arg, expr.values)
    if isinstance(expr, IsNull):
        arg = _substitute_params(expr.arg, values)
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
