"""Property-based tests for the expression layer (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expr import (
    Arith,
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    and_,
    compile_expr,
    compile_predicate,
    conjoin,
    referenced_columns,
    rename_columns,
    split_conjuncts,
    substitute_columns,
)

COLUMNS = ["t.a", "t.b", "t.c"]
LAYOUT = {name: i for i, name in enumerate(COLUMNS)}


@st.composite
def exprs(draw, depth: int = 0):
    if depth >= 3:
        return draw(
            st.one_of(
                st.sampled_from([ColumnRef(c) for c in COLUMNS]),
                st.integers(-5, 5).map(Literal),
            )
        )
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return ColumnRef(draw(st.sampled_from(COLUMNS)))
    if choice == 1:
        return Literal(draw(st.integers(-5, 5)))
    if choice == 2:
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return Comparison(op, draw(exprs(depth + 1)), draw(exprs(depth + 1)))
    if choice == 3:
        op = draw(st.sampled_from(["AND", "OR"]))
        return BoolOp(op, (draw(exprs(depth + 1)), draw(exprs(depth + 1))))
    if choice == 4:
        return Not(draw(exprs(depth + 1)))
    if choice == 5:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return Arith(op, draw(exprs(depth + 1)), draw(exprs(depth + 1)))
    return InList(
        ColumnRef(draw(st.sampled_from(COLUMNS))),
        tuple(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))),
    )


ROWS = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.integers(-5, 5)),
)


@settings(max_examples=200, deadline=None)
@given(exprs(), ROWS)
def test_rename_identity_preserves_semantics(expr, row):
    renamed = rename_columns(expr, {c: c for c in COLUMNS})
    assert compile_expr(expr, LAYOUT)(row) == compile_expr(renamed, LAYOUT)(row)


@settings(max_examples=200, deadline=None)
@given(exprs(), ROWS)
def test_rename_roundtrip(expr, row):
    fwd = {"t.a": "x.a", "t.b": "x.b", "t.c": "x.c"}
    back = {v: k for k, v in fwd.items()}
    roundtripped = rename_columns(rename_columns(expr, fwd), back)
    assert str(roundtripped) == str(expr)
    assert compile_expr(expr, LAYOUT)(row) == compile_expr(roundtripped, LAYOUT)(row)


@settings(max_examples=200, deadline=None)
@given(exprs(), ROWS)
def test_substitute_identity(expr, row):
    substituted = substitute_columns(expr, {c: ColumnRef(c) for c in COLUMNS})
    assert compile_expr(expr, LAYOUT)(row) == compile_expr(substituted, LAYOUT)(row)


@settings(max_examples=200, deadline=None)
@given(st.lists(exprs(), min_size=1, max_size=4), ROWS)
def test_split_conjoin_roundtrip(conjuncts, row):
    combined = conjoin(conjuncts)
    assert combined is not None
    parts = split_conjuncts(combined)
    # Evaluating the AND of the parts equals evaluating the original AND
    # under predicate semantics (NULL collapses to False).
    lhs = compile_predicate(combined, LAYOUT)(row)
    rhs = all(compile_predicate(p, LAYOUT)(row) for p in parts)
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_referenced_columns_subset(expr):
    assert referenced_columns(expr) <= set(COLUMNS)


@settings(max_examples=100, deadline=None)
@given(exprs(), exprs(), ROWS)
def test_and_flattening_semantics(a, b, row):
    naive = BoolOp("AND", (a, b))
    flat = and_(a, b)
    assert compile_predicate(naive, LAYOUT)(row) == compile_predicate(flat, LAYOUT)(row)


def test_like_shapes():
    layout = {"s": 0}
    assert compile_predicate(Like(ColumnRef("s"), "ab%"), layout)(("abc",))
    assert compile_predicate(Like(ColumnRef("s"), "%bc"), layout)(("abc",))
    assert compile_predicate(Like(ColumnRef("s"), "%b%"), layout)(("abc",))
    assert compile_predicate(Like(ColumnRef("s"), "a_c"), layout)(("abc",))
    assert not compile_predicate(Like(ColumnRef("s"), "a_c"), layout)(("abdc",))
    assert compile_predicate(Like(ColumnRef("s"), "abc"), layout)(("abc",))


def test_null_semantics():
    layout = {"x": 0}
    ref = ColumnRef("x")
    assert compile_expr(Comparison("=", ref, Literal(1)), layout)((None,)) is None
    assert compile_predicate(Comparison("=", ref, Literal(1)), layout)((None,)) is False
    assert compile_expr(IsNull(ref), layout)((None,)) is True
    assert compile_expr(IsNull(ref, negated=True), layout)((None,)) is False
    # AND short-circuits on False even with NULLs present.
    pred = BoolOp("AND", (Comparison("=", ref, Literal(1)), Literal(False)))
    assert compile_expr(pred, layout)((None,)) is False


def test_columnar_compile_cache_distinguishes_equal_hashing_literals():
    # Literal(True) == Literal(1) == Literal(1.0) under Python equality, yet
    # each evaluator has to emit its own literal's exact value and type
    # (regression test).
    from repro.relational.expr import compile_expr_columnar

    for value in (True, 1, 1.0):
        ev = compile_expr_columnar(Literal(value), {})
        out = ev([], None, 2)
        assert out == [value, value]
        assert all(type(v) is type(value) for v in out)


# --------------------------------------------------------------------- #
# rowid masks: the vectorized shape of a pushed-down predicate
# --------------------------------------------------------------------- #

_WORDS = ["", "a", "ab", "abc", "b", "ba", "Ab", "%", "a_c"]


_OPS = ["=", "<>", "<", "<=", ">", ">="]


@st.composite
def table_predicates(draw, depth: int = 0):
    """WHERE-style predicates over the mask table below: a typed INT column
    (``a``), a NULL-bearing one (``b``), a dictionary STRING column (``s``)
    and a NULL-bearing one (``n``) — every column flavour a mask can meet.
    Comparisons put the column on either side of a literal, or compare two
    columns of one type."""
    choice = draw(st.integers(0, 6 if depth >= 3 else 9))
    if choice == 0:
        op = draw(st.sampled_from(_OPS))
        column = draw(st.sampled_from("ab"))
        return Comparison(op, ColumnRef(f"v.{column}"), Literal(draw(st.integers(-3, 3))))
    if choice == 1:
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        column = draw(st.sampled_from("sn"))
        return Comparison(op, ColumnRef(column), Literal(draw(st.sampled_from(_WORDS))))
    if choice == 2:
        pattern = "".join(draw(st.lists(st.sampled_from("ab%_"), max_size=4)))
        return Like(ColumnRef(draw(st.sampled_from("sn"))), pattern)
    if choice == 3:
        column = draw(st.sampled_from("absn"))
        domain = st.integers(-3, 3) if column in "ab" else st.sampled_from(_WORDS)
        return InList(
            ColumnRef(column), tuple(draw(st.lists(domain, min_size=1, max_size=3)))
        )
    if choice == 4:
        return IsNull(ColumnRef(draw(st.sampled_from("absn"))), draw(st.booleans()))
    if choice == 5:
        pair = draw(st.sampled_from(["ab", "sn"]))
        left, right = draw(st.sampled_from(pair)), draw(st.sampled_from(pair))
        return Comparison(draw(st.sampled_from(_OPS)), ColumnRef(left), ColumnRef(right))
    if choice == 6:
        column = draw(st.sampled_from("absn"))
        domain = st.integers(-3, 3) if column in "ab" else st.sampled_from(_WORDS)
        return Comparison(
            draw(st.sampled_from(_OPS)), Literal(draw(domain)), ColumnRef(column)
        )
    if choice == 7:
        return Not(draw(table_predicates(depth + 1)))
    if choice == 8:
        return and_(*draw(st.lists(table_predicates(depth + 1), min_size=2, max_size=3)))
    op = draw(st.sampled_from(["AND", "OR"]))
    return BoolOp(
        op, (draw(table_predicates(depth + 1)), draw(table_predicates(depth + 1)))
    )


MASK_ROWS = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.one_of(st.none(), st.integers(-3, 3)),
        st.sampled_from(_WORDS),
        st.one_of(st.none(), st.sampled_from(_WORDS)),
    ),
    min_size=1,
    max_size=12,
)


def _mask_table(rows):
    from repro.relational.schema import Column, TableSchema
    from repro.relational.table import Table
    from repro.relational.types import DataType

    table = Table(
        TableSchema(
            "v",
            [
                Column("a", DataType.INT),
                Column("b", DataType.INT),
                Column("s", DataType.STRING),
                Column("n", DataType.STRING),
            ],
        )
    )
    table.extend(rows, validate=False)
    return table


@settings(max_examples=150, deadline=None)
@given(table_predicates(), MASK_ROWS, st.data(), st.booleans())
def test_rowid_mask_matches_row_predicate(predicate, rows, data, use_numpy):
    """Whatever shape the mask takes (dense ndarray, lazy, pure Python), a
    lookup answers as the compiled row predicate does — on repeated and
    duplicate rowids too, which the lazy mask serves from its memo."""
    from repro.exec import numpy_available, set_numpy_enabled
    from repro.exec.vector import passing
    from repro.relational.expr import rowid_mask, rowid_predicate

    table = _mask_table(rows)
    lookups = st.lists(st.integers(0, len(rows) - 1), max_size=20)
    try:
        set_numpy_enabled(use_numpy and numpy_available())
        check = rowid_predicate(table, predicate)
        mask = rowid_mask(table, predicate)
        for _ in range(3):
            rowids = data.draw(lookups)
            assert [bool(v) for v in mask[rowids]] == [check(r) for r in rowids]
            kept = passing(mask, rowids)
            expected = [j for j, r in enumerate(rowids) if check(r)]
            if kept is None:
                assert len(expected) == len(rowids)
            else:
                assert [int(j) for j in kept] == expected
    finally:
        set_numpy_enabled(None)


SELECTION_FORMS = ["none", "range", "offset", "list", "ndarray", "empty"]


@settings(max_examples=400, deadline=None)
@given(
    table_predicates(),
    MASK_ROWS,
    st.sampled_from(["dict", "list"]),
    st.sampled_from(SELECTION_FORMS),
    st.data(),
    st.booleans(),
)
def test_selection_refiner_matches_row_predicate(
    predicate, rows, storage, form, data, use_numpy
):
    """The columnar refiner keeps exactly the candidates the row predicate
    passes, for every selection form, storage backend and numpy setting —
    and hands back the input selection itself when every candidate does."""
    from repro.exec import numpy_available, set_numpy_enabled
    from repro.relational.column import set_storage_backend
    from repro.relational.expr import compile_predicate_columnar

    n = len(rows)
    numpy_on = use_numpy and numpy_available()
    if form == "none":
        sel = None
    elif form == "range":
        sel = range(n)
    elif form == "offset":
        lo = data.draw(st.integers(0, n))
        sel = range(lo, data.draw(st.integers(lo, n)))
    elif form == "empty":
        sel = []
    else:
        sel = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        if form == "ndarray" and numpy_on:
            import numpy as np

            sel = np.asarray(sel, dtype=np.intp)
    try:
        set_storage_backend(storage)
        set_numpy_enabled(numpy_on)
        table = _mask_table(rows)
        names = table.schema.column_names
        layout = {name: i for i, c in enumerate(names) for name in (c, f"v.{c}")}
        check = compile_predicate(predicate, layout)
        candidates = list(range(n) if sel is None else sel)
        expected = [i for i in candidates if check(rows[i])]
        refine = compile_predicate_columnar(predicate, layout)
        got = refine([table.vector(c) for c in names], sel, n)
    finally:
        set_numpy_enabled(None)
        set_storage_backend(None)
    if sel is None and len(expected) == n:
        assert got is None
        return
    assert got is not None
    assert [int(i) for i in got] == expected
    if expected and len(expected) == len(candidates):
        assert got is sel
