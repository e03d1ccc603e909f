"""The ordering kernel and the two operators built on it.

One definition of ``ORDER BY`` — ``None`` first, NaN after every value,
mixed directions, stable by arrival — checked against the row protocol's
``sorted`` cascade for every column representation the engine flows
(plain lists, typed buffers, ndarrays, dictionary vectors), every batch
split and every ``LIMIT``; then the equivalences the operators claim:
``TopKOp`` == ``LimitOp(SortOp)``, parallel == serial, spill armed ==
disarmed, columnar == row protocol on the LDBC suites; and the plan shape:
``ORDER BY … LIMIT`` is a ``TOPK`` whether or not the SELECT list keeps
the sort key.

The file runs unchanged on the zero-deps (no numpy), ``typed`` and ``list``
legs: array representations degrade to what those legs flow.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import execute_plan, ordering
from repro.exec.spill import SpillConfig
from repro.exec.vector import ColumnarBatch, DictVector, vector_view
from repro.graph.index import build_graph_index
from repro.relational import lowering, physical
from repro.relational.column import DictColumn
from repro.relational.expr import Arith, col, lit
from repro.relational.physical import (
    LimitOp,
    PhysicalOperator,
    SortOp,
    TopKOp,
    _nan_total_key,
    _null_safe_key,
)
from repro.systems import make_system
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc.queries import ic_queries, qc_queries, qr_queries

NAN = float("nan")


# --------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------- #

_DOMAINS = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 2.25, 1e9]),
    "str": st.sampled_from(["", "a", "ab", "b", "ba", "é"]),
}


def encode(values: list, kind: str, how: str):
    """``values`` in one of the representations a batch column can have."""
    clean = None not in values
    if how == "typed" and clean and kind in ("int", "float"):
        return array("q" if kind == "int" else "d", values)
    if how == "vector" and clean:
        return vector_view(list(values))  # an ndarray under numpy, else the list
    if how == "dict" and clean and kind == "str":
        column = DictColumn()
        column.extend(values)
        return vector_view(column)  # a DictVector under numpy, else the column
    return list(values)


@st.composite
def keyed_tables(draw, max_rows: int = 40):
    """1–3 sort-key columns with heavy ties, their directions, a batch split."""
    n = draw(st.integers(0, max_rows))
    columns, encoded, ascs = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(_DOMAINS)))
        domain = _DOMAINS[kind]
        if draw(st.booleans()):
            domain = st.one_of(st.none(), domain)
        values = draw(st.lists(domain, min_size=n, max_size=n))
        how = draw(st.sampled_from(["list", "typed", "vector", "dict"]))
        columns.append(values)
        encoded.append(encode(values, kind, how))
        ascs.append(draw(st.booleans()))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return columns, encoded, ascs, [0, *cuts, n]


def reference_order(columns: list[list], ascs: list[bool]) -> list[int]:
    """The row protocol's order: stable sorts, least significant key first."""
    order = list(range(len(columns[0])))
    for values, asc in reversed(list(zip(columns, ascs))):
        order.sort(key=lambda i: _null_safe_key(values[i]), reverse=not asc)
    return order


def limits(n: int) -> list[int]:
    return sorted({0, 1, max(n - 1, 0), n, n + 5})


# --------------------------------------------------------------------- #
# the kernel
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(keyed_tables())
def test_kernel_order_is_the_stable_null_safe_sort(table):
    columns, encoded, ascs, _ = table
    keys = list(zip(encoded, ascs))
    expected = reference_order(columns, ascs)
    assert list(ordering.argsort(keys)) == expected
    for k in limits(len(expected)):
        assert list(ordering.top_k(keys, k)) == expected[:k]


@settings(max_examples=100, deadline=None)
@given(keyed_tables(), st.data())
def test_admit_keeps_exactly_the_rows_that_can_precede_the_bound(table, data):
    columns, encoded, ascs, _ = table
    values, column, asc = columns[0], encoded[0], ascs[0]
    if not values:
        return
    bound = data.draw(st.sampled_from(values))
    strict = data.draw(st.booleans())
    edge = _null_safe_key(bound)
    wanted = []
    for j, value in enumerate(values):
        key = _null_safe_key(value)
        if (key < edge if asc else key > edge) or (key == edge and not strict):
            wanted.append(j)
    kept = ordering.admit(column, asc, bound, strict)
    if kept is None:  # nothing ruled out, or a NULL bound (never compared)
        assert bound is None or len(wanted) == len(values)
    else:
        assert list(kept) == wanted


@pytest.mark.parametrize("how", ["list", "vector"])
def test_nan_keys_take_the_external_sorts_position(how):
    values = [2.0, NAN, -1.0, NAN, 7.5, 2.0]
    column = encode(values, "float", how)
    total = sorted(range(len(values)), key=lambda i: (_nan_total_key(values[i]), i))
    assert [values[i] for i in total[:4]] == [-1.0, 2.0, 2.0, 7.5]
    assert list(ordering.argsort([(column, True)])) == total
    # Descending reverses the key order, never the arrival order of ties.
    assert list(ordering.argsort([(column, False)])) == [1, 3, 4, 0, 5, 2]
    assert list(ordering.top_k([(column, False)], 3)) == [1, 3, 4]
    with_null = [None, NAN, 1.0]
    assert list(ordering.argsort([(with_null, True)])) == [0, 2, 1]
    assert list(ordering.argsort([(with_null, False)])) == [1, 2, 0]


def test_keys_python_cannot_order_raise_the_sorts_type_error():
    mixed = [1, "a", 2]
    with pytest.raises(TypeError, match="not supported between"):
        sorted(mixed, key=_null_safe_key)
    with pytest.raises(TypeError, match="not supported between"):
        ordering.argsort([(mixed, True)])
    feed = Feed(["c0"], [ColumnarBatch([mixed], 3)])
    for columnar in (True, False):
        with pytest.raises(TypeError, match="not supported between"):
            execute_plan(SortOp(feed, [(col("c0"), True)]), columnar=columnar)


def test_dictionary_is_ranked_once_per_watermark():
    column = DictColumn()
    column.extend(["pear", "apple", "fig", "apple"])
    view = vector_view(column)
    if not isinstance(view, DictVector):
        pytest.skip("dictionary vectors need numpy")
    assert list(ordering.argsort([(view, True)])) == [1, 3, 2, 0]
    watermark, table = column.ranks[0]
    assert watermark == 3 and table.tolist() == [2, 0, 1]
    # Slices and gathers of the view share the memo: no second sort.
    assert list(ordering.argsort([(view[1:], False)])) == [1, 0, 2]
    assert column.ranks[0][1] is table
    # A new value moves the watermark; old snapshots still rank correctly.
    column.append("banana")
    assert list(ordering.argsort([(view, True)])) == [1, 3, 2, 0]
    assert column.ranks[0][0] == 4
    assert list(ordering.argsort([(vector_view(column), True)])) == [1, 3, 4, 2, 0]


# --------------------------------------------------------------------- #
# the operators
# --------------------------------------------------------------------- #


class Feed(PhysicalOperator):
    """A leaf that replays prepared columnar batches under both protocols."""

    def __init__(self, names: list[str], batches: list[ColumnarBatch]):
        self.output_columns = names
        self.fed = batches

    def columnar_batches(self, ctx):
        yield from self.fed

    def batches(self, ctx):
        for cb in self.fed:
            yield cb.to_rows()


def feed_of(encoded: list, bounds: list[int], select: bool) -> Feed:
    """The columns cut at ``bounds``: sliced batches, or — ``select`` — the
    whole columns under a range selection, as a zero-copy scan emits."""
    n = bounds[-1]
    ids = list(range(n))
    batches = []
    for start, stop in zip(bounds, bounds[1:]):
        if select:
            batches.append(ColumnarBatch([*encoded, ids], n, range(start, stop)))
        else:
            columns = [c[start:stop] for c in encoded] + [ids[start:stop]]
            batches.append(ColumnarBatch(columns, stop - start))
    names = [f"c{i}" for i in range(len(encoded))] + ["id"]
    return Feed(names, batches)


@settings(max_examples=120, deadline=None)
@given(keyed_tables(), st.booleans())
def test_topk_is_limit_over_sort_row_for_row(table, select):
    columns, encoded, ascs, bounds = table
    feed = feed_of(encoded, bounds, select)
    keys = [(col(f"c{i}"), asc) for i, asc in enumerate(ascs)]
    order = reference_order(columns, ascs)
    rows = list(zip(*columns, range(len(order))))
    for k in limits(len(order)):
        expected = [rows[i] for i in order[:k]]
        for plan in (TopKOp(feed, keys, k), LimitOp(SortOp(feed, keys), k)):
            for columnar in (True, False):
                assert execute_plan(plan, columnar=columnar).rows == expected


def test_computed_keys_ride_along_and_are_stripped():
    feed = feed_of([[3, 1, 2, 1, 3]], [0, 2, 5], select=False)
    keys = [(Arith("*", col("c0"), lit(-1)), True), (col("id"), False)]
    assert execute_plan(SortOp(feed, keys)).rows == [(3, 4), (3, 0), (2, 2), (1, 3), (1, 1)]
    top = execute_plan(TopKOp(feed, keys, 3))
    assert top.rows == [(3, 4), (3, 0), (2, 2)] and top.columns == ["c0", "id"]


def test_topk_buffers_k_rows_whatever_the_input():
    n = 5000
    feed = feed_of([[(i * 7919) % n for i in range(n)]], list(range(0, n + 1, 500)), False)
    result = execute_plan(TopKOp(feed, [(col("c0"), False)], 10))
    assert [row[0] for row in result.rows] == list(range(n - 1, n - 11, -1))
    assert result.peak_buffered_rows == 20  # k held + k in the result buffer
    assert execute_plan(TopKOp(feed, [(col("c0"), True)], 10), memory_budget_rows=10)


# --------------------------------------------------------------------- #
# LDBC: protocols, parallelism, spill, plan shape
# --------------------------------------------------------------------- #

SYSTEMS = ["relgo", "duckdb", "graindb", "umbra", "kuzu"]

#: ``ORDER BY <date> DESC LIMIT n`` has no single answer when dates tie at
#: the cut; a second key makes it one (benchmarks/e2e/mix.py does the same).
_TIE_BREAKS = (
    ("ORDER BY cdate DESC LIMIT", "ORDER BY cdate DESC, content ASC LIMIT"),
    ("ORDER BY ldate DESC LIMIT", "ORDER BY ldate DESC, fn ASC LIMIT"),
)


def ldbc_statements() -> dict[str, str]:
    texts = {**ic_queries(), **qr_queries(), **qc_queries()}
    for old, new in _TIE_BREAKS:
        texts = {name: sql.replace(old, new) for name, sql in texts.items()}
    return texts


@pytest.fixture(scope="module")
def ldbc():
    catalog, mapping = generate_ldbc(LdbcParams.scaled(0.3, seed=5))
    catalog.register_graph_index(build_graph_index(mapping))
    return catalog


def test_columnar_equals_row_protocol_on_every_statement(ldbc):
    system = make_system("relgo", ldbc, "snb")
    for name, sql in ldbc_statements().items():
        plan = system.optimize(sql).physical
        columnar = execute_plan(plan, columnar=True)
        row = execute_plan(plan, columnar=False)
        if "ORDER BY" in sql:
            assert columnar.rows == row.rows, name
        else:
            assert columnar.sorted_rows() == row.sorted_rows(), name


def ordered_plans(ldbc):
    system = make_system("relgo", ldbc, "snb")
    for name, sql in ldbc_statements().items():
        if "ORDER BY" in sql:
            yield name, system.optimize(sql).physical


def test_parallel_order_by_equals_serial(ldbc):
    for name, plan in ordered_plans(ldbc):
        serial = execute_plan(plan, batch_size=64)
        parallel = execute_plan(plan, batch_size=64, parallelism=4)
        assert parallel.rows == serial.rows, name


def test_spill_armed_order_by_equals_disarmed(ldbc):
    for name, plan in ordered_plans(ldbc):
        disarmed = execute_plan(plan, spill=False)
        under = execute_plan(plan, spill=SpillConfig(threshold_rows=1_000_000))
        over = execute_plan(plan, spill=SpillConfig(threshold_rows=8))
        assert under.rows == disarmed.rows, name
        assert over.rows == disarmed.rows, name
        assert under.peak_buffered_rows == disarmed.peak_buffered_rows, name


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_order_by_limit_is_a_topk_on_every_system(ldbc, system_name):
    system = make_system(system_name, ldbc, "snb")
    seen = 0
    for name, sql in ldbc_statements().items():
        if not re.search(r"ORDER BY .* LIMIT", sql):
            continue
        seen += 1
        explained = system.optimize(sql).explain()
        assert "TOPK" in explained and "SORT" not in explained, (name, explained)
    assert seen == 11  # IC2, IC4, IC5-*, IC6-*, IC7, IC8, IC9-*, IC12


def test_a_dropped_sort_key_still_limits_beneath_the_projection(ldbc):
    system = make_system("relgo", ldbc, "snb")
    body = """FROM GRAPH_TABLE (snb MATCH (p:person)-[:knows]->(f:person)
              COLUMNS (f.first_name AS fn, f.id AS fid)) g ORDER BY fid DESC LIMIT 5"""
    dropped = system.optimize(f"SELECT fn {body}")
    labels = [line.split()[0] for line in dropped.explain().splitlines()]
    assert labels[:2] == ["PROJECTION", "TOPK"] and "LIMIT" not in labels
    kept = system.optimize(f"SELECT fn, fid {body}")
    expected = [row[:1] for row in execute_plan(kept.physical).rows]
    result = execute_plan(dropped.physical)
    assert result.rows == expected
    assert result.peak_buffered_rows == 10  # 5 held + 5 in the result buffer
    # DISTINCT drops rows between the sort and the limit: no pushdown.
    distinct = system.optimize(f"SELECT DISTINCT fn {body}")
    labels = [line.split()[0] for line in distinct.explain().splitlines()]
    assert labels[:4] == ["LIMIT", "DISTINCT", "PROJECTION", "SORT"]


# --------------------------------------------------------------------- #
# architecture guard
# --------------------------------------------------------------------- #


def _names(function) -> set[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_order_by_has_one_columnar_path(ldbc):
    """ORDER BY has one columnar path, and it is the kernel's: no heap, no
    comparison objects, no row round trip outside the spill branch, no numpy
    in the operator modules, no LIMIT left above a projection above a sort."""
    full_sort = SortOp._stream_columnar
    for function in (
        full_sort,
        TopKOp._stream_columnar,
        TopKOp._collect_columnar,
        TopKOp._best,
        *(f for f in vars(physical._SortKeys).values() if inspect.isfunction(f)),
    ):
        names = _names(function)
        assert not names & {"heapq", "_Descending", "nsmallest", "nlargest"}, function
        if function is not full_sort:
            assert not names & {"to_rows", "from_rows"}, function
    # The one row boundary: the spill-armed branch of the full sort, which
    # ends (``return``) before the in-memory path concatenates its batches.
    source = inspect.getsource(full_sort)
    armed, in_memory = source.index("if limit is not None"), source.index(".concat(")
    crossings = [m.start() for m in re.finditer("to_rows|from_rows", source)]
    assert len(crossings) == 2 and all(armed < at < in_memory for at in crossings)
    for module in (physical, lowering):
        text = Path(module.__file__).read_text()
        assert not re.search(r"^\s*(import|from) numpy|\b_np\b", text, re.M), module
    system = make_system("relgo", ldbc, "snb")
    for sql in ldbc_statements().values():
        plan = system.optimize(sql).physical
        for op in _walk(plan):
            if isinstance(op, LimitOp) and isinstance(op.child, physical.ProjectOp):
                assert not isinstance(op.child.child, SortOp), plan.explain()


def _walk(op):
    yield op
    for child in op.children():
        yield from _walk(child)
