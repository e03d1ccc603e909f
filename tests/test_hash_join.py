"""The one in-memory hash-join body and the plans that reach it.

``HashJoin`` and ``PatternHashJoin`` build and probe through the same two
columnar kernels; a join without an equi conjunct is a ``HashJoin`` on zero
keys.  This suite pins, numpy on and off:

* **PatternHashJoin == a naive natural join** in both build orientations
  (forced by input sizes): 1–3 shared variables, no right-only column,
  repeated keys (parallel edges), batch sizes 1 / 3 / 1024 — same rows, same
  order, same ``rows_produced``;
* **zero-key HashJoin** — the columnar body, the row body and a naive cross
  product agree, with and without a non-equi residual, and lowering turns a
  keyless join condition into exactly that operator;
* **spill** — both operators, spill armed, serial and at parallelism 4,
  return the in-memory row multiset;
* **OOM trip points** — the paper's Fig. 9 / Sec 5.3.3 shapes (QC3, IC3-1
  under ``relgo_noei``, ``kuzu`` and ``relgo_hash``) trip at exactly the
  same buffer, row count and message they always have.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.exec import (
    ExecutionContext,
    SpillConfig,
    execute_plan,
    numpy_available,
    open_plan,
    set_numpy_enabled,
)
from repro.exec.kernels import emit_columnar
from repro.exec.operator import to_rows
from repro.exec.vector import ColumnarBatch, numpy_enabled
from repro.graph.index import build_graph_index
from repro.graph.physical import EdgeTripleScan, GraphOperator, GraphVar, PatternHashJoin
from repro.relational.catalog import Catalog
from repro.relational.expr import col, lt
from repro.relational.logical import LogicalJoin, LogicalScan
from repro.relational.lowering import PhysicalPlanner
from repro.relational.physical import HashJoin, SeqScan
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.systems import make_system
from repro.workloads.ldbc import LdbcParams, generate_ldbc, ic_queries, qc_queries

BATCH_SIZES = [1, 3, 1024]


@contextmanager
def numpy_set_to(enabled: bool):
    set_numpy_enabled(enabled)
    try:
        yield
    finally:
        set_numpy_enabled(None)


def numpy_modes() -> list[bool]:
    return [True, False] if numpy_available() else [False]


@pytest.fixture(params=["numpy", "python"])
def numpy_mode(request):
    if request.param == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    with numpy_set_to(request.param == "numpy"):
        yield request.param


# --------------------------------------------------------------------- #
# OOM trip points, pinned byte-exact
# --------------------------------------------------------------------- #

_QC3_PHJ = "PATTERN_HASH_JOIN on (d, c, b) build"

#: (system, statement, budget) -> (label, rows) of the trip, or the row
#: count of a query that fits.  The budget charges rows per buffered batch,
#: and kuzu's MATERIALIZE buffers its child's batches, whose sizes follow
#: the one CSR expansion body's ``batch_size`` slices; relgo's RESULT
#: buffers EXPAND_INTERSECT's chunks: ``batch_size`` chunks within each of
#: the intersect kernel's row slices, a slice being the longest run of
#: input rows on which some leg's summed degree fits the kernel's pair
#: bound.  Both are the same with numpy on and off, so no entry depends on
#: the mode.
TRIP_POINTS = {
    ("relgo_noei", "QC3", 2_000): (_QC3_PHJ, 2_053),
    ("relgo_noei", "QC3", 20_000): (_QC3_PHJ, 20_715),
    ("kuzu", "QC3", 2_000): ("MATERIALIZE", 2_048),
    ("kuzu", "QC3", 20_000): ("MATERIALIZE", 20_480),
    ("relgo_hash", "QC3", 2_000): ("RESULT", 2_010),
    ("relgo_hash", "QC3", 20_000): 5_352,
    ("relgo", "QC1", 2_000): ("RESULT", 2_048),
    ("relgo", "QC2", 2_000): ("RESULT", 2_048),
    ("relgo", "QC2", 20_000): ("RESULT", 20_570),
    ("relgo", "QC3", 2_000): ("RESULT", 2_048),
    ("relgo", "QC3", 20_000): 5_352,
    **{
        (name, "IC3-1", budget): 3
        for name in ("relgo_noei", "kuzu", "relgo_hash")
        for budget in (2_000, 20_000)
    },
}


@pytest.fixture(scope="module")
def ldbc_by_mode():
    """One small LDBC catalog per numpy mode (the graph index's CSR arrays
    are ndarrays only when numpy is on at build time)."""
    built = {}

    def get(mode):
        if mode not in built:
            catalog, mapping = generate_ldbc(LdbcParams(persons=80, forums=10, seed=3))
            catalog.register_graph_index(build_graph_index(mapping))
            built[mode] = catalog
        return built[mode]

    return get


@pytest.mark.parametrize("key", sorted(TRIP_POINTS), ids=lambda k: "-".join(map(str, k)))
def test_oom_trip_points_are_byte_exact(ldbc_by_mode, numpy_mode, key):
    name, statement, budget = key
    text = {**qc_queries(), **ic_queries()}[statement]
    system = make_system(name, ldbc_by_mode(numpy_mode), "snb", memory_budget_rows=budget)
    optimized = system.optimize(system.bind(text))
    expected = TRIP_POINTS[key]
    if isinstance(expected, int):
        assert system.run(text, query_name=statement).status == "ok"
        assert len(system.framework.execute(optimized)) == expected
        return
    label, rows = expected
    result = system.run(text, query_name=statement)
    assert result.status == "OOM"
    with pytest.raises(OutOfMemoryError) as trip:
        system.framework.execute(optimized)
    assert trip.value.label == label
    assert (trip.value.rows, trip.value.budget) == (rows, budget)
    message = (
        f"intermediate result ({label}) of {rows} rows exceeds the executor "
        f"budget of {budget} rows"
    )
    assert str(trip.value) == result.detail == message


# --------------------------------------------------------------------- #
# PatternHashJoin == naive natural join, both orientations
# --------------------------------------------------------------------- #


class _Relation(GraphOperator):
    """A graph relation given as rows: ``ctx.batch_size`` chunks, each
    behind a selection vector that hides one junk row (so buffered inputs
    must be densified), as ndarray columns when numpy is on."""

    def __init__(self, names: list[str], rows: list[tuple]):
        self.output_vars = [GraphVar(name, "v", "L") for name in names]
        self.rows = rows

    def columnar_batches(self, ctx):
        return emit_columnar(ctx, self, self._chunks(ctx))

    def _chunks(self, ctx):
        junk = tuple(-1 for _ in self.output_vars)
        for start in range(0, len(self.rows), ctx.batch_size):
            chunk = [junk] + self.rows[start : start + ctx.batch_size]
            cb = ColumnarBatch.from_rows(chunk)
            if numpy_enabled():
                import numpy as np

                cb = ColumnarBatch([np.asarray(c) for c in cb.columns], cb.length)
            yield ColumnarBatch(cb.columns, cb.length, range(1, len(chunk)))

    def _label(self) -> str:
        return "RELATION"


def natural_join(left, right, left_builds: bool) -> list[tuple]:
    """Nested loops over both children's rows, in the operator's emit order:
    the probe side outer, each probe row's matches in build order."""
    lnames = [v.name for v in left.output_vars]
    rnames = [v.name for v in right.output_vars]
    ctx = ExecutionContext()
    lrows = [r for b in to_rows(left.columnar_batches(ctx)) for r in b]
    rrows = [r for b in to_rows(right.columnar_batches(ctx)) for r in b]
    shared = [n for n in lnames if n in rnames]
    keep = [i for i, n in enumerate(rnames) if n not in lnames]
    pairs = (
        [(l, r) for r in rrows for l in lrows]
        if left_builds
        else [(l, r) for l in lrows for r in rrows]
    )
    return [
        l + tuple(r[i] for i in keep)
        for l, r in pairs
        if all(l[lnames.index(n)] == r[rnames.index(n)] for n in shared)
    ]


@st.composite
def pattern_join_inputs(draw, left_builds: bool):
    """Two relations sharing 1–3 variables (listed in different orders),
    with 0–2 right-only and 0–1 left-only variables.  Shared values come
    from a tiny domain, so keys repeat — parallel edges and duplicate
    rows — and the sizes force the build orientation."""
    shared = ["a", "b", "c"][: draw(st.integers(1, 3))]
    left_names = draw(st.permutations(shared + ["x"][: draw(st.integers(0, 1))]))
    right_names = draw(st.permutations(shared + ["y", "e"][: draw(st.integers(0, 2))]))
    small = draw(st.integers(0, 7))
    large = draw(st.integers(small + (0 if left_builds else 1), small + 8))
    n_left, n_right = (small, large) if left_builds else (large, small)

    def rows(names, n):
        value = {name: st.integers(0, 2) if name in shared else st.integers(0, 50) for name in names}
        return draw(st.lists(st.tuples(*(value[name] for name in names)), min_size=n, max_size=n))

    return (
        _Relation(list(left_names), rows(left_names, n_left)),
        _Relation(list(right_names), rows(right_names, n_right)),
    )


@pytest.mark.parametrize("left_builds", [True, False], ids=["left-build", "right-build"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pattern_hash_join_is_the_natural_join(left_builds, data):
    left, right = data.draw(pattern_join_inputs(left_builds))
    join = PatternHashJoin(left, right)
    assert [v.name for v in join.output_vars] == [v.name for v in left.output_vars] + [
        n.name for n in right.output_vars if n.name not in {v.name for v in left.output_vars}
    ]
    expected = natural_join(left, right, left_builds)
    for enabled in numpy_modes():
        with numpy_set_to(enabled):
            for size in BATCH_SIZES:
                ctx = ExecutionContext(batch_size=size)
                rows = [r for cb in join.columnar_batches(ctx) for r in cb.to_rows()]
                assert rows == expected, (enabled, size)
                assert ctx.rows_produced == len(left.rows) + len(right.rows) + len(rows)
                assert ctx.buffered_rows == 0


# --------------------------------------------------------------------- #
# zero-key HashJoin: columnar body == row body == cross product
# --------------------------------------------------------------------- #


def make_table(rows) -> Table:
    schema = TableSchema("t", [Column("id", DataType.INT), Column("v", DataType.INT)])
    return Table(schema, rows=rows)


_values = st.one_of(st.none(), st.integers(0, 4))
_rows = st.lists(st.tuples(st.integers(0, 99), _values), max_size=9)


@settings(max_examples=60, deadline=None)
@given(
    left=_rows,
    right=_rows,
    residual=st.booleans(),
    size=st.sampled_from(BATCH_SIZES),
)
def test_zero_key_hash_join_is_the_cross_product(left, right, residual, size):
    expected = [
        l + r
        for l in left
        for r in right
        if not residual or (l[1] is not None and r[1] is not None and l[1] < r[1])
    ]
    for enabled in numpy_modes():
        with numpy_set_to(enabled):
            join = HashJoin(
                SeqScan(make_table(left), "l"),
                SeqScan(make_table(right), "r"),
                [],
                [],
                residual=lt(col("l.v"), col("r.v")) if residual else None,
            )
            columnar = execute_plan(join, batch_size=size)
            rows = execute_plan(join, batch_size=size, columnar=False)
            assert columnar.rows == rows.rows == expected, (enabled, size)
            assert columnar.rows_produced == rows.rows_produced


def test_keyless_join_conditions_lower_to_zero_key_hash_joins():
    catalog = Catalog()
    catalog.add_table(make_table([(1, 1), (2, 3)]))

    def scan(alias):
        return LogicalScan("t", alias, ["id", "v"])

    cross = PhysicalPlanner(catalog).lower(LogicalJoin(scan("l"), scan("r"), None))
    condition = lt(col("l.v"), col("r.v"))
    theta = PhysicalPlanner(catalog).lower(LogicalJoin(scan("l"), scan("r"), condition))
    for join, residual in ((cross, None), (theta, condition)):
        assert isinstance(join, HashJoin)
        assert (join.left_keys, join.right_keys, join.residual) == ([], [], residual)
    assert execute_plan(cross).rows == [(1, 1, 1, 1), (1, 1, 2, 3), (2, 3, 1, 1), (2, 3, 2, 3)]
    assert execute_plan(theta).rows == [(1, 1, 2, 3)]


# --------------------------------------------------------------------- #
# spill armed: the same row multiset, serial and parallel
# --------------------------------------------------------------------- #


def _rows(plan, columnar: bool, **lifecycle) -> tuple[Counter, int]:
    """(row multiset, spill files written) of one run of ``plan``."""
    with open_plan(plan, columnar=columnar, **lifecycle) as (ctx, stream):
        rows = Counter(
            row for batch in stream for row in (batch.to_rows() if columnar else batch)
        )
        return rows, ctx.spill.files_created if ctx.spill is not None else 0


def _spill_parity(plan, parallelism: int, columnar: bool = True) -> None:
    baseline, _ = _rows(plan, columnar, parallelism=parallelism, spill=False)
    spilled, files = _rows(
        plan, columnar, parallelism=parallelism, spill=SpillConfig(threshold_rows=40)
    )
    assert baseline
    assert files  # the build really went out of core
    assert spilled == baseline


@pytest.mark.parametrize("columnar", [True, False], ids=["columnar", "rows"])
@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("keys", [0, 1], ids=["zero-key", "one-key"])
def test_hash_join_spill_parity(keys, parallelism, columnar):
    for enabled in numpy_modes():
        with numpy_set_to(enabled):
            left = make_table([(i, i % 7) for i in range(60)])
            right = make_table([(i, i % 5) for i in range(200)])
            plan = HashJoin(
                SeqScan(left, "l"),
                SeqScan(right, "r"),
                ["l.v"][:keys],
                ["r.v"][:keys],
                residual=lt(col("l.id"), col("r.id")) if not keys else None,
            )
            _spill_parity(plan, parallelism, columnar)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_pattern_hash_join_spill_parity(parallelism):
    """Two knows scans joined on their shared middle vertex (the right
    scan's edge variable is its only kept column)."""
    for enabled in numpy_modes():
        with numpy_set_to(enabled):
            catalog, mapping = generate_ldbc(LdbcParams(persons=40, forums=5, seed=3))
            index = build_graph_index(mapping)
            first = EdgeTripleScan(mapping, "knows", "a", "b", "e1", index=index)
            second = EdgeTripleScan(mapping, "knows", "b", "a", "e2", index=index)
            _spill_parity(PatternHashJoin(first, second), parallelism)
            third = EdgeTripleScan(mapping, "knows", "b", "c", None, index=index)
            _spill_parity(PatternHashJoin(first, third), parallelism)
