"""Grouped aggregation / distinct correctness: NaN-canonical keys and the
factorize + segment-reduction engine.

Four layers of coverage:

* **Semantics regressions** — the NaN grouping bug this engine fixed:
  ``GROUP BY`` / ``DISTINCT`` over NaN-bearing float columns previously
  emitted one group per NaN row (``(nan, 1), (nan, 1)``); now every
  engine/backend combination yields a single NaN group.  NULL keys form one
  group; MIN/MAX order NaN above every non-NaN value (the Postgres rule).
* **Engine parity** — row vs columnar execution of identical plans in
  every storage x numpy cell (the shared ``storage_mode`` fixture),
  including batch-boundary group merges (tiny batch sizes force groups to
  span many batches).
* **Property tests** — randomized key/value columns (NULLs, NaNs, mixed
  cardinality) against an order-independent reference aggregation, and
  dictionary keys over a growing dictionary against a plain-Python
  reference, group order included (serial, merged partials, spill round
  trip).
* **Kernel units** — factorize / combine_codes (mixed radix and its
  exact tuple-dict form) / canonicalization helpers, typed-state
  promotion and demotion, StreamingDistinct's two states (typed, NaN
  flag included, and the seen-set), and the guard that dictionary keys
  group by address.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import execute_plan, numpy_available, resolve_spill, set_numpy_enabled, vector
from repro.exec.grouping import (
    NAN,
    GroupedAggregation,
    StreamingDistinct,
    canonical,
    canonical_column,
    canonical_row,
    combine_codes,
    factorize,
    make_accumulator,
)
from repro.relational.expr import col
from repro.relational.logical import AggregateSpec
from repro.relational.physical import AggregateOp, DistinctOp, SeqScan
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

nan = float("nan")


def norm_rows(rows):
    """Rows in canonical order with NaN made comparable (NaN != NaN breaks
    both sorting and equality, so parity checks normalize it first)."""
    return sorted(
        (tuple("NaN" if v != v else v for v in row) for row in rows), key=repr
    )


def _table(columns: dict[str, tuple[DataType, list]]) -> Table:
    schema = TableSchema(
        "t", [Column(name, dtype) for name, (dtype, _) in columns.items()]
    )
    table = Table(schema)
    table.extend_columns([values for _, values in columns.values()], validate=False)
    return table


def _run_both(plan, batch_size=None):
    columnar = execute_plan(plan, columnar=True, batch_size=batch_size)
    row = execute_plan(plan, columnar=False, batch_size=batch_size)
    assert norm_rows(columnar.rows) == norm_rows(row.rows)
    if resolve_spill(None) is None:
        # Peak accounting is protocol-comparable only unspilled: under a
        # tiny spill threshold (the tier1-spill CI leg) the columnar path
        # may charge one full batch before its first export.
        assert columnar.peak_buffered_rows <= row.peak_buffered_rows
    return columnar


# --------------------------------------------------------------------- #
# NaN / NULL key semantics
# --------------------------------------------------------------------- #


def test_nan_keys_form_one_group(storage_mode):
    table = _table({"x": (DataType.FLOAT, [nan, nan, 1.0])})
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.x"), "x")],
        [AggregateSpec("COUNT", None, "cnt")],
    )
    result = _run_both(plan)
    # The bug this pins: both engines used to emit (nan, 1), (nan, 1).
    assert norm_rows(result.rows) == norm_rows([(nan, 2), (1.0, 1)])


def test_nan_rows_dedup_together(storage_mode):
    table = _table({"x": (DataType.FLOAT, [nan, 1.0, nan, nan, 1.0])})
    plan = DistinctOp(SeqScan(table, "t"))
    result = _run_both(plan)
    assert norm_rows(result.rows) == norm_rows([(nan,), (1.0,)])


def test_null_keys_form_one_group(storage_mode):
    table = _table({"x": (DataType.STRING, [None, "a", None, "a", None])})
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.x"), "x")],
        [AggregateSpec("COUNT", None, "cnt")],
    )
    result = _run_both(plan)
    assert norm_rows(result.rows) == norm_rows([(None, 3), ("a", 2)])


def test_multi_key_nan_and_null_grouping(storage_mode):
    table = _table(
        {
            "k": (DataType.STRING, ["a", None, "a", None, "a", "a"]),
            "f": (DataType.FLOAT, [nan, nan, nan, 1.5, 1.5, nan]),
            "v": (DataType.FLOAT, [1.0, 2.0, 3.0, None, 4.0, None]),
        }
    )
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k"), (col("t.f"), "f")],
        [
            AggregateSpec("COUNT", None, "cnt"),
            AggregateSpec("SUM", col("t.v"), "s"),
            AggregateSpec("MIN", col("t.v"), "mn"),
            AggregateSpec("MAX", col("t.v"), "mx"),
            AggregateSpec("AVG", col("t.v"), "av"),
        ],
    )
    result = _run_both(plan)
    assert norm_rows(result.rows) == norm_rows(
        [
            ("a", nan, 3, 4.0, 1.0, 3.0, 2.0),
            (None, nan, 1, 2.0, 2.0, 2.0, 2.0),
            (None, 1.5, 1, None, None, None, None),
            ("a", 1.5, 1, 4.0, 4.0, 4.0, 4.0),
        ]
    )


def test_min_max_nan_orders_above_everything(storage_mode):
    # Postgres rule, order-independently: MIN is NaN only when all inputs
    # are NaN; MAX is NaN when any input is.
    for values in ([nan, 1.0, 3.0], [1.0, nan, 3.0], [3.0, 1.0, nan]):
        table = _table({"v": (DataType.FLOAT, list(values))})
        plan = AggregateOp(
            SeqScan(table, "t"),
            [],
            [
                AggregateSpec("MIN", col("t.v"), "mn"),
                AggregateSpec("MAX", col("t.v"), "mx"),
            ],
        )
        result = _run_both(plan)
        assert norm_rows(result.rows) == norm_rows([(1.0, nan)])
    all_nan = _table({"v": (DataType.FLOAT, [nan, nan])})
    plan = AggregateOp(
        SeqScan(all_nan, "t"), [], [AggregateSpec("MIN", col("t.v"), "mn")]
    )
    assert norm_rows(_run_both(plan).rows) == norm_rows([(nan,)])


# --------------------------------------------------------------------- #
# shape edge cases + batch-boundary merges
# --------------------------------------------------------------------- #


def test_empty_input_grouped_and_global(storage_mode):
    table = _table({"k": (DataType.INT, []), "v": (DataType.FLOAT, [])})
    grouped = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k")],
        [AggregateSpec("COUNT", None, "cnt")],
    )
    assert _run_both(grouped).rows == []
    no_group = AggregateOp(
        SeqScan(table, "t"),
        [],
        [
            AggregateSpec("COUNT", None, "cnt"),
            AggregateSpec("SUM", col("t.v"), "s"),
        ],
    )
    assert _run_both(no_group).rows == [(0, None)]
    assert _run_both(DistinctOp(SeqScan(table, "t"))).rows == []


def test_groups_merge_across_batch_boundaries(storage_mode):
    n = 50
    table = _table(
        {
            "k": (DataType.INT, [i % 3 for i in range(n)]),
            "f": (DataType.FLOAT, [nan if i % 4 == 0 else 0.5 for i in range(n)]),
            "v": (DataType.INT, list(range(n))),
        }
    )
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k"), (col("t.f"), "f")],
        [
            AggregateSpec("COUNT", None, "cnt"),
            AggregateSpec("SUM", col("t.v"), "s"),
            AggregateSpec("MIN", col("t.v"), "mn"),
            AggregateSpec("MAX", col("t.v"), "mx"),
        ],
    )
    reference = norm_rows(_run_both(plan).rows)
    for batch_size in (1, 3, 7, 64):
        result = _run_both(plan, batch_size=batch_size)
        assert norm_rows(result.rows) == reference, batch_size
    distinct = DistinctOp(
        SeqScan(table, "t", projected=["k", "f"])
    )
    dedup_reference = norm_rows(_run_both(distinct).rows)
    for batch_size in (1, 3, 7):
        assert norm_rows(_run_both(distinct, batch_size=batch_size).rows) == (
            dedup_reference
        ), batch_size


def test_distinct_preserves_first_arrival_order(storage_mode):
    table = _table({"x": (DataType.INT, [3, 1, 3, 2, 1, 3])})
    plan = DistinctOp(SeqScan(table, "t"))
    for batch_size in (None, 2):
        columnar = execute_plan(plan, columnar=True, batch_size=batch_size)
        row = execute_plan(plan, columnar=False, batch_size=batch_size)
        assert columnar.rows == row.rows == [(3,), (1,), (2,)]


def test_high_cardinality_grouping_parity(storage_mode):
    # Enough distinct keys to engage the typed searchsorted/scatter state
    # with numpy on; results must match the dict engines exactly.
    n = 1500
    table = _table(
        {
            "k": (DataType.INT, [(i * 7919) % 700 for i in range(n)]),
            "v": (DataType.FLOAT, [float(i % 97) for i in range(n)]),
        }
    )
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k")],
        [
            AggregateSpec("COUNT", None, "cnt"),
            AggregateSpec("SUM", col("t.v"), "s"),
            AggregateSpec("MIN", col("t.v"), "mn"),
            AggregateSpec("MAX", col("t.v"), "mx"),
            AggregateSpec("AVG", col("t.v"), "av"),
        ],
    )
    result = _run_both(plan, batch_size=256)
    assert len(result.rows) == 700


# --------------------------------------------------------------------- #
# property test vs an order-independent reference
# --------------------------------------------------------------------- #

key_values = st.one_of(
    st.none(),
    st.sampled_from([nan, -1.5, 0.5, 2.5]),
    st.integers(min_value=-2, max_value=2).map(float),
)
agg_values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5).map(float))


def _reference_aggregate(keys, values):
    groups: dict = {}
    for k, v in zip(keys, values):
        cell = groups.setdefault(canonical(k), [0, 0, 0.0, None, None])
        cell[0] += 1
        if v is not None:
            cell[1] += 1
            cell[2] += v
            cell[3] = v if cell[3] is None else min(cell[3], v)
            cell[4] = v if cell[4] is None else max(cell[4], v)
    out = []
    for k, (cnt, vcnt, total, mn, mx) in groups.items():
        out.append(
            (
                k,
                cnt,
                total if vcnt else None,
                mn,
                mx,
                total / vcnt if vcnt else None,
            )
        )
    return out


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(key_values, agg_values), max_size=120),
    batch_size=st.sampled_from([1, 2, 7, 1024]),
)
def test_grouped_aggregation_matches_reference(rows, batch_size):
    keys = [k for k, _ in rows]
    values = [v for _, v in rows]
    table = _table(
        {"k": (DataType.FLOAT, keys), "v": (DataType.FLOAT, values)}
    )
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k")],
        [
            AggregateSpec("COUNT", None, "cnt"),
            AggregateSpec("SUM", col("t.v"), "s"),
            AggregateSpec("MIN", col("t.v"), "mn"),
            AggregateSpec("MAX", col("t.v"), "mx"),
            AggregateSpec("AVG", col("t.v"), "av"),
        ],
    )
    expected = norm_rows(_reference_aggregate(keys, values))
    columnar = execute_plan(plan, columnar=True, batch_size=batch_size)
    row = execute_plan(plan, columnar=False, batch_size=batch_size)
    assert norm_rows(columnar.rows) == expected
    assert norm_rows(row.rows) == expected


# --------------------------------------------------------------------- #
# kernel units
# --------------------------------------------------------------------- #


def test_canonical_helpers():
    assert canonical(nan) is NAN
    assert canonical(1.5) == 1.5
    assert canonical(None) is None
    row = (1, "a", None)
    assert canonical_row(row) is row
    patched = canonical_row((1.0, nan, nan))
    assert patched[1] is NAN and patched[2] is NAN
    clean = [1.0, 2.0]
    assert canonical_column(clean) is clean
    assert canonical_column([1.0, nan])[1] is NAN


def test_factorize_dict_path_collapses_nan_and_none():
    codes, uniques = factorize([nan, None, nan, "a", None], 5)
    assert list(codes) == [0, 1, 0, 2, 1]
    assert uniques[0] is NAN and uniques[1] is None and uniques[2] == "a"


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_factorize_ndarray_collapses_nan():
    import numpy as np

    try:
        set_numpy_enabled(True)
        codes, uniques = factorize(np.array([2.0, nan, 1.0, nan]), 4)
        assert uniques == [1.0, 2.0] + [uniques[-1]]
        assert uniques[-1] != uniques[-1]  # canonical NaN last
        assert list(codes) == [1, 2, 0, 2]
    finally:
        set_numpy_enabled(None)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_combine_codes_overflow_combines_exactly():
    # Four columns of 2**16 uniques overflow the int64 mixed radix; the
    # batch then combines through the tuple dict, the pure-Python form.
    wide = [
        ([3, 1, 3, 0], list(range(1 << 16))),
        ([7, 2, 7, 9], list(range(1 << 16))),
        ([0, 0, 0, 5], list(range(1 << 16))),
        ([1, 4, 1, 4], list(range(1 << 16))),
    ]
    try:
        set_numpy_enabled(True)
        codes, keys = combine_codes(wide, 4)
        assert codes.dtype.kind == "i"
        set_numpy_enabled(False)
        py_codes, py_keys = combine_codes(wide, 4)
    finally:
        set_numpy_enabled(None)
    assert codes.tolist() == py_codes == [0, 1, 0, 2]
    assert keys == py_keys == [(3, 7, 0, 1), (1, 2, 0, 4), (0, 9, 5, 4)]


def test_aggregate_over_overflowing_key_space_matches_row_body(
    storage_mode, monkeypatch
):
    # Seven keys of 512 uniques per 1024-row batch: 2**63 combined codes,
    # past exact int64.  Row pairs share a key, so groups hold two rows.
    n = 1024
    columns = {
        f"k{i}": (DataType.INT, [(j // 2) * (i + 1) for j in range(n)])
        for i in range(7)
    }
    columns["v"] = (DataType.FLOAT, [float(j % 5) for j in range(n)])
    table = _table(columns)
    radixes = []
    joint_codes = vector.joint_codes

    def spy(code_columns, cards):
        radixes.append(math.prod(cards))
        return joint_codes(code_columns, cards)

    monkeypatch.setattr(vector, "joint_codes", spy)
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col(f"t.k{i}"), f"k{i}") for i in range(7)],
        [
            AggregateSpec("COUNT", None, "cnt"),
            AggregateSpec("SUM", col("t.v"), "total"),
            AggregateSpec("MIN", col("t.v"), "low"),
        ],
    )
    result = _run_both(plan, batch_size=n)
    assert radixes and max(radixes) > 1 << 62
    assert len(result.rows) == n // 2
    assert {row[7] for row in result.rows} == {2}


def test_accumulator_nan_rules():
    for func, seqs, expected in [
        ("MIN", ([nan, 1.0], [1.0, nan]), 1.0),
        ("MAX", ([nan, 1.0], [1.0, nan]), nan),
    ]:
        for seq in seqs:
            initial, update, final = make_accumulator(func)
            cell = initial
            for v in seq:
                cell = update(cell, v)
            got = final(cell)
            assert (got != got) if expected != expected else got == expected


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_typed_state_demotes_on_ineligible_batch():
    try:
        set_numpy_enabled(True)
        import numpy as np

        engine = GroupedAggregation(1, ["COUNT", "SUM"])
        keys = np.arange(500)  # high-cardinality first batch -> typed state
        engine.consume([keys], [None, keys.astype(float)], 500)
        assert engine._array is not None
        # A list-backed batch (e.g. a computed expression) demotes to the
        # dict engine without losing any state.
        engine.consume([[0, 0, 499]], [None, [1.0, None, 2.0]], 3)
        assert engine._array is None
        columns = engine.result_columns()
        assert engine.num_groups == 500
        by_key = dict(zip(columns[0], zip(columns[1], columns[2])))
        assert by_key[0] == (3, 1.0)  # 0.0 from batch 1, 1.0 + skipped NULL
        assert by_key[499] == (2, 501.0)
        assert by_key[1] == (1, 1.0)
    finally:
        set_numpy_enabled(None)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_streaming_distinct_typed_state_on_near_unique_data():
    # A single sortable key column keeps its seen-state typed (sorted
    # ndarray + searchsorted) at any distinct ratio — near-unique data no
    # longer drops to the per-row walk.
    try:
        set_numpy_enabled(True)
        import numpy as np

        state = StreamingDistinct()
        kept = []
        for start in range(0, 4096, 1024):
            column = np.arange(start, start + 1024)
            kept.extend(state.positions([column], 1024))
        assert state._typed_seen is not None  # typed seen-state engaged
        assert not state._seen
        assert state.seen_count == 4096
        # Repeats resolve against the sorted state, first-in-batch wins.
        assert state.positions([np.asarray([0, 5000, 5000, 4095])], 4) == [1]
        # A list-backed batch demotes the typed state into the seen-set
        # (shared key format: 1-tuples), survivors unchanged.
        assert state.positions([[0, 4095, 6000]], 3) == [2]
        assert state._typed_seen is None
        assert state.seen_count == 4098
    finally:
        set_numpy_enabled(None)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_streaming_distinct_multi_column_keys_use_the_seen_set():
    # Several key columns dedup through the canonical seen-set from the
    # first batch: the typed state never engages, on any distinct ratio.
    try:
        set_numpy_enabled(True)
        import numpy as np

        state = StreamingDistinct()
        kept = []
        for start in range(0, 4096, 1024):
            column = np.arange(start, start + 1024)
            kept.extend(state.positions([column, column % 7], 1024))
            assert state._typed_seen is None and not state._typed_ok
        assert kept == list(range(1024)) * 4
        assert state.seen_count == 4096
        # ndarray and list batches share the seen-key format.
        repeat = np.asarray([0, 4095, 5000, 5000])
        assert state.positions([repeat, repeat % 7], 4) == [2]
        assert state.positions([[0, 4095, 6000], [0, 4095 % 7, 6000 % 7]], 3) == [2]
        assert state.seen_count == 4098
    finally:
        set_numpy_enabled(None)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_streaming_distinct_typed_float_state_keeps_one_nan():
    try:
        set_numpy_enabled(True)
        import numpy as np

        state = StreamingDistinct()
        first = np.asarray([1.5, nan, 2.5, nan, 1.5])
        assert state.positions([first], 5) == [0, 1, 2]
        assert state._typed_seen is not None  # floats engage the typed state
        assert state.seen_count == 3
        # Repeats (NaN included) resolve against the typed state.
        second = np.asarray([nan, 2.5, 3.5, 1.5, 3.5])
        assert state.positions([second], 5) == [2]
        assert state.seen_count == 4
        # A list batch demotes it: one canonical NaN key, survivors unchanged.
        assert state.positions([[nan, 4.5, 1.5]], 3) == [1]
        assert state._typed_seen is None
        assert state.seen_count == 5
        assert sum(1 for (k,) in state._seen if k != k) == 1
        assert (NAN,) in state._seen

        state = StreamingDistinct()
        state.positions([np.asarray([nan, 0.5, nan])], 3)
        keys = state.export_keys()
        assert sorted(keys, key=repr) == [(0.5,), (NAN,)]
        assert keys[[k for (k,) in keys].index(NAN)][0] is NAN
        assert state.seen_count == 0
    finally:
        set_numpy_enabled(None)


def test_distinct_over_nan_floats_spills_like_the_row_body(storage_mode, monkeypatch):
    # The first batch dedups in memory (typed with numpy on), the second
    # passes the tiny threshold: the seen keys, NaN included, spill.
    values = [float(j % 37) if j % 5 else nan for j in range(600)]
    table = _table({"x": (DataType.FLOAT, values)})
    plan = DistinctOp(SeqScan(table, "t"))
    exported = []
    export_keys = StreamingDistinct.export_keys

    def spy(state):
        keys = export_keys(state)
        exported.extend(keys)
        return keys

    monkeypatch.setattr(StreamingDistinct, "export_keys", spy)
    row = execute_plan(plan, columnar=False, batch_size=64, spill=False)
    spilled = execute_plan(plan, columnar=True, batch_size=64, spill=100)
    assert norm_rows(spilled.rows) == norm_rows(row.rows)
    assert len(row.rows) == 38
    assert (NAN,) in exported


def test_all_distinct_uses_canonical_binding_equality(fig2):
    # Bound rowids are ints, so this exercises the vectorized pairwise
    # mask against the reference set semantics on a real pattern.
    from repro.exec import ExecutionContext
    from repro.graph.physical import AllDistinct, Expand, ScanVertex

    catalog, mapping, index = fig2
    hop = Expand(
        ScanVertex(mapping, "a", "Person"),
        index,
        mapping,
        "a",
        "b",
        "Person",
        "Knows",
        "out",
    )
    two_hop = Expand(hop, index, mapping, "b", "c", "Person", "Knows", "out")
    distinct = AllDistinct(two_hop, kind="v")
    columnar = [
        row
        for cb in distinct.columnar_batches(ExecutionContext())
        for row in cb.to_rows()
    ]
    rows = [row for b in distinct.batches(ExecutionContext()) for row in b]
    assert sorted(columnar) == sorted(rows)
    assert columnar, "the pattern must match"
    assert all(len({row[0], row[1], row[2]}) == 3 for row in columnar)


def test_avg_is_exact_over_merges(storage_mode):
    table = _table({"v": (DataType.FLOAT, [float(i) for i in range(10)])})
    plan = AggregateOp(
        SeqScan(table, "t"), [], [AggregateSpec("AVG", col("t.v"), "av")]
    )
    result = _run_both(plan, batch_size=3)
    assert math.isclose(result.rows[0][0], 4.5)


# --------------------------------------------------------------------- #
# review regressions
# --------------------------------------------------------------------- #


def test_count_arg_skips_nulls_with_ndarray_key(storage_mode):
    # Regression: the COUNT-only vectorized shortcut must not use group
    # sizes when the counted column can hold NULLs.
    table = _table(
        {
            "k": (DataType.INT, [1, 1, 2]),
            "s": (DataType.STRING, [None, "a", None]),
        }
    )
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k")],
        [AggregateSpec("COUNT", col("t.s"), "cnt")],
    )
    result = _run_both(plan)
    assert norm_rows(result.rows) == norm_rows([(1, 1), (2, 0)])


def test_int_sum_beyond_int64_stays_exact(storage_mode):
    # Regression: int64 reduceat/scatter sums must not wrap; magnitudes
    # that could overflow take the exact Python-int path (or demote the
    # typed state before wrapping).
    big = 1 << 62
    table = _table(
        {
            "k": (DataType.INT, [1, 1, 1, 1]),
            "v": (DataType.INT, [big, big, big, big]),
        }
    )
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col("t.k"), "k")],
        [AggregateSpec("SUM", col("t.v"), "s")],
    )
    result = _run_both(plan, batch_size=2)
    assert result.rows == [(1, 4 * big)]


def test_sorted_rows_deterministic_with_nan():
    from repro.exec.context import QueryResult

    a = QueryResult(["x", "c"], [(float("nan"), 2), (float("nan"), 1)], 0.0)
    b = QueryResult(["x", "c"], [(float("nan"), 1), (float("nan"), 2)], 0.0)
    assert norm_rows(a.sorted_rows()) == norm_rows(b.sorted_rows())
    assert [r[1] for r in a.sorted_rows()] == [r[1] for r in b.sorted_rows()]


# --------------------------------------------------------------------- #
# MIN/MAX over strings: sort-based segment reductions
# --------------------------------------------------------------------- #

_CITIES = ["Oslo", "Bergen", "Zürich", "Aarhus", "oslo", "Ålesund", "B", "Bergen2"]


def _string_table(n=400):
    """name: dictionary column; day: list-backed DATE ('<U' view);
    nick: NULL-bearing (plain list); k1/k2: grouping keys."""
    return _table(
        {
            "k1": (DataType.INT, [i % 7 for i in range(n)]),
            "k2": (DataType.STRING, ["xyz"[i % 3] for i in range(n)]),
            "name": (DataType.STRING, [_CITIES[(i * 5) % 8] for i in range(n)]),
            "day": (DataType.DATE, [f"20{i % 23:02d}-0{1 + i % 9}-1{i % 10}" for i in range(n)]),
            "nick": (
                DataType.STRING,
                # k2 == 'y' groups are all NULL, the others mixed.
                [
                    None if i % 3 == 1 or i % 4 == 1 else _CITIES[(i * 3) % 8].lower()
                    for i in range(n)
                ],
            ),
        }
    )


@pytest.mark.parametrize("keys", [(), ("k1",), ("k1", "k2")])
@pytest.mark.parametrize("batch_size", [7, 64, None])
def test_string_min_max_matches_row_path(storage_mode, keys, batch_size):
    table = _string_table()
    plan = AggregateOp(
        SeqScan(table, "t"),
        [(col(f"t.{k}"), k) for k in keys],
        [
            AggregateSpec(func, col(f"t.{arg}"), f"{func}_{arg}".lower())
            for arg in ("name", "day", "nick")
            for func in ("MIN", "MAX")
        ],
    )
    result = _run_both(plan, batch_size=batch_size)
    rows = list(table.iter_rows())
    expected = {}
    for row in rows:
        key = tuple(row[("k1", "k2").index(k)] for k in keys)
        expected.setdefault(key, []).append(row)
    want = [
        key
        + tuple(
            func((r[c] for r in group if r[c] is not None), default=None)
            for c in (2, 3, 4)
            for func in (min, max)
        )
        for key, group in expected.items()
    ]
    assert norm_rows(result.rows) == norm_rows(want)


def test_string_min_max_over_empty_input(storage_mode):
    table = _string_table(0)
    aggregates = [
        AggregateSpec("MIN", col("t.name"), "lo"),
        AggregateSpec("MAX", col("t.day"), "hi"),
    ]
    assert _run_both(AggregateOp(SeqScan(table, "t"), [], aggregates)).rows == [
        (None, None)
    ]
    grouped = AggregateOp(SeqScan(table, "t"), [(col("t.k1"), "k1")], aggregates)
    assert _run_both(grouped).rows == []


def _string_batches():
    """Three batches of (key columns, string column): group 9 first shows
    up in the last one, and the dictionary grows between batches."""
    return [
        ([0, 1, 0, 1, 0], ["p", "q", "p", "q", "q"], ["m", "b", "c", "z", "m"]),
        ([1, 1, 0], ["q", "p", "p"], ["a", "zz", "n"]),
        ([9, 0, 9, 1], ["p", "p", "p", "q"], ["y", "A", "x", "b"]),
    ]


def _minmax_reference(num_keys):
    groups: dict = {}
    for k1, k2, values in _string_batches():
        for a, b, v in zip(k1, k2, values):
            groups.setdefault((a, b)[:num_keys], []).append(v)
    return sorted(key + (min(vs), max(vs)) for key, vs in groups.items())


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@pytest.mark.parametrize("num_keys", [0, 1, 2])
@pytest.mark.parametrize("encoding", ["U", "dict"])
def test_string_min_max_batches_late_group_and_growing_dictionary(
    monkeypatch, num_keys, encoding
):
    import numpy as np

    from repro.exec import grouping
    from repro.exec.vector import DictVector

    reduced_values = []
    original = grouping._segment_reduce_seq

    def recording(func, values, codes_list, num_groups):
        reduced_values.append(len(values))
        return original(func, values, codes_list, num_groups)

    monkeypatch.setattr(grouping, "_segment_reduce_seq", recording)
    dictionary: list = []
    index: dict = {}
    try:
        set_numpy_enabled(True)
        engine = GroupedAggregation(num_keys, ["MIN", "MAX"])
        for k1, k2, values in _string_batches():
            if encoding == "U":
                column = np.asarray(values)
            else:
                # One append-only dictionary shared by every batch, as a
                # DictColumn publishes it: later batches see more values.
                for v in values:
                    if v not in index:
                        index[v] = len(dictionary)
                        dictionary.append(v)
                column = DictVector(
                    np.asarray([index[v] for v in values], dtype=np.int32),
                    dictionary,
                    index,
                )
            keys = [np.asarray(k1), np.asarray(k2)][:num_keys]
            engine.consume(keys, [column, column], len(values))
        columns = engine.result_columns()
    finally:
        set_numpy_enabled(None)
    assert sorted(zip(*columns)) == _minmax_reference(num_keys)
    assert all(type(v) is str for column in columns[num_keys:] for v in column)
    # Both encodings reduce by order: never the per-value loop.
    assert reduced_values == []


#: '' first, case pairs (every upper case letter orders before every lower
#: case one), and non-ASCII values that order by code point ('Å' > 'Z').
_MINMAX_STRINGS = ["", "a", "A", "b", "B", "aB", "Ab", "Ålesund", "Zürich", "zürich", "ß"]


@st.composite
def _minmax_rows(draw):
    """Rows ``(k1, k2, value)`` and the cut points that split them into
    batches; ``None`` marks a NULL (list encoding only)."""
    n = draw(st.integers(1, 40))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 2),
                st.one_of(st.none(), st.sampled_from(_MINMAX_STRINGS)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=4, unique=True)) if n > 1 else []
    return rows, [0, *sorted(cuts), n]


def _minmax_column(encoding: str, values: list, dictionary: list, index: dict, use_numpy):
    """A batch's argument column as the engine would hand it over."""
    if not use_numpy or encoding == "list":
        return values
    import numpy as np

    from repro.exec.vector import DictVector

    if encoding == "U":
        return np.asarray(values)
    for v in values:  # one dictionary for every batch, growing as it goes
        if v not in index:
            index[v] = len(dictionary)
            dictionary.append(v)
    return DictVector(np.asarray([index[v] for v in values]), dictionary, index)


@pytest.mark.parametrize("use_numpy", [True, False])
@settings(max_examples=60, deadline=None)
@given(
    data=_minmax_rows(),
    num_keys=st.integers(0, 2),
    encoding=st.sampled_from(["U", "dict", "list"]),
    merge_at=st.integers(0, 5),
)
def test_string_min_max_matches_the_row_accumulators(
    use_numpy, data, num_keys, encoding, merge_at
):
    """MIN/MAX over batches of strings — '<U' arrays, dictionary vectors
    sharing one growing dictionary, NULL-bearing lists — equal
    ``make_accumulator`` applied row by row, also when two partial states
    merge; every cell is a plain ``str``."""
    if use_numpy and not numpy_available():
        pytest.skip("numpy not installed")
    rows, bounds = data
    if encoding != "list":
        rows = [(a, b, "" if v is None else v) for a, b, v in rows]
    expected: dict = {}
    for func in ("MIN", "MAX"):
        initial, update, final = make_accumulator(func)
        cells: dict = {}
        for a, b, v in rows:
            key = (a, b)[:num_keys]
            cell = cells.get(key, initial)
            cells[key] = cell if v is None else update(cell, v)
        for key, cell in cells.items():
            expected.setdefault(key, []).append(final(cell))
    set_numpy_enabled(use_numpy)
    try:
        dictionary: list = []
        index: dict = {}
        states = [GroupedAggregation(num_keys, ["MIN", "MAX"]) for _ in range(2)]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            k1, k2, values = (list(c) for c in zip(*rows[lo:hi]))
            if use_numpy:
                import numpy as np

                k1, k2 = np.asarray(k1), np.asarray(k2)
            column = _minmax_column(encoding, values, dictionary, index, use_numpy)
            state = states[i >= merge_at]
            state.consume([k1, k2][:num_keys], [column, column], hi - lo)
        states[0].merge_from(states[1])
        columns = states[0].result_columns()
    finally:
        set_numpy_enabled(None)
    got = {
        tuple(row[:num_keys]): list(row[num_keys:]) for row in zip(*columns)
    }
    assert got == expected
    assert all(
        type(v) is str for column in columns[num_keys:] for v in column if v is not None
    )


# --------------------------------------------------------------------- #
# dictionary keys: grouping by address
# --------------------------------------------------------------------- #

#: Aggregates over NULL-free ndarray arguments: ``(func, argument)``, the
#: argument one of the batch's int / float columns or None for COUNT(*).
_DICT_KEY_AGGREGATES = [
    ("COUNT", None),
    ("COUNT", "i"),
    ("SUM", "i"),
    ("AVG", "i"),
    ("MIN", "f"),
    ("MAX", "f"),
    ("MIN", "i"),
    ("MAX", "i"),
]


@st.composite
def _dict_key_batches(draw):
    """Batches of ``(width, keys, ints, floats)``: the dictionary holds
    ``width`` values when the batch arrives, and may have grown since the
    batch before, so later batches carry codes earlier ones never saw."""
    batches = []
    width = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 6))):
        width += draw(st.sampled_from([0, 0, 1, 5]))
        n = draw(st.integers(1, 12))
        keys = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
        ints = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        floats = draw(
            st.lists(st.sampled_from([nan, -1.5, 0.0, 2.25, 7.0]), min_size=n, max_size=n)
        )
        batches.append((width, keys, ints, floats))
    return batches


def _dict_key_reference(batches: list) -> tuple[list, dict]:
    """Group order and finalized cells, consumed batch by batch in plain
    Python: a batch opens its new groups in ascending code order."""
    order: list = []
    rows: dict = {}
    for _, keys, ints, floats in batches:
        order += sorted(set(keys) - set(order))
        for key, i, f in zip(keys, ints, floats):
            rows.setdefault(key, []).append({"i": i, "f": f, None: 1})
    cells = {}
    for key, group in rows.items():
        out = []
        for func, arg in _DICT_KEY_AGGREGATES:
            initial, update, final = make_accumulator(func)
            cell = initial
            for row in group:
                cell = update(cell, row[arg])
            out.append(final(cell))
        cells[key] = out
    return order, cells


def _dict_key_args(batch, dictionary: list, index: dict) -> tuple:
    """One batch's ``consume`` arguments, the shared dictionary first
    grown to the batch's width as a column append would."""
    import numpy as np

    from repro.exec.vector import DictVector

    width, keys, ints, floats = batch
    while len(dictionary) < width:
        index[f"v{len(dictionary)}"] = len(dictionary)
        dictionary.append(f"v{len(dictionary)}")
    columns = {"i": np.asarray(ints, dtype=np.int64), "f": np.asarray(floats)}
    return (
        [DictVector(np.asarray(keys, dtype=np.int64), dictionary, index)],
        [None if arg is None else columns[arg] for _, arg in _DICT_KEY_AGGREGATES],
        len(keys),
    )


def _dict_key_state(batches: list, dictionary: list, index: dict) -> GroupedAggregation:
    state = GroupedAggregation(1, [func for func, _ in _DICT_KEY_AGGREGATES])
    for batch in batches:
        state.consume(*_dict_key_args(batch, dictionary, index))
    return state


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@settings(max_examples=80, deadline=None)
@given(
    batches=_dict_key_batches(),
    split=st.integers(0, 6),
    how=st.sampled_from(["serial", "merge", "spill"]),
)
def test_dictionary_keyed_grouping_matches_the_reference(batches, split, how):
    """GROUP BY over one dictionary key whose dictionary grows between
    batches equals a plain-Python aggregation, groups in order: consumed
    serially, merged from two partials split at ``split`` (in order), or
    exported at ``split`` and at the end and re-absorbed (the spill round
    trip)."""
    split = min(split, len(batches))
    dictionary: list = []
    index: dict = {}
    set_numpy_enabled(True)
    try:
        state = _dict_key_state(batches[:split], dictionary, index)
        if how == "serial":
            for batch in batches[split:]:
                state.consume(*_dict_key_args(batch, dictionary, index))
            columns = state.result_columns()
            # The output stays typed: codes over the key's dictionary.
            assert vector.dict_vector(columns[0]) is not None
            assert all(vector.is_ndarray(c) for c in columns[1:])
            order, _ = _dict_key_reference(batches)
        else:
            later = _dict_key_state(batches[split:], dictionary, index)
            if how == "merge":
                state.merge_from(later)
            else:
                frames = [state.export_and_reset(), later.export_and_reset()]
                state = GroupedAggregation(1, [func for func, _ in _DICT_KEY_AGGREGATES])
                for keys, cells in frames:
                    state.absorb(keys, cells)
            columns = state.result_columns()
            first, _ = _dict_key_reference(batches[:split])
            rest, _ = _dict_key_reference(batches[split:])
            order = first + [key for key in rest if key not in first]
    finally:
        set_numpy_enabled(None)
    _, expected = _dict_key_reference(batches)
    keys = vector.as_values(columns[0])
    assert keys == [f"v{code}" for code in order]
    assert state.num_groups == len(order)
    cells = [vector.as_values(column) for column in columns[1:]]
    for g, code in enumerate(order):
        got = [column[g] for column in cells]
        assert norm_rows([got]) == norm_rows([expected[code]]), (code, got)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_dictionary_keys_group_by_address(monkeypatch):
    """A dictionary-keyed COUNT(*) GROUP BY finds each row's group through
    the code-indexed map: no batch sorts (``np.unique``) or binary-searches
    (``searchsorted``) its keys, and no Python dict merge runs per key."""
    import numpy as np

    from repro.exec import grouping
    from repro.relational.column import set_storage_backend

    calls: list[str] = []

    class Recording:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in ("unique", "searchsorted"):
                return attr

            def recorded(*args, **kwargs):
                calls.append(name)
                return attr(*args, **kwargs)

            return recorded

    def merge(self, keys, partials):
        calls.append("_merge")

    names = ["ana", "bo", "cy", "di", "ed"]
    set_numpy_enabled(True)
    set_storage_backend("dict")
    try:
        table = _table({"k": (DataType.STRING, [names[(i * 7) % 5] for i in range(200)])})
        plan = AggregateOp(
            SeqScan(table, "t"), [(col("t.k"), "k")], [AggregateSpec("COUNT", None, "n")]
        )
        monkeypatch.setattr(vector, "_np", Recording())
        monkeypatch.setattr(grouping.GroupedAggregation, "_merge", merge)
        result = execute_plan(plan, columnar=True, batch_size=16)
    finally:
        monkeypatch.undo()
        set_numpy_enabled(None)
        set_storage_backend(None)
    assert calls == []
    # Groups open in ascending code order: the dictionary's first-seen order.
    assert result.rows == [(name, 40) for name in ["ana", "cy", "ed", "bo", "di"]]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_dictionary_count_argument_counts_group_sizes(monkeypatch):
    """A dictionary vector holds no NULLs, so COUNT(x) over one is the group
    size: a dictionary-keyed batch counted over a dictionary vector never
    decodes its strings through the per-value loop and enters the typed
    state, with an ndarray key too."""
    from collections import Counter

    import numpy as np

    from repro.exec import grouping
    from repro.exec.vector import DictVector

    calls: list = []
    original = grouping._segment_reduce_seq

    def recording(func, *args):
        calls.append(func)
        return original(func, *args)

    monkeypatch.setattr(grouping, "_segment_reduce_seq", recording)
    names = ["ana", "bo", "cy", "di", "ed"]
    codes = np.asarray([(i * 7) % 5 for i in range(1024)], dtype=np.int64)
    words = DictVector(codes, names, {name: i for i, name in enumerate(names)})
    sizes = Counter(codes.tolist())
    for key, typed, name_of in ((words, True, names.__getitem__), (codes, False, int)):
        state = GroupedAggregation(1, ["COUNT", "COUNT"])
        state.consume([key], [words, None], len(codes))
        assert calls == []
        assert (state._array is not None) == typed
        rows = zip(*(vector.as_values(column) for column in state.result_columns()))
        assert {k: (n, m) for k, n, m in rows} == {
            name_of(code): (size, size) for code, size in sizes.items()
        }
