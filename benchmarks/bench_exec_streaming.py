"""Executor microbenchmark of the columnar runtime.

Tracks executor throughput over time (``BENCH_exec.json`` at the repo
root).  The SQL/PGQ queries run through the engine's one profile —
**columnar**: the vectorized runtime (struct-of-arrays batches, selection
vectors, column-at-a-time kernels over typed storage vector views).  Their
graph half has no other body, so a row-protocol arm of the same plan would
time little more than the rows boundary.  The hand-built relational plans
(``groupby_heavy``, ``groupby_highcard``, ``distinct_heavy``) additionally
run the **row** profile — the relational operators' row-tuple bodies, the
reference the columnar ones are checked against — and record
``columnar_speedup``.

Queries cover the hot-loop spectrum: a deep relational pipeline
(scan -> expand -> join -> aggregate), an ``ORDER BY ... LIMIT`` TopK
query (IC2), a filter-heavy scan (selection-vector refinement), and a
high-fan-out two-hop expansion (adaptive chunk sizing).

Per-query times are the **minimum** over ``REPETITIONS`` runs — the robust
estimator for sub-millisecond measurements on shared runners (scheduler
noise only ever adds time).

A **parallel** section sweeps three scenarios (``parallel_scan``,
``parallel_expand``, ``parallel_groupby``) across morsel-driven
parallelism 1/2/4 on the same plans: parallelism 1 executes the unchanged
serial engine (the PR-4 baseline), so the recorded speedups are
like-for-like; every level must return byte-identical canonical rows and
``rows_produced``.

A **lifecycle** section measures the query-lifecycle machinery armed
(query deadline + never-firing fault schedule + bounded memory governor)
against the bare default on the same plans — results must stay
byte-identical, and the recorded overhead ratio is the price of arming
every cooperative check at every batch boundary.

A **strings** section measures the dictionary-encoded string backend (the
engine default) against ``REPRO_STORAGE=list`` — strings as plain lists,
read through '<U' ndarray views — re-run live in the same process with
the same plans, data and min-over-repetitions estimator, so
``dict_speedup`` is a like-for-like ratio — across a string-equality
filter, a string-keyed hash join and a string-keyed aggregation,
asserting byte-identical results and reporting per-column resident bytes
for both backends.

Alongside the query profiles, a storage microbench section tracks the
storage substrate itself: bulk-load throughput (``Table.extend`` into the
default backend's ``array.array`` / dictionary columns vs plain-list
columns), pk-index build + lookup, and the same filter-scan query
executed in every cell of the storage x numpy matrix.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.conftest import RESULTS_DIR, bench_scale, save_report
from repro.core.sqlpgq import parse_and_bind
from repro.exec import execute_plan, set_numpy_enabled
from repro.graph.index import build_graph_index
from repro.relational.column import set_storage_backend
from repro.relational.expr import and_, col, eq, lit, ne
from repro.relational.logical import AggregateSpec
from repro.relational.physical import (
    AggregateOp,
    DistinctOp,
    FilterOp,
    HashJoin,
    SeqScan,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.systems import make_system
from repro.workloads.ldbc import LdbcParams, generate_ldbc
from repro.workloads.ldbc import ic_queries

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_exec.json"

REPETITIONS = 25

#: The tracked scale: the acceptance gates below (strings, spill, serving)
#: are calibrated at it; other scales only get the loose smoke bounds.
DEFAULT_SCALE = 0.6

PIPELINE_SQL = """
SELECT g.fn AS fn, COUNT(*) AS cnt FROM GRAPH_TABLE (snb
  MATCH (p:person)-[:knows]->(f:person)<-[:has_creator]-(m:post)
  COLUMNS (f.first_name AS fn)) g
GROUP BY g.fn
"""

# Filter-heavy scan: two pushed-down conjuncts plus an outer residual
# filter — all selection-vector refinement on the columnar path.
FILTER_SCAN_SQL = """
SELECT g.content AS content FROM GRAPH_TABLE (snb
  MATCH (m:post)
  WHERE m.creation_date <= '2024-06-01' AND m.length > 40
  COLUMNS (m.content AS content, m.length AS len)) g
WHERE g.len < 190
"""

# High-fan-out expansion: two knows-hops multiply rows before aggregation,
# exercising the adaptive expansion chunk sizing.
FANOUT_SQL = """
SELECT g.a AS a, COUNT(*) AS paths FROM GRAPH_TABLE (snb
  MATCH (p0:person)-[:knows]->(p1:person)-[:knows]->(p2:person)
  COLUMNS (p0.first_name AS a)) g
GROUP BY g.a
"""

TOPK_SQL_NAME = "IC2"  # MATCH ... ORDER BY cdate DESC LIMIT 20


def _orderby_limit_cases() -> dict[str, str]:
    """The three ORDER BY ... LIMIT shapes the ordering kernel serves: a
    single key, two keys of opposite directions (the later one ranked only
    for rows tied at the cut), and a key the SELECT list drops (the limit
    must still land beneath the projection, as a TOPK)."""
    single = ic_queries()[TOPK_SQL_NAME]
    order = "ORDER BY cdate DESC LIMIT"
    assert order in single and order in ic_queries()["IC9-1"]
    return {
        "orderby_limit": single,
        "orderby_limit_mixed": single.replace(
            order, "ORDER BY cdate DESC, content ASC LIMIT"
        ),
        "orderby_limit_dropped": ic_queries()["IC9-1"],
    }


def _profile(plan, columnar: bool, repetitions: int = REPETITIONS) -> dict:
    """One execution profile of one physical plan: minimum wall time over
    ``repetitions`` runs plus the run's exact counters.  Plans are stateless
    across executions (the parity suite relies on the same property), so
    repetitions rerun the same plan."""
    times, result = [], None
    for _ in range(repetitions):
        started = time.perf_counter()
        result = execute_plan(plan, columnar=columnar)
        times.append(time.perf_counter() - started)
    assert result is not None
    return {
        "time_ms": min(times) * 1000,
        "rows_produced": result.rows_produced,
        "peak_buffered_rows": result.peak_buffered_rows,
        "result_rows": len(result),
    }


def _measure(catalog, sql: str) -> dict:
    """One SQL/PGQ query: optimize once (this bench tracks *executor*
    throughput), then the columnar profile of its plan."""
    system = make_system("relgo", catalog, "snb")
    plan = system.optimize(parse_and_bind(sql, catalog)).physical
    return {"columnar": _profile(plan, columnar=True)}


# --------------------------------------------------------------------- #
# grouped aggregation / distinct scenario (NULL/NaN-bearing, multi-key)
# --------------------------------------------------------------------- #

REGIONS = ["apac", "emea", "amer", "anz", "mena", "nordics", "latam", "ssa"]
NAN = float("nan")


def _groupby_table(scale: float) -> Table:
    """The ``gb_events`` table: every grouping shape the engine must cover.

    ``region`` is a low-cardinality string key with NULLs (promoted list
    storage), ``bucket`` a high-cardinality int key (typed storage),
    ``fkey`` a low-cardinality float key with NaNs (the canonicalization
    stress), ``amount`` a clean float measure, and ``score`` a NULL-bearing
    float measure (NULL-skipping aggregates).
    """
    n = max(4_000, int(200_000 * scale))
    high_card = max(512, n // 8)
    schema = TableSchema(
        "gb_events",
        [
            Column("id", DataType.INT),
            Column("region", DataType.STRING),
            Column("bucket", DataType.INT),
            Column("fkey", DataType.FLOAT),
            Column("amount", DataType.FLOAT),
            Column("score", DataType.FLOAT),
        ],
        primary_key="id",
    )
    table = Table(schema)
    table.extend_columns(
        [
            list(range(n)),
            [
                None if i % 13 == 0 else REGIONS[(i * 5) % len(REGIONS)]
                for i in range(n)
            ],
            [(i * 7919) % high_card for i in range(n)],
            [NAN if i % 11 == 0 else float((i * 3) % 4) + 0.5 for i in range(n)],
            [float((i * 17) % 1000) / 8.0 for i in range(n)],
            [None if i % 7 == 0 else float(i % 100) / 9.0 for i in range(n)],
        ],
        validate=False,
    )
    return table


def _groupby_plans(table: Table) -> dict:
    aggs = [
        AggregateSpec("COUNT", None, "cnt"),
        AggregateSpec("SUM", col("t.amount"), "total"),
        AggregateSpec("MIN", col("t.amount"), "lo"),
        AggregateSpec("MAX", col("t.amount"), "hi"),
        AggregateSpec("AVG", col("t.score"), "avg_score"),
    ]
    return {
        # Multi-key grouping over NULL- and NaN-bearing keys with the full
        # aggregate set — the general-aggregation path.
        "groupby_heavy": AggregateOp(
            SeqScan(table, "t"),
            [(col("t.region"), "region"), (col("t.fkey"), "fkey")],
            aggs,
        ),
        # Single high-cardinality typed key (cardinality ~ rows/8): the
        # typed searchsorted/scatter global state.
        "groupby_highcard": AggregateOp(
            SeqScan(table, "t"),
            [(col("t.bucket"), "bucket")],
            [
                AggregateSpec("COUNT", None, "cnt"),
                AggregateSpec("SUM", col("t.amount"), "total"),
            ],
        ),
        # Near-unique DISTINCT over mixed storage with NaN keys — the
        # canonical-dedup worst case (three columns: the seen-set walk).
        "distinct_heavy": DistinctOp(
            SeqScan(table, "t", projected=["region", "bucket", "fkey"]),
        ),
    }


def _measure_plan(plan) -> dict:
    """Both protocols of one hand-built relational plan."""
    columnar = _profile(plan, columnar=True)
    row = _profile(plan, columnar=False)
    return {
        "columnar": columnar,
        "row": row,
        "columnar_speedup": row["time_ms"] / max(columnar["time_ms"], 1e-9),
    }


def _measure_groupby(scale: float) -> dict:
    table = _groupby_table(scale)
    return {name: _measure_plan(plan) for name, plan in _groupby_plans(table).items()}


def test_bench_groupby_smoke():
    """Standalone smoke for the grouping engine (CI's numpy and list legs).

    Runs only the gb_events scenario — no LDBC fixtures, no JSON output —
    and pins the semantics alongside the perf sanity bounds: a single NaN
    group per (region, NaN) combination, identical results and buffered
    peaks across engines.
    """
    results = _measure_groupby(min(bench_scale(), 0.25))
    for name, r in results.items():
        assert r["columnar"]["result_rows"] == r["row"]["result_rows"], name
        assert r["columnar"]["rows_produced"] == r["row"]["rows_produced"], name
        assert (
            r["columnar"]["peak_buffered_rows"] <= r["row"]["peak_buffered_rows"]
        ), name
        assert r["columnar_speedup"] > 0.5, name
    # NaN keys collapse into one group per region: without canonicalization
    # groupby_heavy would emit one row per NaN input (~rows/11).
    assert results["groupby_heavy"]["columnar"]["result_rows"] <= 64


# --------------------------------------------------------------------- #
# morsel-driven parallel execution scenarios
# --------------------------------------------------------------------- #

#: Degrees of parallelism the parallel scenarios sweep.  ``serial_ms`` (at
#: parallelism 1) is the like-for-like PR-4 serial engine baseline: the
#: serial execution path is unchanged by the scheduler (``parallelism=1``
#: executes the original plan tree), so the p2/p4 speedups are measured
#: against the engine the previous PR shipped, on the same machine, with
#: the same min-over-repetitions estimator.
PARALLEL_LEVELS = (1, 2, 4)


def _nan_safe_rows(rows: list) -> list:
    """Rows with NaN normalized so byte-identical results compare equal."""
    return [tuple("NaN" if v != v else v for v in row) for row in rows]


def _measure_parallel_plan(plan, repetitions: int = REPETITIONS) -> dict:
    """One plan swept across :data:`PARALLEL_LEVELS`.

    Results must be byte-identical across every level (canonical row order
    — the engine's own cross-batch-size guarantee) with equal
    ``rows_produced`` (the exchange is transport and never emits); the
    sweep records per-level minima and speedups vs the serial baseline.
    """
    times: dict[int, float] = {}
    reference = None
    result_rows = 0
    for level in PARALLEL_LEVELS:
        best, result = float("inf"), None
        for _ in range(repetitions):
            started = time.perf_counter()
            result = execute_plan(plan, columnar=True, parallelism=level)
            best = min(best, time.perf_counter() - started)
        assert result is not None
        observed = (_nan_safe_rows(result.sorted_rows()), result.rows_produced)
        if reference is None:
            reference = observed
            result_rows = len(result)
        else:
            assert observed[0] == reference[0], f"parallelism={level} rows diverge"
            assert observed[1] == reference[1], f"parallelism={level} rows_produced"
        times[level] = best * 1000
    serial_ms = times[PARALLEL_LEVELS[0]]
    out = {"serial_ms": serial_ms}
    for level in PARALLEL_LEVELS[1:]:
        out[f"p{level}_ms"] = times[level]
        out[f"speedup_p{level}"] = serial_ms / max(times[level], 1e-9)
    out["result_rows"] = result_rows
    out["cores"] = os.cpu_count()
    return out


def _parallel_plans(catalog, scale: float) -> dict:
    """The three parallel scenarios: scan-, expand- and groupby-bound."""
    system = make_system("relgo", catalog, "snb")
    gb_table = _groupby_table(scale)
    return {
        # Selection-heavy scan: pushed-down numpy mask evaluation dominates
        # — the morsel chain is scan + selection refinement per worker.
        "parallel_scan": system.optimize(
            parse_and_bind(FILTER_SCAN_SQL, catalog)
        ).physical,
        # Two knows-hops: per-worker CSR repeat/cumsum/fancy-index
        # expansion feeding a per-worker partial aggregation fold.
        "parallel_expand": system.optimize(
            parse_and_bind(FANOUT_SQL, catalog)
        ).physical,
        # High-cardinality grouping: per-worker GroupedAggregation partials
        # (typed array state) merged in morsel order.
        "parallel_groupby": AggregateOp(
            SeqScan(gb_table, "t"),
            [(col("t.bucket"), "bucket")],
            [
                AggregateSpec("COUNT", None, "cnt"),
                AggregateSpec("SUM", col("t.amount"), "total"),
            ],
        ),
    }


def _measure_parallel(
    catalog, scale: float, repetitions: int = REPETITIONS
) -> dict:
    return {
        name: _measure_parallel_plan(plan, repetitions)
        for name, plan in _parallel_plans(catalog, scale).items()
    }


def test_bench_parallel_smoke():
    """Standalone parallel-vs-serial smoke (CI's tier1-parallel legs).

    Builds its own tiny LDBC catalog, sweeps every parallel scenario
    across parallelism 1/2/4, and pins the byte-for-byte contract: the
    sweep itself asserts identical canonical rows and ``rows_produced``
    at every level.  Wall-clock speedup is *recorded*, not asserted — CI
    runners (and this repo's 1-core containers) cannot promise cores —
    except for a very loose no-pathology bound.
    """
    scale = min(bench_scale(), 0.25)
    catalog, mapping = generate_ldbc(LdbcParams.scaled(scale, seed=7))
    catalog.register_graph_index(build_graph_index(mapping))
    results = _measure_parallel(catalog, scale, repetitions=5)
    top = f"speedup_p{PARALLEL_LEVELS[-1]}"
    for name, r in results.items():
        # Thread + exchange overhead must never be catastrophic, even on a
        # single core (recorded speedups on a 4-core runner are the real
        # acceptance signal; see BENCH_exec.json).
        assert r[top] > 0.2, (name, r)
        assert r["result_rows"] > 0 or name == "parallel_scan", name


# --------------------------------------------------------------------- #
# query lifecycle overhead (armed deadline + faults + governor vs bare)
# --------------------------------------------------------------------- #

#: A firing schedule no realistic run ever reaches: arms every lifecycle
#: hook (the CI chaos leg's configuration) without changing behavior.
NEVER_FIRES = "kind=error,after=1000000000"


def _measure_lifecycle(catalog, scale: float, repetitions: int = REPETITIONS) -> dict:
    """Armed-vs-unarmed lifecycle cost on the executor-bound queries.

    The **bare** leg is the default configuration: no deadline, no fault
    schedule, unbounded governor — the serial hot path pays one ``is
    None`` test per batch boundary.  The **armed** leg runs the same plans
    with a (generous) query deadline, an armed-but-never-firing fault
    schedule and a bounded memory governor, i.e. every lifecycle check
    live at every batch boundary.  Results must stay byte-identical; the
    recorded overhead ratio is the price of turning the machinery on.
    """
    from repro.exec import MemoryGovernor

    system = make_system("relgo", catalog, "snb")
    plans = {
        "deep_pipeline": system.optimize(
            parse_and_bind(PIPELINE_SQL, catalog)
        ).physical,
        "filter_scan": system.optimize(
            parse_and_bind(FILTER_SCAN_SQL, catalog)
        ).physical,
    }
    governor = MemoryGovernor(total_rows=1 << 40)
    out: dict[str, dict] = {}
    for name, plan in plans.items():
        def run(armed: bool):
            times, result = [], None
            for _ in range(repetitions):
                started = time.perf_counter()
                if armed:
                    result = execute_plan(
                        plan,
                        columnar=True,
                        timeout=300.0,
                        faults=NEVER_FIRES,
                        governor=governor,
                    )
                else:
                    result = execute_plan(plan, columnar=True)
                times.append(time.perf_counter() - started)
            assert result is not None
            return min(times) * 1000, result

        bare_ms, bare = run(armed=False)
        armed_ms, armed = run(armed=True)
        assert _nan_safe_rows(armed.sorted_rows()) == _nan_safe_rows(
            bare.sorted_rows()
        ), name
        assert armed.rows_produced == bare.rows_produced, name
        assert armed.peak_buffered_rows == bare.peak_buffered_rows, name
        out[name] = {
            "bare_ms": bare_ms,
            "armed_ms": armed_ms,
            "armed_overhead": armed_ms / max(bare_ms, 1e-9),
        }
    assert governor.active_leases == 0 and governor.leased_rows == 0
    return out


def test_bench_lifecycle_smoke():
    """Standalone lifecycle-overhead smoke: armed deadline/fault/governor
    legs must return byte-identical results (asserted inside the sweep)
    and cost no more than a loose no-pathology factor at smoke scale."""
    scale = min(bench_scale(), 0.25)
    catalog, mapping = generate_ldbc(LdbcParams.scaled(scale, seed=7))
    catalog.register_graph_index(build_graph_index(mapping))
    results = _measure_lifecycle(catalog, scale, repetitions=5)
    for name, r in results.items():
        # Cooperative checks are one attribute test + clock read per batch
        # boundary; anything beyond 2x on a min-over-reps estimate means a
        # lock or syscall crept onto the hot path.
        assert r["armed_overhead"] < 2.0, (name, r)


# --------------------------------------------------------------------- #
# spill-to-disk degradation curve (out-of-core vs in-memory)
# --------------------------------------------------------------------- #

#: Working-set fractions the degradation curve sweeps: 1x is the query's
#: own in-memory peak (spilling barely engages), 0.25x is deep past the
#: memory cliff where an unspilled run with that budget would OOM.
SPILL_FRACTIONS = (1.0, 0.5, 0.25)


def _measure_spill(scale: float, repetitions: int = REPETITIONS) -> dict:
    """Graceful-degradation curve for out-of-core execution.

    The scenario is breaker-state-bound on purpose: a high-cardinality
    aggregation (state ~ rows/8 groups) under a full ORDER BY of its
    output, so the working set is aggregation state + sort buffer +
    RESULT accumulation — the state the spill machinery moves to disk.

    The **in-memory** leg is the default (disarmed) configuration.  The
    **armed-idle** leg arms a spill threshold far above the query's
    working set — the price of the one ``spill_limit() is not None`` test
    per pipeline breaker, gated < 1.1x at the tracked scale.  The
    **degradation** sweep then caps the working set at 1x / 0.5x / 0.25x
    of the query's measured in-memory peak: every run must return the
    same row set while keeping its tracked peak at or under the cap, and
    the recorded slowdown is the price of going out-of-core.
    """
    from repro.exec import ExecutionContext, SpillConfig, SpillManager
    from repro.relational.physical import SortOp

    table = _groupby_table(scale)
    plan = SortOp(
        AggregateOp(
            SeqScan(table, "t"),
            [(col("t.bucket"), "bucket")],
            [
                AggregateSpec("COUNT", None, "cnt"),
                AggregateSpec("SUM", col("t.amount"), "total"),
            ],
        ),
        [(col("total"), False), (col("bucket"), True)],
    )

    def run(spill) -> tuple[float, object, int, int]:
        times, result, files, written = [], None, 0, 0
        for _ in range(repetitions):
            started = time.perf_counter()
            if spill is None:
                result = execute_plan(plan, columnar=True, spill=False)
            else:
                ctx = ExecutionContext()
                manager = SpillManager(spill).bind(ctx)
                ctx.spill = manager
                try:
                    result = execute_plan(plan, columnar=True, ctx=ctx)
                finally:
                    files = manager.files_created
                    written = manager.bytes_written
                    manager.close()
            times.append(time.perf_counter() - started)
        assert result is not None
        return min(times) * 1000, result, files, written

    bare_ms, bare, _, _ = run(None)
    working_set = bare.peak_buffered_rows
    idle_ms, idle, idle_files, _ = run(SpillConfig(threshold_rows=1 << 40))
    assert idle_files == 0  # armed-idle must never touch disk
    assert _nan_safe_rows(idle.sorted_rows()) == _nan_safe_rows(bare.sorted_rows())
    out: dict = {
        "working_set_rows": working_set,
        "in_memory_ms": bare_ms,
        "armed_idle_ms": idle_ms,
        "armed_idle_overhead": idle_ms / max(bare_ms, 1e-9),
        "degradation": {},
    }
    for fraction in SPILL_FRACTIONS:
        cap = max(256, int(working_set * fraction))
        ms, result, files, written = run(SpillConfig(threshold_rows=cap))
        assert _nan_safe_rows(result.sorted_rows()) == _nan_safe_rows(
            bare.sorted_rows()
        ), fraction
        out["degradation"][f"{fraction:g}x"] = {
            "threshold_rows": cap,
            "time_ms": ms,
            "slowdown": ms / max(bare_ms, 1e-9),
            "peak_buffered_rows": result.peak_buffered_rows,
            "spill_files": files,
            "spill_bytes": written,
        }
    return out


def test_bench_spill_smoke():
    """Standalone out-of-core smoke: the degradation sweep must return the
    in-memory row set at every working-set cap (asserted inside the
    sweep), actually hit the disk past the cliff, and armed-idle must
    stay within a loose no-pathology factor at smoke scale."""
    scale = min(bench_scale(), 0.25)
    results = _measure_spill(scale, repetitions=5)
    # Arming is one attribute test per breaker; anything beyond a loose
    # noise bound on a min-over-reps estimate means work crept onto the
    # disarmed hot path.  (The tracked-scale bench gates this at 1.1x.)
    assert results["armed_idle_overhead"] < 1.5, results
    quarter = results["degradation"]["0.25x"]
    assert quarter["spill_files"] > 0, quarter  # the cliff was real
    assert quarter["peak_buffered_rows"] <= results["working_set_rows"]


# --------------------------------------------------------------------- #
# dictionary-encoded string scenarios (dict backend vs plain lists)
# --------------------------------------------------------------------- #

#: Storage backends the string scenarios compare: the dictionary-encoded
#: default against ``REPRO_STORAGE=list`` (strings as plain lists / '<U'
#: vector views).  The list leg re-measures that baseline live in the
#: same process, so the recorded ``dict_speedup`` is machine- and
#: estimator-matched.
STRING_BACKENDS = ("dict", "list")


def _string_tables(n: int) -> tuple[Table, Table]:
    """A string-dominated fact table plus a string-keyed dimension.

    ``name`` is a repetitive URL-shaped string key (cardinality ~ n/64,
    the dictionary sweet spot; the long shared prefix is what real string
    keys — URLs, paths, emails — look like, and what makes row-at-a-time
    comparisons expensive), ``tag`` a low-cardinality string attribute,
    ``v`` a small int payload.  The dimension holds a 1-in-16 sample of
    the distinct names with a group label, so the join is probe-bound
    (every fact row resolves its key; most rows miss): the scenario
    measures string-key matching, not match-output assembly."""
    card = max(512, n // 64)
    fact_schema = TableSchema(
        "str_events",
        [
            Column("id", DataType.INT),
            Column("name", DataType.STRING),
            Column("tag", DataType.STRING),
            Column("v", DataType.INT),
        ],
        primary_key="id",
    )
    fact = Table(fact_schema)
    fact.extend_columns(
        [
            list(range(n)),
            [
                f"https://example.com/profiles/user-{(i * 7919) % card}"
                for i in range(n)
            ],
            [f"app/events/category/tag-{(i * 31) % 23}" for i in range(n)],
            [(i * 13) % 1000 for i in range(n)],
        ],
        validate=False,
    )
    dim_schema = TableSchema(
        "str_names",
        [Column("name", DataType.STRING), Column("grp", DataType.STRING)],
        primary_key="name",
    )
    dim = Table(dim_schema)
    dim.extend_columns(
        [
            [
                f"https://example.com/profiles/user-{j}"
                for j in range(0, card, 16)
            ],
            [f"g{j % 8}" for j in range(0, card, 16)],
        ],
        validate=False,
    )
    return fact, dim


def _string_plans(fact: Table, dim: Table) -> dict:
    return {
        # Two string conjuncts: an equality against an interned value and
        # a low-selectivity <> — on the dict backend both compile to int
        # code compares (one dictionary lookup per literal).
        "string_filter": FilterOp(
            SeqScan(fact, "f"),
            and_(
                ne(col("f.tag"), lit("app/events/category/tag-7")),
                eq(
                    col("f.name"),
                    lit("https://example.com/profiles/user-101"),
                ),
            ),
        ),
        # String-keyed hash join with probe-side misses: build buckets and
        # probe matches resolve through per-dictionary code caches.
        "string_join": HashJoin(
            SeqScan(fact, "f", projected=["name", "v"]),
            SeqScan(dim, "d"),
            ["f.name"],
            ["d.name"],
        ),
        # String-keyed aggregation: dictionary codes are ready-made dense
        # group codes, so grouping never sorts '<U' data.
        "string_groupby": AggregateOp(
            SeqScan(fact, "f", projected=["name", "v"]),
            [(col("f.name"), "name")],
            [
                AggregateSpec("COUNT", None, "cnt"),
                AggregateSpec("SUM", col("f.v"), "total"),
            ],
        ),
    }


def _measure_string_scenarios(
    scale: float, repetitions: int = REPETITIONS
) -> dict:
    """Each scenario under both backends; byte-identical results pinned."""
    n = max(4_000, int(200_000 * scale))
    runs: dict[str, dict] = {}
    memory: dict[str, dict] = {}
    for backend in STRING_BACKENDS:
        set_storage_backend(backend)
        try:
            fact, dim = _string_tables(n)
        finally:
            set_storage_backend(None)
        memory[backend] = {
            "str_events": fact.memory_bytes(),
            "str_names": dim.memory_bytes(),
        }
        measured = {}
        for name, plan in _string_plans(fact, dim).items():
            times, result = [], None
            for _ in range(repetitions):
                started = time.perf_counter()
                result = execute_plan(plan, columnar=True)
                times.append(time.perf_counter() - started)
            assert result is not None
            measured[name] = (min(times) * 1000, result)
        runs[backend] = measured
    out: dict[str, dict] = {}
    for name, (dict_ms, dict_result) in runs["dict"].items():
        list_ms, list_result = runs["list"][name]
        assert dict_result.sorted_rows() == list_result.sorted_rows(), name
        assert dict_result.rows_produced == list_result.rows_produced, name
        out[name] = {
            "rows": n,
            "dict_ms": dict_ms,
            "list_ms": list_ms,
            "result_rows": len(dict_result),
            "dict_speedup": list_ms / max(dict_ms, 1e-9),
        }
    name_bytes = {
        backend: memory[backend]["str_events"]["name"]
        for backend in STRING_BACKENDS
    }
    out["memory_bytes"] = {
        **memory,
        "name_column_compression": name_bytes["list"]
        / max(name_bytes["dict"], 1),
    }
    return out


def test_bench_strings_smoke():
    """Standalone dict-vs-list smoke (CI's dict-backend leg): identical
    results are asserted inside the sweep; speedups are recorded, with
    only a loose no-pathology bound at smoke scale."""
    results = _measure_string_scenarios(min(bench_scale(), 0.25), repetitions=5)
    for name in ("string_filter", "string_join", "string_groupby"):
        assert results[name]["result_rows"] > 0, name
        assert results[name]["dict_speedup"] > 0.5, (name, results[name])
    # The dictionary must actually compress the repetitive key column.
    assert results["memory_bytes"]["name_column_compression"] > 1.5


# --------------------------------------------------------------------- #
# storage microbenches
# --------------------------------------------------------------------- #


def _bulk_rows(n: int) -> list[tuple]:
    return [
        (i, f"content {i}", 20 + (i * 13) % 180, f"{2020 + i % 5:04d}-06-15")
        for i in range(n)
    ]


def _post_schema() -> TableSchema:
    return TableSchema(
        "bench_post",
        [
            Column("id", DataType.INT),
            Column("content", DataType.STRING),
            Column("length", DataType.INT),
            Column("creation_date", DataType.DATE),
        ],
        primary_key="id",
    )


def _time_best(fn, repetitions: int = 5) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1000


def _bench_bulk_load(rows: list[tuple]) -> dict:
    def load() -> Table:
        return Table(_post_schema(), rows=rows, validate=False)

    # Column-major ingestion: what a loader that accumulates columns (the
    # workload generators since this PR) actually pays — no row-tuple
    # transpose.  The transpose below is setup, not measured work.
    columns = [list(c) for c in zip(*rows)]

    def load_columns() -> Table:
        table = Table(_post_schema())
        table.extend_columns(columns, validate=False)
        return table

    # The default (dict) backend fills typed buffers and interns every
    # string on ingest: a real load-side cost the query-side wins pay for.
    dict_ms = _time_best(load)
    columns_ms = _time_best(load_columns)
    set_storage_backend("list")
    try:
        list_ms = _time_best(load)
    finally:
        set_storage_backend(None)
    return {
        "rows": len(rows),
        "dict_ms": dict_ms,
        "columns_ms": columns_ms,
        "list_ms": list_ms,
        "dict_vs_list": list_ms / max(dict_ms, 1e-9),
        "columns_vs_rows": dict_ms / max(columns_ms, 1e-9),
        "columns_vs_list": list_ms / max(columns_ms, 1e-9),
    }


def _bench_pk_lookup(rows: list[tuple]) -> dict:
    keys = [row[0] for row in rows[:: max(1, len(rows) // 20_000)]]

    def build_and_probe(table: Table) -> int:
        table._pk_index = None  # force an index rebuild
        lookup = table.pk_lookup
        hits = 0
        for key in keys:
            if lookup(key) is not None:
                hits += 1
        return hits

    typed_table = Table(_post_schema(), rows=rows, validate=False)
    typed_ms = _time_best(lambda: build_and_probe(typed_table))
    set_storage_backend("list")
    try:
        list_table = Table(_post_schema(), rows=rows, validate=False)
    finally:
        set_storage_backend(None)
    list_ms = _time_best(lambda: build_and_probe(list_table))
    return {
        "rows": len(rows),
        "lookups": len(keys),
        "typed_ms": typed_ms,
        "list_ms": list_ms,
        "typed_speedup": list_ms / max(typed_ms, 1e-9),
    }


#: The storage x numpy matrix, by cell: (storage backend, numpy on) — the
#: cells of the test suite's ``storage_mode`` fixture.
STORAGE_CELLS = {
    "dict": ("dict", True),
    "numpy": ("list", True),
    "array": ("dict", False),
    "list": ("list", False),
}


def _bench_storage_query(scale: float) -> dict:
    """The filter-scan query in every storage x numpy cell, each against
    a catalog built under the cell's storage backend."""

    def run_mode(mode: str) -> float:
        backend, use_numpy = STORAGE_CELLS[mode]
        set_numpy_enabled(use_numpy)
        set_storage_backend(backend)
        try:
            catalog, mapping = generate_ldbc(LdbcParams.scaled(scale, seed=7))
            catalog.register_graph_index(build_graph_index(mapping))
            system = make_system("relgo", catalog, "snb")
            query = parse_and_bind(FILTER_SCAN_SQL, catalog)
            times = []
            for _ in range(REPETITIONS):
                optimized = system.optimize(query)
                started = time.perf_counter()
                execute_plan(optimized.physical, columnar=True)
                times.append(time.perf_counter() - started)
            return min(times) * 1000
        finally:
            set_numpy_enabled(None)
            set_storage_backend(None)

    ms = {mode: run_mode(mode) for mode in STORAGE_CELLS}
    return {
        "query": "filter_scan",
        **{f"{mode}_ms": value for mode, value in ms.items()},
        "numpy_vs_list": ms["list"] / max(ms["numpy"], 1e-9),
        "dict_vs_list": ms["list"] / max(ms["dict"], 1e-9),
    }


# --------------------------------------------------------------------- #
# serving: plan cache + concurrent-session throughput
# --------------------------------------------------------------------- #

#: One parameterized shape: every execution differs only in the literal,
#: so after the first optimize the whole workload is rebind + execute.
SERVING_SQL = (
    "SELECT g.fn AS fn FROM GRAPH_TABLE (snb "
    "MATCH (p:person)-[:knows]->(f:person) "
    "WHERE p.first_name = '{v}' "
    "COLUMNS (f.first_name AS fn)) g"
)

#: The same shape with a DB-API placeholder: the prepared-statement hot
#: path probes the shared plan cache with a fingerprint built from the
#: merged params (no text scan).
SERVING_SQL_PARAM = (
    "SELECT g.fn AS fn FROM GRAPH_TABLE (snb "
    "MATCH (p:person)-[:knows]->(f:person) "
    "WHERE p.first_name = ? "
    "COLUMNS (f.first_name AS fn)) g"
)

SERVING_SESSIONS = 4
SERVING_QUERIES = 50
WIRE_ROUND_TRIPS = 40


def _measure_serving(scale: float) -> dict:
    """Plan-cache speedup (cold optimize vs hot rebind) and session QPS.

    ``cold_ms`` is the full frontend per call (cache cleared each run:
    fingerprint miss -> parse -> bind -> optimize -> execute); ``hot_ms``
    is the same query text answered from the cache (fingerprint hit ->
    rebind -> execute).  Both run on a pre-warmed Database (index,
    statistics and GLogue built by ``prepare()``), so the ratio isolates
    exactly what the cache removes.  The throughput phase then runs
    ``SERVING_SESSIONS`` concurrent sessions x ``SERVING_QUERIES`` queries
    of that shape with rotating literals against the shared cache.
    """
    import threading

    from repro.serving import Database
    from repro.workloads.ldbc.generator import FIRST_NAMES

    catalog, mapping = generate_ldbc(LdbcParams.scaled(scale, seed=7))
    catalog.register_graph_index(build_graph_index(mapping))
    db = Database(catalog=catalog)
    db.warmup()

    values = list(FIRST_NAMES[:16])
    session = db.connect()
    # Result parity: the rebound plan answers exactly like a fresh parse.
    db.plan_cache.clear()
    cold_rows = session.execute(SERVING_SQL.format(v=values[0])).sorted_rows()
    hot_rows = session.execute(SERVING_SQL.format(v=values[0])).sorted_rows()
    assert cold_rows == hot_rows

    cold_times = []
    for i in range(min(REPETITIONS, 10)):
        db.plan_cache.clear()
        started = time.perf_counter()
        session.execute(SERVING_SQL.format(v=values[i % len(values)]))
        cold_times.append(time.perf_counter() - started)
    # Prepared-statement hot path: bind params straight into the cached
    # template — no fingerprint scan, no literal re-splice, no cache probe.
    # Result parity with the literal form first; then the hot and prepared
    # loops run interleaved so clock drift (turbo, throttling, GC phase)
    # hits both sides equally instead of whichever loop runs later.
    stmt = session.prepare(SERVING_SQL_PARAM)
    prepared_rows = stmt.execute([values[0]]).sorted_rows()
    assert prepared_rows == hot_rows
    hot_times = []
    prepared_times = []
    for i in range(REPETITIONS):
        v = values[i % len(values)]
        started = time.perf_counter()
        session.execute(SERVING_SQL.format(v=v))
        hot_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        stmt.execute([v])
        prepared_times.append(time.perf_counter() - started)
    stmt.close()
    session.close()
    cold_ms = min(cold_times) * 1000
    hot_ms = min(hot_times) * 1000
    prepared_ms = min(prepared_times) * 1000

    # Wire round-trip: the same hot shape through a real socket (framing +
    # JSON + scheduling on the shared pool), prepared server-side.
    from repro.serving import Client, Server

    wire_times = []
    server = Server(db)
    try:
        with Client(server.address) as wire_client:
            wire_stmt = wire_client.prepare(SERVING_SQL_PARAM)
            wire_stmt.execute([values[0]])  # warm the connection + template
            wire_start = time.perf_counter()
            for i in range(WIRE_ROUND_TRIPS):
                t0 = time.perf_counter()
                wire_stmt.execute([values[i % len(values)]])
                wire_times.append(time.perf_counter() - t0)
            wire_wall = time.perf_counter() - wire_start
            wire_stmt.close()
    finally:
        server.close()
    wire_times.sort()
    n_wire = len(wire_times)

    stats = db.plan_cache.stats
    base_hits, base_misses = stats.hits, stats.misses
    latencies: list[float] = []
    lock = threading.Lock()

    def client(worker: int) -> None:
        with db.connect() as ses:
            local = []
            for i in range(SERVING_QUERIES):
                sql = SERVING_SQL.format(v=values[(worker * 7 + i) % len(values)])
                t0 = time.perf_counter()
                ses.execute(sql)
                local.append(time.perf_counter() - t0)
            with lock:
                latencies.extend(local)

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(SERVING_SESSIONS)
    ]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start

    latencies.sort()
    total = len(latencies)
    hits = stats.hits - base_hits
    misses = stats.misses - base_misses
    return {
        "query": "knows_1hop_param",
        "scale": scale,
        "cold_ms": cold_ms,
        "hot_ms": hot_ms,
        "plan_cache_speedup": cold_ms / max(hot_ms, 1e-9),
        "prepared_ms": prepared_ms,
        "prepared_vs_hot": hot_ms / max(prepared_ms, 1e-9),
        "wire": {
            "round_trips": n_wire,
            "p50_ms": wire_times[n_wire // 2] * 1000,
            "p99_ms": wire_times[min(n_wire - 1, int(n_wire * 0.99))] * 1000,
            "qps": n_wire / max(wire_wall, 1e-9),
        },
        "sessions": SERVING_SESSIONS,
        "queries_per_session": SERVING_QUERIES,
        "wall_ms": wall * 1000,
        "p50_ms": latencies[total // 2] * 1000,
        "p99_ms": latencies[min(total - 1, int(total * 0.99))] * 1000,
        "qps": total / max(wall, 1e-9),
        "hit_rate": hits / max(hits + misses, 1),
        "cache": stats.snapshot(),
    }


def test_bench_serving_smoke():
    """The serving section alone, at smoke scale (fast CI leg)."""
    results = _measure_serving(min(bench_scale(), 0.25))
    assert results["hit_rate"] >= 0.9, results
    assert results["plan_cache_speedup"] > 1.0, results
    assert results["qps"] > 0, results
    # Prepared execute skips even the fingerprint scan, so it should at
    # worst tie the plan-cache hot path (loose 1.5x slack for smoke noise
    # on sub-ms calls).
    assert results["prepared_ms"] <= results["hot_ms"] * 1.5, results
    assert results["wire"]["qps"] > 0, results


def test_bench_exec_streaming(benchmark, ldbc10):
    scale = bench_scale()
    bulk_rows = _bulk_rows(max(2_000, int(200_000 * scale)))

    def run():
        return {
            "queries": {
                "deep_pipeline": _measure(ldbc10, PIPELINE_SQL),
                **{
                    name: _measure(ldbc10, sql)
                    for name, sql in _orderby_limit_cases().items()
                },
                "filter_scan": _measure(ldbc10, FILTER_SCAN_SQL),
                "fanout_expand": _measure(ldbc10, FANOUT_SQL),
                **_measure_groupby(scale),
            },
            "parallel": _measure_parallel(ldbc10, scale),
            "lifecycle": _measure_lifecycle(ldbc10, scale),
            "spill": _measure_spill(scale),
            "strings": _measure_string_scenarios(scale),
            # The plan-cache gate tracks front-end (lex/parse/bind/optimize)
            # cost against per-query execution; at larger data scales
            # execution grows while the front-end stays fixed, so the ratio
            # dilutes with no change in the cache itself.  Pin the serving
            # section to the tracked 0.25 sub-scale (same as the smoke
            # test) so the gate measures the cache, not the dataset.
            "serving": _measure_serving(min(scale, 0.25)),
            "microbench": {
                "bulk_load": _bench_bulk_load(bulk_rows),
                "pk_lookup": _bench_pk_lookup(bulk_rows),
                "storage_query": _bench_storage_query(scale),
            },
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    results = measured["queries"]
    parallel = measured["parallel"]
    lifecycle = measured["lifecycle"]
    spill = measured["spill"]
    strings = measured["strings"]
    serving = measured["serving"]
    micro = measured["microbench"]
    doc = {
        "benchmark": "exec_streaming",
        "dataset": "ldbc10",
        "scale": scale,
        "timing": f"min over {REPETITIONS} repetitions",
        "queries": results,
        "parallel": parallel,
        "lifecycle": lifecycle,
        "spill": spill,
        "strings": strings,
        "serving": serving,
        "microbench": micro,
    }
    OUTPUT.write_text(json.dumps(doc, indent=2) + "\n")
    lines = ["Executor columnar runtime (LDBC10)", "=" * 50]
    for name, r in results.items():
        columnar = r["columnar"]
        line = (
            f"{name}: columnar {columnar['time_ms']:.2f} ms "
            f"(peak buffer {columnar['peak_buffered_rows']} rows)"
        )
        if "row" in r:
            line += (
                f" vs row {r['row']['time_ms']:.2f} ms "
                f"-> {r['columnar_speedup']:.2f}x "
                f"(row peak buffer {r['row']['peak_buffered_rows']} rows)"
            )
        lines.append(line)
    lines.append("-" * 50)
    for name, r in parallel.items():
        sweep = ", ".join(
            f"p{level} {r[f'p{level}_ms']:.2f} ms ({r[f'speedup_p{level}']:.2f}x)"
            for level in PARALLEL_LEVELS[1:]
        )
        lines.append(
            f"{name}: serial {r['serial_ms']:.2f} ms, {sweep} "
            f"on {r['cores']} core(s)"
        )
    lines.append("-" * 50)
    for name, r in lifecycle.items():
        lines.append(
            f"lifecycle {name}: bare {r['bare_ms']:.3f} ms vs armed "
            f"{r['armed_ms']:.3f} ms -> {r['armed_overhead']:.3f}x overhead"
        )
    lines.append("-" * 50)
    lines.append(
        f"spill (groupby_highcard + sort, working set "
        f"{spill['working_set_rows']} rows): "
        f"in-memory {spill['in_memory_ms']:.3f} ms, armed-idle "
        f"{spill['armed_idle_ms']:.3f} ms "
        f"({spill['armed_idle_overhead']:.3f}x)"
    )
    for name, r in spill["degradation"].items():
        lines.append(
            f"spill {name} ({r['threshold_rows']} rows): {r['time_ms']:.3f} ms "
            f"({r['slowdown']:.2f}x slower; peak {r['peak_buffered_rows']} rows, "
            f"{r['spill_files']} files, {r['spill_bytes']} bytes)"
        )
    lines.append("-" * 50)
    for name in ("string_filter", "string_join", "string_groupby"):
        r = strings[name]
        lines.append(
            f"{name} ({r['rows']} rows): dict {r['dict_ms']:.3f} ms vs "
            f"list {r['list_ms']:.3f} ms -> {r['dict_speedup']:.2f}x "
            f"({r['result_rows']} rows out)"
        )
    lines.append(
        f"string name column: "
        f"{strings['memory_bytes']['name_column_compression']:.2f}x smaller "
        f"dictionary-encoded "
        f"({strings['memory_bytes']['dict']['str_events']['name']} vs "
        f"{strings['memory_bytes']['list']['str_events']['name']} bytes)"
    )
    lines.append("-" * 50)
    lines.append(
        f"serving ({serving['query']}): cold {serving['cold_ms']:.3f} ms vs "
        f"hot {serving['hot_ms']:.3f} ms -> "
        f"{serving['plan_cache_speedup']:.2f}x plan-cache speedup; "
        f"prepared {serving['prepared_ms']:.3f} ms "
        f"({serving['prepared_vs_hot']:.2f}x vs hot)"
    )
    wire = serving["wire"]
    lines.append(
        f"serving wire round-trip ({wire['round_trips']} calls): "
        f"p50 {wire['p50_ms']:.3f} ms, p99 {wire['p99_ms']:.3f} ms, "
        f"{wire['qps']:.0f} qps"
    )
    lines.append(
        f"serving throughput ({serving['sessions']} sessions x "
        f"{serving['queries_per_session']} queries): "
        f"{serving['qps']:.0f} qps, p50 {serving['p50_ms']:.3f} ms, "
        f"p99 {serving['p99_ms']:.3f} ms, "
        f"hit rate {serving['hit_rate']:.2f}"
    )
    lines.append("-" * 50)
    bl = micro["bulk_load"]
    lines.append(
        f"bulk_load ({bl['rows']} rows): dict {bl['dict_ms']:.2f} ms vs "
        f"list {bl['list_ms']:.2f} ms -> {bl['dict_vs_list']:.2f}x "
        f"(column-major {bl['columns_ms']:.2f} ms, "
        f"{bl['columns_vs_rows']:.2f}x vs row tuples, "
        f"{bl['columns_vs_list']:.2f}x vs list)"
    )
    pk = micro["pk_lookup"]
    lines.append(
        f"pk_lookup ({pk['lookups']} probes over {pk['rows']} rows): typed "
        f"{pk['typed_ms']:.2f} ms vs list {pk['list_ms']:.2f} ms "
        f"-> {pk['typed_speedup']:.2f}x"
    )
    sq = micro["storage_query"]
    lines.append(
        f"storage_query (filter_scan): dict {sq['dict_ms']:.3f} ms, "
        f"numpy {sq['numpy_ms']:.3f} ms, "
        f"array {sq['array_ms']:.3f} ms, list {sq['list_ms']:.3f} ms "
        f"-> dict {sq['dict_vs_list']:.2f}x vs list"
    )
    save_report("exec_streaming", "\n".join(lines))
    relational = {name: r for name, r in results.items() if "row" in r}
    for r in relational.values():
        # Both protocols execute the same plan: identical results, identical
        # per-operator row counts, and the columnar path may never buffer
        # more than the row path — nor be meaningfully slower anywhere
        # (very loose bound: these are minima on noisy CI runners).
        assert r["columnar"]["result_rows"] == r["row"]["result_rows"]
        assert r["columnar"]["rows_produced"] == r["row"]["rows_produced"]
        assert (
            r["columnar"]["peak_buffered_rows"] <= r["row"]["peak_buffered_rows"]
        )
        assert r["columnar_speedup"] > 0.5
    # The vectorized grouping engine must beat the row bodies clearly
    # (recorded speedups are 3-9x; the bound leaves room for runner noise).
    for hot in ("groupby_heavy", "groupby_highcard"):
        assert results[hot]["columnar_speedup"] > 1.2, hot
    for name in _orderby_limit_cases():
        # A TOPK whichever way the key is spelled: k held + k result rows.
        assert results[name]["columnar"]["peak_buffered_rows"] <= 40, name
    # NaN grouping semantics: all NaN keys fall into one group per region
    # combination; the pre-fix engine emitted one output row per NaN input.
    assert results["groupby_heavy"]["columnar"]["result_rows"] <= 64
    # Dictionary-encoding acceptance gate: on the string-dominated
    # scenarios the dict backend must beat plain-list strings — measured
    # live in this same run — by >= 2x at the tracked scale.
    for name in ("string_filter", "string_join", "string_groupby"):
        assert strings[name]["dict_speedup"] > 0.5, (name, strings[name])
        if scale == DEFAULT_SCALE:
            assert strings[name]["dict_speedup"] >= 2.0, (name, strings[name])
    assert strings["memory_bytes"]["name_column_compression"] > 1.5
    # Parallel sweeps assert byte-identical results internally; the loose
    # wall-clock bound only rules out pathological scheduler overhead
    # (recorded speedups depend on the runner's core count).
    for name, r in parallel.items():
        assert r[f"speedup_p{PARALLEL_LEVELS[-1]}"] > 0.2, (name, r)
    # Arming deadline + fault schedule + governor must stay cheap: the
    # cooperative checks are attribute tests and clock reads, never locks.
    for name, r in lifecycle.items():
        assert r["armed_overhead"] < 2.0, (name, r)
    # Arming spill without crossing the threshold is one attribute test
    # per breaker: gated at 1.1x at the tracked scale (looser under smoke
    # noise), and every working-set cap on the degradation curve must
    # keep its tracked peak at or under the in-memory working set.
    idle_bound = 1.1 if scale == DEFAULT_SCALE else 1.5
    assert spill["armed_idle_overhead"] < idle_bound, spill
    for name, r in spill["degradation"].items():
        assert r["peak_buffered_rows"] <= spill["working_set_rows"], (name, r)
    assert spill["degradation"]["0.25x"]["spill_files"] > 0
    # Default-backend bulk loads pay for filling C buffers and interning
    # strings (this unique-heavy content column is the worst case for a
    # dictionary) in exchange for the query-side wins above, bounded here
    # so the intern path never degenerates; the column-major path must
    # erase the row-tuple transpose penalty.
    assert micro["bulk_load"]["columns_vs_rows"] > 1.0
    assert micro["bulk_load"]["dict_vs_list"] > 0.15
    # Serving acceptance gate: a cache hit skips lexer/parser/binder/
    # optimizer entirely, so the hot path must beat the cold path by >= 3x
    # at the tracked scale (loose > 1x bound under smoke noise), and the
    # one-shape throughput workload must run almost entirely on hits (the
    # only misses are the per-variant first executions).
    assert serving["plan_cache_speedup"] > 1.0, serving
    assert serving["hit_rate"] >= 0.9, serving
    # Prepared execute probes the shared cache with no fingerprint
    # scan, so it must not lose to the plan-cache hot path
    # (1.5x slack under smoke noise, a hard >= at the tracked scale).
    assert serving["prepared_ms"] <= serving["hot_ms"] * 1.5, serving
    assert serving["wire"]["qps"] > 0, serving
    if scale == DEFAULT_SCALE:
        assert serving["plan_cache_speedup"] >= 3.0, serving
        assert serving["prepared_ms"] <= serving["hot_ms"], serving
