"""Per-layer numbers: what the spans of a traced pass add up to, and direct
timings of each layer's public functions ("probes").

Every number here is taken from the harness side of a public call.  Span
metrics describe the workload that was traced; probes are the same fixed
micro-measurements in every traced run (they need only an LDBC database),
so one layer's cost can be followed across commits whatever workload the
run was for.  Timings are scaled to full machine speed like the end-to-end
ones.  README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import json
import random
import re
import socket
import time

from harness import Request, at_full_speed, geomean, median, percentile
import mix

# ---------------------------------------------------------------------- #
# from spans
# ---------------------------------------------------------------------- #

ROOT_SPAN = "serving.database.execute"


def span_metrics(spans) -> dict[str, float]:
    """Aggregate one process's spans into front-end and share metrics.

    Compile-stage times are medians over the requests that compiled (every
    workload compiles each of its shapes at least once, in warm-up);
    ``frontend_share`` is the median over *all* server-side requests of the
    time before ``execute_plan`` as a share of the request.
    """
    by_request: dict[int, dict[str, float]] = {}
    for _, _, request, name, start, end in spans:
        totals = by_request.setdefault(request, {})
        totals[name] = totals.get(name, 0.0) + (end - start)

    def med(values: list[float], scale: float) -> float:
        return median(values) * scale if values else 0.0

    def per_request(*names: str) -> list[float]:
        return [
            sum(t[n] for n in names if n in t)
            for t in by_request.values()
            if any(n in t for n in names)
        ]

    shares = [
        (t[ROOT_SPAN] - t.get("exec.execute_plan", 0.0)) / t[ROOT_SPAN]
        for t in by_request.values()
        if t.get(ROOT_SPAN)
    ]
    return {
        "core.sqlpgq.parse_bind_ms": med(per_request("core.sqlpgq.parse", "core.sqlpgq.bind"), 1e3),
        "core.rules.apply_ms": med(per_request("core.rules.apply"), 1e3),
        "graph.optimizer.optimize_ms": med(per_request("graph.optimizer.optimize"), 1e3),
        "relational.optimizer.optimize_ms": med(per_request("relational.optimizer.optimize"), 1e3),
        "core.framework.optimize_ms": med(per_request("core.framework.optimize"), 1e3),
        "core.framework.frontend_share": median(shares) if shares else 0.0,
    }


def attributed_share(spans, latencies: dict[int, float], root: str) -> float:
    """Median share of a request's harness-measured latency that lies
    inside its outermost named span (the rest is unattributed)."""
    inside: dict[int, float] = {}
    for _, _, request, name, start, end in spans:
        if name == root and request in latencies:
            inside[request] = inside.get(request, 0.0) + (end - start)
    shares = [inside[r] / latencies[r] for r in inside if latencies[r] > 0]
    return median(shares) if shares else 0.0


# ---------------------------------------------------------------------- #
# counts
# ---------------------------------------------------------------------- #


def exact_counts(execute, requests: list[Request]) -> dict[str, float]:
    """Row counts over one round's requests, each executed once: a fixed
    list for a given seed, so the sums must repeat run to run."""
    produced = returned = peak = 0
    for request in requests:
        result = execute(request)
        produced += result.rows_produced
        returned += len(result.rows)
        peak = max(peak, result.peak_buffered_rows)
    return {
        "exec.rows_produced": produced,
        "exec.result_rows": returned,
        "exec.peak_buffered_rows": peak,
        "exec.useful_row_ratio": returned / max(1, produced),
    }


def resident_bytes(catalogs) -> int:
    return sum(
        sum(catalog.table(name).memory_bytes().values())
        for catalog in catalogs
        for name in catalog.table_names()
    )


def trees_visited(databases: dict, requests: list[Request]) -> int:
    """Join trees the relational DP visited, summed over the workload's
    distinct statements (``OptimizedQuery.relational_report``)."""
    from repro.core.sqlpgq import parse_and_bind

    total = 0
    for request in requests:
        database = databases[request.target].database
        optimized = database.framework().optimize(parse_and_bind(request.sql, database.catalog))
        total += optimized.relational_report.trees_visited
    return total


# ---------------------------------------------------------------------- #
# probes
# ---------------------------------------------------------------------- #

PROBE_CALLS = 200
APPEND_BATCH_ROWS = 2
APPEND_PROBE_BATCHES = 200
APPEND_PROBE_BLOCKS = 9


def _timed(fn, arguments: list) -> list[float]:
    """Seconds per ``fn(argument)``, scaled to full machine speed."""

    def sweep() -> list[float]:
        samples = []
        for argument in arguments:
            start = time.perf_counter()
            fn(argument)
            samples.append(time.perf_counter() - start)
        return samples

    samples, _, factor = at_full_speed(sweep, readings=2)
    return [seconds / factor for seconds in samples]


def ingest_batch(catalog, bot_id: int, rows: int = APPEND_BATCH_ROWS) -> None:
    """Append one fixed-size post / has_creator / has_tag batch, vertex
    table first so no reader can see an edge before its post."""
    post = catalog.table("post")
    creator = catalog.table("has_creator")
    has_tag = catalog.table("has_tag")
    tags = catalog.table("tag").num_rows
    first = post.num_rows
    ids = range(first, first + rows)
    post.extend([(i, f"ingested post {i}", 20 + i % 180, "2024-12-28") for i in ids])
    base = creator.num_rows
    creator.extend([(base + k, i, bot_id) for k, i in enumerate(ids)])
    base = has_tag.num_rows
    has_tag.extend([(base + k, i, i % tags) for k, i in enumerate(ids)])


def add_bot_author(built) -> int:
    """A friendless person who authors every ingested post.

    No ``knows`` edge reaches them, so no statement of the hot mix can see
    an ingested post: the mix's answers stay what the oracle computed,
    whichever index generation a read lands on, while the COUNT(*)
    statements see every batch.
    """
    person = built.catalog.table("person")
    bot_id = person.num_rows
    person.append((bot_id, "Bot", "Ingest", "2000-01-01", "2020-01-01"))
    swap_index(built)
    return bot_id


def swap_index(built) -> float:
    """Rebuild the graph index over the current rows and swap it in
    (bumps the catalog version: plan cache and warmed framework go stale)."""
    from repro.graph.index import build_graph_index

    start = time.perf_counter()
    index = build_graph_index(built.catalog.graph(built.graph_name))
    built.catalog.register_graph_index(index)
    return time.perf_counter() - start


def append_probe(built) -> dict[str, float]:
    """Unloaded append cost: back-to-back batches, no concurrent reader.
    The per-batch median of each block is scaled by the machine speed
    around that block; the median over blocks is reported."""

    def block() -> float:
        latencies = []
        for _ in range(APPEND_PROBE_BATCHES):
            start = time.perf_counter()
            ingest_batch(built.catalog, 0)  # author: any person; nothing is read back
            latencies.append(time.perf_counter() - start)
        return median(latencies)

    scaled = []
    for _ in range(APPEND_PROBE_BLOCKS):
        per_batch, _, factor = at_full_speed(block, readings=2)
        scaled.append(per_batch / factor)
    p50 = median(scaled)
    return {
        "append_p50_ms": p50 * 1e3,
        "relational.table.append_rows_per_s": 3 * APPEND_BATCH_ROWS / p50,
    }


def run_probes(built, seed: int) -> dict[str, float]:
    """Direct timings of each layer's public functions on an LDBC database.

    Read-only probes first: the storage probes append rows the graph index
    does not cover, which moves the optimizer's row counts and with them
    the plans (IC5-2 runs 8x faster once ``post`` has tripled)."""
    out: dict[str, float] = {}
    database = built.database
    out.update(_serving_probes(database, seed))
    out.update(_wire_probes(database, seed))
    out.update(_exec_probes(database))
    out.update(_systems_probe(built))
    out.update(_storage_probes(built))
    return out


def _probe_texts(session, seed: int) -> list[str]:
    """IC3-1 with its two literals redrawn: one shape, many bindings."""
    domains = mix.LiteralDomains(session.execute)
    rng = random.Random(f"probe:{seed}")
    sql = mix.hot_shapes()["IC3-1"]
    return [domains.redraw(sql, rng)[0] for _ in range(PROBE_CALLS)]


def _serving_probes(database, seed: int) -> dict[str, float]:
    from repro.exec.context import execute_plan
    from repro.serving.plan_cache import cached_optimize, fingerprint

    out: dict[str, float] = {}
    with database.connect() as session:
        texts = _probe_texts(session, seed)
        session.execute(texts[0])  # compile the shape once

        def hit(sql: str):
            optimized, was_hit = cached_optimize(
                database.plan_cache, sql, database.catalog,
                lambda query: database.framework().optimize(query),
            )
            assert was_hit, "probe shape fell out of the plan cache"
            return optimized.physical

        fingerprint_s = median(_timed(fingerprint, texts))
        hit_s = median(_timed(hit, texts))
        plans = [hit(sql) for sql in texts]
        execute_s = median(_timed(lambda plan: execute_plan(plan, governor=database.governor), plans))
        session_s = median(_timed(session.execute, texts))
        out["serving.plan_cache.fingerprint_us"] = fingerprint_s * 1e6
        out["serving.plan_cache.hit_bind_us"] = hit_s * 1e6
        out["exec.fixed_cost_us"] = execute_s * 1e6
        out["serving.database.session_overhead_us"] = (session_s - hit_s - execute_s) * 1e6

        # Prepared: same shape with its two string literals as placeholders.
        statement = session.prepare(re.sub(r"'\w+'", "?", mix.hot_shapes()["IC3-1"]))
        bindings = [re.findall(r"'(\w+)'", sql) for sql in texts]
        statement.execute(bindings[0])
        out["serving.prepared.execute_ms_p50"] = median(_timed(statement.execute, bindings)) * 1e3

        # Pool: two queries in flight; wait = submit->result minus execution.
        def pairs() -> list[float]:
            waits = []
            for a, b in zip(texts[0::2], texts[1::2]):
                start = time.perf_counter()
                first, second = session.submit(a), session.submit(b)
                for pending in (first, second):
                    result = pending.result()
                    waits.append(time.perf_counter() - start - result.execution_time)
            return waits

        waits, _, factor = at_full_speed(pairs, readings=2)
        out["serving.pool.queue_wait_ms_p50"] = median(waits) / factor * 1e3
    return out


def _wire_probes(database, seed: int) -> dict[str, float]:
    from repro.serving.client import Client
    from repro.serving.wire import Server, recv_frame, send_frame

    out: dict[str, float] = {}
    with database.connect() as session, Server(database) as server:
        with Client(server.address) as client:
            texts = _probe_texts(session, seed)
            session.execute(texts[0])

            in_process = median(_timed(session.execute, texts))
            over_wire = median(_timed(client.execute, texts))
            out["serving.wire.overhead_ms_p50"] = (over_wire - in_process) * 1e3

            qr3 = mix.ldbc_suite()["QR3"]
            result = client.execute(qr3)
            streamed = median(_timed(client.execute, [qr3] * 3))
            out["serving.wire.stream_rows_per_s"] = len(result.rows) / streamed
            payload = json.dumps([list(row) for row in result.rows], separators=(",", ":"))
            out["serving.wire.bytes_per_row"] = len(payload.encode("utf-8")) / len(result.rows)

    # Framing alone: one 1024-row rows-frame over a socketpair.
    frame = {"seq": 1, "type": "rows", "columns": ["fn3"], "done": False,
             "rows": [[f"name{i % 20}"] for i in range(1024)]}
    left, right = socket.socketpair()
    try:
        def frames() -> tuple[list[float], list[float]]:
            encode, decode = [], []
            for _ in range(PROBE_CALLS):
                start = time.perf_counter()
                send_frame(left, frame)
                middle = time.perf_counter()
                recv_frame(right)
                decode.append(time.perf_counter() - middle)
                encode.append(middle - start)
            return encode, decode

        (encode, decode), _, factor = at_full_speed(frames, readings=2)
        out["serving.wire.frame_encode_us"] = median(encode) / factor * 1e6
        out["serving.wire.frame_decode_us"] = median(decode) / factor * 1e6
    finally:
        left.close()
        right.close()
    return out


def _exec_probes(database) -> dict[str, float]:
    """Each analytic statement plan-cache hot, median of three executions."""
    out: dict[str, float] = {}
    produced = 0
    seconds = 0.0
    with database.connect() as session:
        for request in mix.analytic_requests():
            produced += session.execute(request.sql).rows_produced
            typical = median(_timed(session.execute, [request.sql] * 3))
            out[f"exec.query.{request.name}_ms"] = typical * 1e3
            seconds += typical
    out["exec.rows_produced_per_s"] = produced / seconds
    return out


def _systems_probe(built) -> dict[str, float]:
    """The paper's headline ratio on the LDBC half of ``cold-compile``:
    graph-agnostic (``duckdb``) total time over RelGo's, per query,
    optimization included.  JOB is left out: its graph-agnostic hash-join
    plans do not finish inside the oracle's row cap on this machine."""
    from repro.systems import make_system

    totals: dict[str, dict[str, float]] = {}
    for name in ("relgo", "duckdb"):
        system = make_system(name, built.catalog, built.graph_name)

        def suite() -> dict[str, float]:
            return {
                query: system.run(sql, query).total_time
                for query, sql in mix.ldbc_suite().items()
            }

        suite()  # lazy statistics / GLogue counts
        measured, _, factor = at_full_speed(suite, readings=2)
        totals[name] = {query: seconds / factor for query, seconds in measured.items()}
    ratios = [totals["duckdb"][q] / totals["relgo"][q] for q in totals["relgo"]]
    return {
        "systems.agnostic_suite_s": sum(totals["duckdb"].values()),
        "systems.relgo_speedup_geomean": geomean(ratios),
    }


def _storage_probes(built) -> dict[str, float]:
    """Bulk load, append, index rebuild and re-warm.  Runs last: it
    appends to the database and swaps its index."""
    from repro.relational.table import Table

    out: dict[str, float] = {}
    post = built.catalog.table("post")
    columns = [list(post.column(c.name)) for c in post.schema.columns]
    loads = _timed(lambda table: table.extend_columns(columns, validate=False),
                   [Table(post.schema) for _ in range(5)])
    out["relational.table.bulk_load_rows_per_s"] = len(columns[0]) / median(loads)

    out.update(append_probe(built))  # also append_p50_ms, the end-to-end probe
    with built.database.connect() as session:
        sql = mix.hot_shapes()["IC3-1"]
        session.execute(sql)
        def swaps() -> tuple[list[float], list[float]]:
            rebuilds, rewarms = [], []
            for _ in range(5):
                rebuilds.append(swap_index(built))
                start = time.perf_counter()
                session.execute(sql)
                rewarms.append(time.perf_counter() - start)
            return rebuilds, rewarms

        (rebuilds, rewarms), _, factor = at_full_speed(swaps, readings=2)
        out["graph.index.rebuild_ms"] = median(rebuilds) / factor * 1e3
        out["core.framework.rewarm_ms"] = median(rewarms) / factor * 1e3

    # The open-loop generator's own punctuality, idle: 5 ms ticks.
    period, late = 0.005, []
    origin = time.perf_counter()
    for tick in range(100):
        due = origin + tick * period
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append(max(0.0, time.perf_counter() - due))
    out["generator.lateness_ms_p95"] = percentile(late, 0.95) * 1e3
    return out
