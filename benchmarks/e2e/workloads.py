"""The five workloads.  Each ``run_*`` sets up, warms, times, checks and
returns an :class:`Outcome`; README.md says why each exists.

Load shape (nproc is 2): every in-process workload is one closed-loop
client thread; ``ic-wire`` is one server process and two closed-loop
connections driven from this process; ``ldbc-ingest`` is one closed-loop
reader thread beside one open-loop writer thread.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import harness
import layers
import mix
import oracle
import setup_db
from harness import MIN_LATENCY_ROUNDS, MIN_SUITE_ROUNDS, Request, Timed, median, percentile
from spans import Tracer

# ldbc-ingest's writer: one batch of APPEND_BATCH_ROWS rows per table every
# INGEST_PERIOD_S, and an index rebuild-and-swap once per
# INGEST_READS_PER_SWAP reads, each followed by 17 recompiles.  Swaps are
# paced by the reader's progress, not by the clock: the latency distribution
# has a cliff where the recompiles start (3.3 ms, then 3.6, 6.4, 10, 19 ms one
# shape apiece), and on a clock the number of reads per swap, and with it the
# side of the cliff p95 lands on, followed the machine (spread 34 %).  Per 204
# reads five recompiles are slower than the slowest hot shape (IC5-1, 12 of
# the 204), so p95, the tenth slowest, sits in the middle of IC5-1's plateau
# and moves when about three more recompiles per swap cross it; what
# recompiles cost, about 30 % of the reader's time, shows in throughput_qps.
INGEST_PERIOD_S = 0.025
INGEST_READS_PER_SWAP = 204
# 36 requests per shape: 612 a round, three swaps.
INGEST_ROUND_SAMPLES = 540
INGEST_SWITCH_INTERVAL_S = 0.0005

WIRE_CONNECTIONS = 2


@dataclass
class Options:
    seed: int
    seconds: float
    scale: float
    trace: bool
    expected_dir: Path
    write_expected: bool


@dataclass
class Outcome:
    workload: str
    end_to_end: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failures: list[str]
    record: dict
    observed: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------- #
# shared skeleton of the in-process workloads
# ---------------------------------------------------------------------- #


class InProcess:
    """Set-up, sessions, checker and tracer of one in-process workload."""

    def __init__(self, workload: str, kinds: tuple[str, ...], options: Options):
        self.workload = workload
        self.options = options
        self.built, self.setup_s, self.stages = setup_db.build_repeated(kinds, options.scale)
        # Read now: later the probes and the ingest writer append, by amounts
        # that depend on timing, and this is a count that must repeat.
        self.resident_bytes = layers.resident_bytes([b.catalog for b in self.built.values()])
        self.sessions = {kind: b.database.connect() for kind, b in self.built.items()}
        self.checker = oracle.Checker(
            workload, options.seed, options.scale,
            oracle.Oracle({k: (b.catalog, b.graph_name) for k, b in self.built.items()}),
            options.expected_dir, options.write_expected,
        )
        self.tracer = Tracer()
        self.request_latency: dict[int, float] = {}

    def execute(self, request: Request):
        return self.sessions[request.target].execute(request.sql)

    def traced_execute(self, request: Request):
        start = time.perf_counter()
        result = self.execute(request)
        self.request_latency[self.tracer.last_request()] = time.perf_counter() - start
        return result

    def on_result(self, request: Request, result) -> None:
        self.checker.on_result(request, result)

    def warm(self, requests: list[Request]) -> None:
        """First execution of each statement: compiles it, and is checked."""
        execute = self.traced_execute if self.options.trace else self.execute
        for request in requests:
            try:
                self.on_result(request, execute(request))
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                self.checker.on_error(request, exc)

    def passes(self, make_rounds: Callable, min_rounds: int, warm: list[Request],
               pass_kwargs: Callable[[], dict] = dict,
               after_pass: Callable[[], None] = lambda: None) -> tuple[Timed, Timed | None]:
        """Untraced run: warm, one timed pass.  Traced run: spans on, warm,
        exact counts over one round, a traced pass, spans off, then the
        untraced pass the overhead ratio is taken against.  ``pass_kwargs``
        / ``after_pass`` bracket each timed pass (the ingest writer)."""
        seconds = self.options.seconds

        def timed_pass(share: float, traced: bool) -> Timed:
            try:
                return harness.run_rounds(
                    make_rounds(),
                    self.traced_execute if traced else self.execute,
                    self.on_result, self.checker.on_error,
                    seconds * share, min_rounds, **pass_kwargs(),
                )
            finally:
                after_pass()

        if not self.options.trace:
            self.warm(warm)
            return timed_pass(1.0, False), None
        self.tracer.install()
        try:
            self.warm(warm)
            self.exact_counts = layers.exact_counts(self.execute, next(make_rounds()))
            traced = timed_pass(0.5, True)
        finally:
            self.tracer.uninstall()
        self.tracer.dump(
            harness.RESULTS_DIR / f"trace-{self.workload}.json",
            {"workload": self.workload, "seed": self.options.seed},
        )
        return timed_pass(0.5, False), traced

    def finish(self, timed: Timed, traced: Timed | None, distinct: list[Request],
               append_p50_ms: float | None = None, observed: dict | None = None,
               layer_overrides: dict | None = None) -> Outcome:
        """Check answers, then take what may disturb the database.

        The resident-set peak is read first so the oracle's own buffers
        stay out of it; the append probe runs after the oracle because the
        oracle's index-free plans would see the probe's rows.
        """
        options = self.options
        peak_rss_mb = harness.peak_rss_mb()
        self.checker.verify()
        ldbc = self.built["ldbc"]
        stats = ldbc.database.plan_cache.stats.snapshot()
        probes = (
            layers.run_probes(ldbc, options.seed) if traced is not None
            else layers.append_probe(ldbc)
        )
        probed_append_ms = probes.pop("append_p50_ms")
        if append_p50_ms is None:
            append_p50_ms = probed_append_ms
        end_to_end = {
            "setup_s": self.setup_s, **timed.metrics(),
            "append_p50_ms": append_p50_ms, "peak_rss_mb": peak_rss_mb,
        }
        layer_metrics: dict[str, float] = {}
        if traced is not None:
            layer_metrics = {
                **self.stages,
                **layers.span_metrics(self.tracer.spans),
                "relational.optimizer.trees_visited": layers.trees_visited(self.built, distinct),
                "serving.plan_cache.hit_rate": stats["hit_rate"],
                "serving.plan_cache.invalidations": stats["invalidations"],
                **self.exact_counts,
                "relational.table.resident_bytes": self.resident_bytes,
                **_harness_layers(traced, timed, self.tracer, self.request_latency,
                                  layers.ROOT_SPAN, self.checker),
                **probes,
                **(layer_overrides or {}),
            }
        record = _record(options, timed, self.checker, clients=1, connections=0)
        for session in self.sessions.values():
            session.close()
        for built in self.built.values():
            built.database.close()
        return Outcome(
            self.workload, end_to_end, layer_metrics, self.checker.attempted,
            self.checker.failures, record, observed or {},
        )


def _harness_layers(traced: Timed, timed: Timed, tracer: Tracer, request_latency: dict,
                    root: str, checker) -> dict[str, float]:
    """What tracing cost and covered, on the harness's side of the calls."""
    return {
        "trace.overhead_ratio": traced.metrics()["query_ms_geomean"]
        / timed.metrics()["query_ms_geomean"],
        "trace.attributed_share": layers.attributed_share(tracer.spans, request_latency, root),
        "harness.ops_total": checker.attempted,
    }


def _record(options: Options, timed: Timed, checker, clients: int, connections: int) -> dict:
    return {
        **harness.run_record(options.seed, options.scale, options.seconds, clients, connections),
        **timed.sample_counts(),
        "live_oracle_runs": checker.live_oracle_runs,
        "answers_checked": checker.answers_checked,
    }


# ---------------------------------------------------------------------- #
# cold-compile, ic-hot, ldbc-analytic
# ---------------------------------------------------------------------- #


def run_cold_compile(options: Options) -> Outcome:
    w = InProcess("cold-compile", ("ldbc", "imdb"), options)
    requests = mix.cold_compile_requests()

    def clear_cache(request: Request) -> None:
        w.built[request.target].database.plan_cache.clear()

    timed, traced = w.passes(
        lambda: mix.shuffled_rounds(requests, options.seed), MIN_SUITE_ROUNDS, warm=[],
        pass_kwargs=lambda: {"before": clear_cache},
    )
    return w.finish(timed, traced, requests)


def run_ic_hot(options: Options) -> Outcome:
    w = InProcess("ic-hot", ("ldbc",), options)
    warm = mix.warmup_requests()

    def rounds():
        return mix.hot_rounds(w.sessions["ldbc"].execute, options.seed)

    timed, traced = w.passes(rounds, MIN_LATENCY_ROUNDS, warm)
    return w.finish(timed, traced, warm)


def run_ldbc_analytic(options: Options) -> Outcome:
    w = InProcess("ldbc-analytic", ("ldbc",), options)
    requests = mix.analytic_requests()
    timed, traced = w.passes(
        lambda: mix.shuffled_rounds(requests, options.seed), MIN_SUITE_ROUNDS, requests
    )
    return w.finish(timed, traced, requests)


# ---------------------------------------------------------------------- #
# ldbc-ingest
# ---------------------------------------------------------------------- #


class Writer(threading.Thread):
    """Open loop: batch ``i + 1`` is due one period after batch ``i`` was
    due, whether or not anything is done; latency counts from the due time.
    The period is stretched by the machine's current slow-down (the
    reader's latest reading), so that a slow spell does not change the
    number of appends beside a read.

    Between batches the writer rebuilds and swaps the graph index whenever
    the reader sets ``swap_due`` (once per ``INGEST_READS_PER_SWAP`` reads)."""

    def __init__(self, built, bot_id: int, speed: harness.SpeedTimeline):
        super().__init__(name="e2e-ingest-writer")
        self.built = built
        self.bot_id = bot_id
        self.speed = speed
        self.stop = threading.Event()
        self.swap_due = threading.Event()
        self.appends: list[tuple[float, float]] = []  # (due, done) clock times
        self.lateness: list[tuple[float, float]] = []  # (due, started)
        self.rebuilds: list[tuple[float, float]] = []  # (started, done)
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            due = time.perf_counter()
            while not self.stop.is_set():
                if self.swap_due.wait(max(0.0, due - time.perf_counter())):
                    self.swap_due.clear()
                    started = time.perf_counter()
                    layers.swap_index(self.built)
                    self.rebuilds.append((started, time.perf_counter()))
                    continue
                started = time.perf_counter()
                layers.ingest_batch(self.built.catalog, self.bot_id)
                self.lateness.append((due, started))
                self.appends.append((due, time.perf_counter()))
                due += INGEST_PERIOD_S * self.speed.factors[-1]
        except BaseException as exc:  # noqa: BLE001 - reported by the reader thread
            self.error = exc


class Ingest(InProcess):
    """``InProcess`` whose COUNT(*) reads are checked against invariants
    instead of digests: their answers change by design; what must hold is
    that a read never sees part of a batch and never goes backwards."""

    def __init__(self, options: Options):
        super().__init__("ldbc-ingest", ("ldbc",), options)
        self.ldbc = self.built["ldbc"]
        self.bot_id = layers.add_bot_author(self.ldbc)
        self.counts = [Request("COUNT-post", "COUNT-post", mix.COUNT_POST_SQL),
                       Request("COUNT-has_tag", "COUNT-has_tag", mix.COUNT_TAG_SQL)]
        catalog = self.ldbc.catalog
        self.base = {"COUNT-post": catalog.table("post").num_rows,
                     "COUNT-has_tag": catalog.table("has_tag").num_rows}
        self.last = dict(self.base)

    def on_result(self, request: Request, result) -> None:
        if request.name not in self.base:
            super().on_result(request, result)
            return
        self.checker.attempted += 1
        seen = result.rows[0][0]
        if (seen - self.base[request.name]) % layers.APPEND_BATCH_ROWS:
            self.checker.fail(f"{request.name}: torn count {seen}")
        if seen < self.last[request.name]:
            self.checker.fail(
                f"{request.name}: count went backwards {self.last[request.name]} -> {seen}"
            )
        self.last[request.name] = seen


def run_ldbc_ingest(options: Options) -> Outcome:
    w = Ingest(options)
    ldbc, counts, base = w.ldbc, w.counts, w.base
    session = w.sessions["ldbc"]
    writers: list[Writer] = []

    switch_interval = sys.getswitchinterval()

    def start_writer() -> dict:
        # With the default 5 ms switch interval the writer waits 0-5 ms for
        # the reader to give up the GIL, and append latency from the due
        # time measures the interpreter's thread scheduler, not the engine.
        sys.setswitchinterval(INGEST_SWITCH_INTERVAL_S)
        speed = harness.SpeedTimeline()
        speed.tick()
        writers.append(Writer(ldbc, w.bot_id, speed))
        writers[-1].start()
        return {"speed": speed, "before": count_read}

    reads = 0

    def count_read(_request: Request) -> None:
        # Mid-period, so that no swap runs beside a round boundary's
        # garbage collection and speed reading.
        nonlocal reads
        reads += 1
        if reads % INGEST_READS_PER_SWAP == INGEST_READS_PER_SWAP // 2:
            writers[-1].swap_due.set()

    def stop_writer() -> None:
        writers[-1].stop.set()
        writers[-1].join()
        sys.setswitchinterval(switch_interval)

    skipped = mix.UNSAFE_BESIDE_POST_APPENDS
    warm = mix.warmup_requests(without=skipped)

    def rounds():
        return mix.hot_rounds(
            session.execute, options.seed, extra=counts, without=skipped,
            round_samples=INGEST_ROUND_SAMPLES,
        )

    timed, traced = w.passes(
        rounds, MIN_LATENCY_ROUNDS, warm, pass_kwargs=start_writer, after_pass=stop_writer
    )
    batches = 0
    for writer in writers:
        batches += len(writer.appends)
        if writer.error is not None:
            w.checker.fail(f"writer: {type(writer.error).__name__}: {writer.error}")
    w.checker.attempted += batches
    for request in counts:
        final = session.execute(request.sql).rows[0][0]
        want = base[request.name] + batches * layers.APPEND_BATCH_ROWS
        if final != want:
            w.checker.fail(f"{request.name}: final count {final}, expected {want}")
    writer = writers[-1]  # the untraced pass's, like every end-to-end number

    def scaled_ms(spans: list[tuple[float, float]]) -> list[float]:
        return [(end - start) / timed.speed.factor(start, end) * 1e3 for start, end in spans]

    observed = {
        "batch_rows_per_table": layers.APPEND_BATCH_ROWS,
        "period_ms": INGEST_PERIOD_S * 1e3,
        "reads_per_swap": INGEST_READS_PER_SWAP,
        "batches": len(writer.appends),
        "swaps": len(writer.rebuilds),
        "generator.lateness_ms_p95": percentile(scaled_ms(writer.lateness), 0.95),
        "graph.index.rebuild_ms": median(scaled_ms(writer.rebuilds)),
    }
    overrides = {k: observed[k] for k in ("generator.lateness_ms_p95", "graph.index.rebuild_ms")}
    return w.finish(
        timed, traced, warm + counts, median(scaled_ms(writer.appends)), observed, overrides
    )


# ---------------------------------------------------------------------- #
# ic-wire
# ---------------------------------------------------------------------- #


class ServerProcess:
    """The server child and its JSON-lines control channel."""

    def __init__(self, options: Options):
        self.proc = subprocess.Popen(
            [sys.executable, str(harness.HERE / "server_child.py"),
             "--scale", str(options.scale), "--seed", str(options.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def answer(self, request: Request) -> dict:
        """The :class:`oracle.Oracle` interface, served where the catalog is."""
        asked = {"name": request.name, "key": request.key, "sql": request.sql}
        return self.call("oracle", requests=[asked])["answers"][request.key]

    def close(self) -> None:
        """Stop the child whatever state it is in, and wait until it ended."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _wire_pass(clients, rounds, seconds: float, checker, tracer: Tracer | None,
               request_latency: dict) -> Timed:
    """Rounds split across the connections, one closed-loop thread each;
    a round ends when its slowest connection is done.  The machine's speed
    is read between rounds only: a reading beside two busy client threads
    would measure the contention it adds."""
    speed = harness.SpeedTimeline()
    raw: list[tuple[list[tuple[str, float, float]], float]] = []
    deadline = time.perf_counter() + seconds
    lock = threading.Lock()

    def drive(client, requests: list[Request], samples: list) -> None:
        for request in requests:
            start = time.perf_counter()
            try:
                result = client.execute(request.sql)
            except Exception as exc:  # noqa: BLE001 - a failed operation is a data point
                with lock:
                    checker.on_error(request, exc)
                continue
            end = time.perf_counter()
            samples.append((request.name, start, end))
            with lock:
                if tracer is not None:
                    request_latency[tracer.last_request()] = end - start
                checker.on_result(request, result)
            result = None  # freed here, not inside the next timed call

    while time.perf_counter() < deadline or len(raw) < MIN_LATENCY_ROUNDS:
        gc.collect()
        requests = next(rounds)
        shares = [requests[i::len(clients)] for i in range(len(clients))]
        collected: list[list] = [[] for _ in clients]
        threads = [
            threading.Thread(target=drive, args=(c, s, l), name=f"e2e-wire-client-{i}")
            for i, (c, s, l) in enumerate(zip(clients, shares, collected))
        ]
        speed.tick()
        round_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - round_start
        raw.append(([x for part in collected for x in part], wall))
    speed.tick()
    return Timed([harness.scaled_round(samples, wall, speed) for samples, wall in raw], speed)


def run_ic_wire(options: Options) -> Outcome:
    from repro.serving.client import Client

    harness.require_cores(WIRE_CONNECTIONS)
    workload = "ic-wire"
    server = ServerProcess(options)
    clients: list = []
    try:
        address = tuple(server.ready["address"])
        clients = [Client(address) for _ in range(WIRE_CONNECTIONS)]
        checker = oracle.Checker(workload, options.seed, options.scale, server,
                                 options.expected_dir, options.write_expected)
        tracer = Tracer()
        request_latency: dict[int, float] = {}
        warm = mix.warmup_requests()

        def warm_up() -> None:
            for request in warm:
                try:
                    checker.on_result(request, clients[0].execute(request.sql))
                except Exception as exc:  # noqa: BLE001
                    checker.on_error(request, exc)

        def rounds():
            return mix.hot_rounds(clients[0].execute, options.seed)

        layer_metrics: dict[str, float] = {}
        traced = None
        if options.trace:
            server.call("trace")
            tracer.install()
            try:
                warm_up()
                traced = _wire_pass(clients, rounds(), options.seconds / 2, checker,
                                    tracer, request_latency)
            finally:
                tracer.uninstall()
            tracer.dump(harness.RESULTS_DIR / f"trace-{workload}.json",
                        {"workload": workload, "seed": options.seed, "process": "harness"})
            layer_metrics.update(server.call(
                "untrace", trace_path=str(harness.RESULTS_DIR / f"trace-{workload}-server.json")
            )["layers"])
            timed = _wire_pass(clients, rounds(), options.seconds / 2, checker, None, {})
            counts = layers.exact_counts(lambda r: clients[0].execute(r.sql), next(rounds()))
        else:
            warm_up()
            timed = _wire_pass(clients, rounds(), options.seconds, checker, None, {})

        peak_rss_mb = server.call("peak_rss")["peak_rss_mb"]  # before the oracle's buffers
        checker.verify()
        for client in clients:
            client.close()
        clients = []
        final = server.call("finish", probes=options.trace)
        if server.proc.wait(timeout=60) != 0:
            checker.fail(f"server process exited with code {server.proc.returncode}")
    finally:
        for client in clients:
            try:
                client.close()
            except Exception:  # noqa: BLE001 - already failing; the child is stopped next
                pass
        server.close()

    end_to_end = {
        "setup_s": server.ready["setup_s"],
        **timed.metrics(),
        "append_p50_ms": final["append_p50_ms"],
        "peak_rss_mb": peak_rss_mb,  # the server's: that is where the data lives
    }
    if traced is not None:
        cache = final["plan_cache"]
        layer_metrics = {
            **server.ready["stages"],
            **layer_metrics,
            "serving.plan_cache.hit_rate": cache["hit_rate"],
            "serving.plan_cache.invalidations": cache["invalidations"],
            **counts,
            "relational.table.resident_bytes": server.ready["resident_bytes"],
            **_harness_layers(traced, timed, tracer, request_latency,
                              "serving.client.execute", checker),
            **final["layers"],
        }
    record = _record(options, timed, checker, WIRE_CONNECTIONS, WIRE_CONNECTIONS)
    return Outcome(workload, end_to_end, layer_metrics, checker.attempted, checker.failures, record)


WORKLOADS: dict[str, Callable[[Options], Outcome]] = {
    "cold-compile": run_cold_compile,
    "ic-hot": run_ic_hot,
    "ic-wire": run_ic_wire,
    "ldbc-analytic": run_ldbc_analytic,
    "ldbc-ingest": run_ldbc_ingest,
}
