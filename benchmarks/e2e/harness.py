"""Shared plumbing of the end-to-end benchmark: environment guard, run
record, order statistics, and the round loop every workload is timed by.

Nothing here knows a workload; ``workloads.py`` builds on it.  The engine
is only ever reached through ``src/repro``'s public functions, which
``bootstrap()`` puts on ``sys.path`` (the driver runs the command from a
bare checkout, without ``PYTHONPATH``).
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
RESULTS_DIR = REPO_ROOT / "results" / "e2e"

#: Requests per round on the latency workloads must give p95 at least ten
#: samples beyond it; ``mix.py`` sizes rounds from this.
MIN_ROUND_SAMPLES = 200
#: Rounds a latency workload must complete (suite workloads: ``MIN_SUITE_ROUNDS``).
MIN_LATENCY_ROUNDS = 8
MIN_SUITE_ROUNDS = 3


class Refused(SystemExit):
    """The harness declines to measure under this environment (exit 2)."""

    def __init__(self, reason: str):
        print(f"benchmarks.e2e: refused: {reason}", file=sys.stderr)
        super().__init__(2)


def bootstrap() -> None:
    """Pin the interpreter state the numbers depend on, then expose the engine.

    * any ``REPRO_*`` variable silently switches storage backend,
      parallelism, spill or the wire swap-in — refuse;
    * ``PYTHONHASHSEED`` other than 0 reorders set/dict iteration between
      runs, which moves tie-breaks in the optimizers and with them the
      exact counts — re-exec once with it pinned (the driver does not set it);
    * without ``src/repro`` there is no program to measure — refuse.
    """
    armed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if armed:
        raise Refused(f"unset {', '.join(armed)}: REPRO_* variables change the engine under test")
    if not (SRC / "repro").is_dir():
        raise Refused(f"no engine source at {SRC}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def require_cores(connections: int) -> None:
    if (os.cpu_count() or 1) < connections:
        raise Refused(
            f"{connections} connections need {connections} cores, nproc is {os.cpu_count()}"
        )


def run_record(seed: int, scale: float, seconds: float, clients: int, connections: int) -> dict:
    """What a reader needs to decide whether two outputs are comparable."""
    from repro.exec.vector import numpy_enabled
    from repro.relational.column import storage_backend

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_enabled(),
        "storage_backend": storage_backend(),
        "commit": commit,
        "seed": seed,
        "data_seed": DATA_SEED,
        "scale": scale,
        "clients": clients,
        "connections": connections,
        "run_seconds": seconds,
    }


#: The datasets are the repo's stand-ins at their registry seed.  ``--seed``
#: drives literal draws, mix order and the verification sample, not the
#: data: per-query work on the synthetic IMDB moves 3x between data seeds
#: (JOB24: 0.42M-1.2M rows produced), which would make every suite metric
#: a property of the seed instead of the code.
DATA_SEED = 7


# ---------------------------------------------------------------------- #
# order statistics
# ---------------------------------------------------------------------- #


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


median = statistics.median


# ---------------------------------------------------------------------- #
# machine speed
# ---------------------------------------------------------------------- #
#
# The sandbox's vCPUs do not run at one speed.  A fixed interpreter loop
# reads 11 ms, then 15-17 ms for the next 5-50 s, then 11 ms again; CPU
# time equals wall time and /proc/stat shows no steal, so the guest's
# scheduler is not the cause: the core itself runs slower (a busy
# hyper-thread sibling or a CPU quota on the host; not visible from in
# here).  In a
# slow spell ic-hot's p50 is 1.55x its fast value: equal runs of the same
# code differ by half, five times any bound worth having.  The slow-down
# is not uniform either: arithmetic slows 1.35x, numpy kernels 1.39x,
# object-heavy code (dict/list/tuple churn, JSON) 1.74x.
#
# So every timing is divided by the machine's slow-down at the moment it
# was taken, measured by two fixed kernels timed between requests: one
# arithmetic, one object-heavy, weighted equally (1.55x in a slow spell,
# which is what the engine itself shows).  A value therefore reads "on
# this machine at full speed".  The references are the kernels' times on
# the recording machine at full speed; on another machine they only fix
# the unit, the same for every commit measured there.

SPIN_REFERENCE_S = 0.00300
OBJECTS_REFERENCE_S = 0.00385
#: Longest stretch of requests measured under one reading of the speed.
SPEED_TICK_S = 0.3

_OBJECTS_DATA = [
    (i * 7919 % 1000, f"name{i * 104729 % 500}", (i * 31 % 997) / 997.0) for i in range(20000)
]


def _spin_kernel() -> None:
    x = 0
    for i in range(60000):
        x += i * i


def _objects_kernel() -> None:
    groups: dict[str, list] = {}
    for a, b, c in _OBJECTS_DATA:
        groups.setdefault(b, []).append((a, c))
    out = [(k, len(v), sum(x for x, _ in v)) for k, v in groups.items()]
    out.sort()


def _best_of(kernel, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def slowdown() -> float:
    """How much slower than full speed the machine is right now (>= ~1)."""
    return 0.5 * _best_of(_spin_kernel) / SPIN_REFERENCE_S + 0.5 * _best_of(
        _objects_kernel
    ) / OBJECTS_REFERENCE_S


def at_full_speed(fn: Callable[[], Any], readings: int = 4) -> tuple[Any, float, float]:
    """Run ``fn`` once between speed readings; returns its result, its
    seconds scaled to full speed, and the factor used.

    One reading is good to about 7 % in a slow spell; a timed pass averages
    dozens, a one-shot measurement takes ``readings`` on each side.
    """
    before = [slowdown() for _ in range(readings)]
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    factor = statistics.fmean(before + [slowdown() for _ in range(readings)])
    return out, elapsed / factor, factor


class SpeedTimeline:
    """Readings of :func:`slowdown` over time; a sample taken between two
    readings is scaled by their mean."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self.spent = 0.0  # seconds spent measuring, to take out of walls

    def tick(self) -> None:
        start = time.perf_counter()
        factor = slowdown()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.factors.append(factor)
        self.spent += end - start

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= SPEED_TICK_S

    def factor(self, start: float, end: float) -> float:
        """Mean of the last reading before ``start`` and the first after
        ``end`` (the nearest one, at either edge of the timeline)."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return (self.factors[before] + self.factors[after]) / 2


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# the round loop
# ---------------------------------------------------------------------- #


@dataclass
class Request:
    """One statement the engine receives: only ``sql`` crosses the boundary."""

    name: str  # query name, the unit of per-query medians
    key: str  # name + literal draw, the unit of answer checking
    sql: str
    target: str = "ldbc"  # which database of the workload serves it


@dataclass
class Round:
    """One round, already scaled to full machine speed."""

    latencies: list[tuple[str, float]]  # (query name, seconds)
    wall: float
    slowdown: float = 1.0  # mean factor its samples were divided by


@dataclass
class Timed:
    """All rounds of one timed pass, and the speed readings taken in it."""

    rounds: list[Round] = field(default_factory=list)
    speed: SpeedTimeline | None = None

    def per_query(self) -> dict[str, float]:
        """Each query's median latency over all its executions."""
        by_name: dict[str, list[float]] = {}
        for rnd in self.rounds:
            for name, seconds in rnd.latencies:
                by_name.setdefault(name, []).append(seconds)
        return {name: median(vals) for name, vals in by_name.items()}

    def metrics(self) -> dict[str, float]:
        """The five request-side end-to-end metrics; percentiles and rate
        are taken per round, then the median across rounds."""
        per_query = self.per_query()
        return {
            "query_ms_geomean": geomean([s * 1e3 for s in per_query.values()]),
            "suite_s": sum(per_query.values()),
            "latency_p50_ms": median(
                [percentile([s for _, s in r.latencies], 0.50) * 1e3 for r in self.rounds]
            ),
            "latency_p95_ms": median(
                [percentile([s for _, s in r.latencies], 0.95) * 1e3 for r in self.rounds]
            ),
            "throughput_qps": median([len(r.latencies) / r.wall for r in self.rounds]),
        }

    def sample_counts(self) -> dict[str, float]:
        per_round = [len(r.latencies) for r in self.rounds]
        return {
            "rounds": len(self.rounds),
            "requests": sum(per_round),
            "min_requests_per_round": min(per_round) if per_round else 0,
            "machine_slowdown_median": median([r.slowdown for r in self.rounds]),
        }


def scaled_round(
    samples: list[tuple[str, float, float]], wall: float, speed: SpeedTimeline
) -> Round:
    """``samples`` are (name, start, end) in clock time; ``wall`` excludes
    time spent reading the speed."""
    factors = [speed.factor(start, end) for _, start, end in samples]
    mean_factor = sum(factors) / len(factors) if factors else 1.0
    return Round(
        [(name, (end - start) / f) for (name, start, end), f in zip(samples, factors)],
        wall / mean_factor,
        mean_factor,
    )


def run_rounds(
    rounds: Iterator[list[Request]],
    execute: Callable[[Request], Any],
    on_result: Callable[[Request, Any], None],
    on_error: Callable[[Request, BaseException], None],
    seconds: float,
    min_rounds: int,
    before: Callable[[Request], None] | None = None,
    speed: SpeedTimeline | None = None,
) -> Timed:
    """One closed-loop client: the next request leaves when the reply is in.

    Rounds are whole (a round is never cut by the clock) so every round has
    the same request population and per-round percentiles are comparable;
    the pass ends once ``seconds`` have elapsed and ``min_rounds`` are in.
    ``gc.collect()`` runs between rounds so collector pauses land outside
    the timed region instead of in whichever request trips the threshold.
    The machine's speed is read at every round boundary and between
    requests whenever the last reading is older than ``SPEED_TICK_S``
    (into ``speed`` when the caller shares the readings with a writer).
    """
    speed = speed or SpeedTimeline()
    raw: list[tuple[list[tuple[str, float, float]], float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(raw) < min_rounds:
        gc.collect()
        requests = next(rounds)
        samples: list[tuple[str, float, float]] = []
        speed.tick()
        spent_before = speed.spent
        round_start = time.perf_counter()
        for request in requests:
            if speed.due():
                speed.tick()
            if before is not None:
                before(request)
            start = time.perf_counter()
            try:
                result = execute(request)
            except Exception as exc:  # noqa: BLE001 - a failed operation is a data point
                on_error(request, exc)
                continue
            samples.append((request.name, start, time.perf_counter()))
            on_result(request, result)
            # Drop the rows now: left bound, a 300 k-row result would be
            # freed inside the next request's timed call.
            result = None
        wall = time.perf_counter() - round_start - (speed.spent - spent_before)
        raw.append((samples, wall))
    speed.tick()
    return Timed([scaled_round(samples, wall, speed) for samples, wall in raw], speed)
