"""Answer checking: every result is compared with one that did not come
from the path under test.

The oracle runs the same SQL text through the graph-agnostic optimizer
(Lemma 1 translation + relational DP: no graph optimizer, no rules) on the
row-tuple protocol, so neither the converged optimizer nor the columnar
kernels it is checking take part.
Digests for the canonical texts at the benchmark's dataset are committed
under ``expected/``; anything not found there (a literal draw of another
seed, another scale) is computed live, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from harness import DATA_SEED, HERE, Request

EXPECTED_DIR = HERE / "expected"

#: Share of requests, after a query's first execution, whose answer is checked.
SAMPLE_RATE = 0.01

#: The oracle's per-buffer row cap, the repo's stand-in for the paper's
#: 256 GB limit (benchmarks/conftest.py MEMORY_BUDGET_ROWS).
ORACLE_BUDGET_ROWS = 2_000_000
ORACLE_TIMEOUT_S = 150.0

#: LDBC answers come from ``duckdb`` (hash joins only, no graph index).  On
#: IMDB that configuration's plans for the big JOB queries run for minutes
#: in gigabytes without reaching a batch boundary where the row cap or the
#: deadline could stop them, so JOB answers come from ``graindb``: the same
#: graph-agnostic translation and DP, allowed predefined joins (JOB29, the
#: slowest, takes 47 s here — paid once, when ``expected/`` is written).
ORACLE_SYSTEM = {"ldbc": "duckdb", "imdb": "graindb"}


def _plain(value):
    item = getattr(value, "item", None)  # numpy scalar -> Python scalar
    return item() if item is not None else value


def digest(result) -> dict:
    """Row count + SHA-256 of the rows in canonical order."""
    rows = [tuple(_plain(v) for v in row) for row in result.sorted_rows()]
    return {
        "rows": len(rows),
        "sha256": hashlib.sha256(repr(rows).encode("utf-8")).hexdigest(),
    }


class Oracle:
    """Live answers from the graph-agnostic, row-protocol configuration."""

    def __init__(self, catalogs: dict[str, tuple[object, str]]):
        # target -> (catalog, graph name); systems are built on first use.
        self._catalogs = catalogs
        self._systems: dict[str, object] = {}

    def _system(self, target: str):
        system = self._systems.get(target)
        if system is None:
            from repro.systems import make_system

            catalog, graph_name = self._catalogs[target]
            system = make_system(
                ORACLE_SYSTEM[target], catalog, graph_name,
                memory_budget_rows=ORACLE_BUDGET_ROWS,
            )
            system.config.columnar = False
            system.config.query_timeout = ORACLE_TIMEOUT_S
            self._systems[target] = system
        return system

    def answer(self, request: Request) -> dict:
        system = self._system(request.target)
        optimized = system.framework.optimize(system.bind(request.sql))
        return digest(system.framework.execute(optimized))


class Checker:
    """Decides which results are compared, and counts what went wrong.

    Every query's first execution is kept, then a seeded ``SAMPLE_RATE``
    sample of all requests.  Kept results are only *held* during the timed pass; digests
    and oracle runs happen in :meth:`verify`, after it.
    """

    def __init__(self, workload: str, seed: int, scale: float, oracle,
                 expected_dir: Path = EXPECTED_DIR, write_expected: bool = False):
        """``oracle`` is anything with ``answer(request) -> digest``.  With
        ``write_expected`` the committed digests are ignored, every answer
        comes from the oracle, and :meth:`verify` writes them out."""
        self.workload = workload
        self.scale = scale
        self.oracle = oracle
        self.expected_dir = expected_dir
        self.write_expected = write_expected
        self._rng = random.Random(f"check:{seed}")
        self._seen: set[str] = set()
        self._held: list[tuple[Request, object]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.expected = self._load()
        self.live_oracle_runs = 0
        self.answers_checked = 0

    def _load(self) -> dict[str, dict]:
        path = self.expected_dir / f"{self.workload}.json"
        if self.write_expected or not path.exists():
            return {}
        payload = json.loads(path.read_text())
        if payload["dataset"] != {"data_seed": DATA_SEED, "scale": self.scale}:
            return {}  # digests of another dataset say nothing about this one
        return payload["entries"]

    # -- called from the timed loop: keep it to a set probe and a draw ---- #

    def on_result(self, request: Request, result) -> None:
        self.attempted += 1
        if request.name not in self._seen:
            self._seen.add(request.name)
            self._held.append((request, result))
        elif self._rng.random() < SAMPLE_RATE:
            self._held.append((request, result))

    def on_error(self, request: Request, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{request.key}: {type(exc).__name__}: {exc}")

    def fail(self, message: str) -> None:
        """A violated invariant that is not a single request's answer."""
        self.failures.append(message)

    # -- after the timed pass ---------------------------------------------- #

    def verify(self) -> None:
        """Compare every held result with its committed or live digest."""
        used: dict[str, dict] = {}
        for request, result in self._held:
            want = used.get(request.key) or self.expected.get(request.key)
            if want is None:
                want = self.oracle.answer(request)
                self.live_oracle_runs += 1
            used[request.key] = want
            got = digest(result)
            if (got["rows"], got["sha256"]) != (want["rows"], want["sha256"]):
                self.failures.append(
                    f"{request.key}: wrong answer: {got['rows']} rows "
                    f"{got['sha256'][:12]}, expected {want['rows']} rows {want['sha256'][:12]}"
                )
        self._held.clear()
        self.answers_checked = len(used)
        if self.write_expected:
            write_expected(self.workload, self.scale, used, self.expected_dir)

    @property
    def failed(self) -> int:
        return len(self.failures)


def write_expected(workload: str, scale: float, entries: dict[str, dict], expected_dir: Path) -> Path:
    expected_dir.mkdir(parents=True, exist_ok=True)
    path = expected_dir / f"{workload}.json"
    payload = {
        "dataset": {"data_seed": DATA_SEED, "scale": scale},
        "source": "graph-agnostic optimizer, row protocol (see oracle.py); never the path under test",
        "entries": dict(sorted(entries.items())),
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path
