"""The statements each workload sends, generated from ``--seed``.

Query texts are the repo's own suites (``repro.workloads``); this module
only picks subsets, redraws literals from the LDBC generator's domains and
orders requests.  Everything is a pure function of the seed, so a seed
names one input stream exactly.
"""

from __future__ import annotations

import random
import re
from typing import Iterator

from harness import MIN_ROUND_SAMPLES, Request

# The two GROUP BY pipelines BENCH_exec.json times as microplans
# (benchmarks/bench_exec_streaming.py PIPELINE_SQL / FANOUT_SQL), here as
# SQL/PGQ text through the whole stack: hash join + aggregation.
GROUPBY_PIPELINE_SQL = """
SELECT g.fn AS fn, COUNT(*) AS cnt FROM GRAPH_TABLE (snb
  MATCH (p:person)-[:knows]->(f:person)<-[:has_creator]-(m:post)
  COLUMNS (f.first_name AS fn)) g
GROUP BY g.fn
"""
GROUPBY_FANOUT_SQL = """
SELECT g.a AS a, COUNT(*) AS paths FROM GRAPH_TABLE (snb
  MATCH (p0:person)-[:knows]->(p1:person)-[:knows]->(p2:person)
  COLUMNS (p0.first_name AS a)) g
GROUP BY g.a
"""

#: 10^4-10^6 intermediate rows each; everything else in IC/QR is "short".
ANALYTIC_FROM_IC_QR = ("IC1-3", "IC5-2", "IC9-2", "QR3")

COUNT_POST_SQL = "SELECT COUNT(*) AS n FROM post WHERE id >= 0"
COUNT_TAG_SQL = "SELECT COUNT(*) AS n FROM has_tag WHERE id >= 0"


#: ``ORDER BY <date> DESC LIMIT n`` has no single right answer when dates
#: tie at the cut (about one redrawn IC2 in five): which tied rows survive
#: depends on the plan, so an oracle with another plan would "disagree".
#: A second key on a projected column makes the answer unique; rows that
#: still tie are then identical.
_TIE_BREAKS = (
    ("ORDER BY cdate DESC LIMIT", "ORDER BY cdate DESC, content ASC LIMIT"),
    ("ORDER BY ldate DESC LIMIT", "ORDER BY ldate DESC, fn ASC LIMIT"),
)


def ldbc_suite() -> dict[str, str]:
    """IC + QR texts, with the LIMIT queries' order made total."""
    from repro.workloads.registry import suite

    texts = {**suite("IC"), **suite("QR")}
    for old, new in _TIE_BREAKS:
        touched = [n for n, sql in texts.items() if old in sql]
        if not touched:
            raise RuntimeError(f"no IC/QR text contains {old!r}; the suites changed")
        for name in touched:
            texts[name] = texts[name].replace(old, new)
    return texts


def cold_compile_requests() -> list[Request]:
    """All 18 IC + 4 QR on LDBC and all 33 JOB on IMDB, canonical texts."""
    from repro.workloads.registry import suite

    requests = [Request(n, n, sql, "ldbc") for n, sql in ldbc_suite().items()]
    requests += [Request(n, n, sql, "imdb") for n, sql in suite("JOB").items()]
    return requests


def analytic_requests() -> list[Request]:
    from repro.workloads.registry import suite

    texts = {**suite("QC")}
    short_and_long = ldbc_suite()
    texts.update({name: short_and_long[name] for name in ANALYTIC_FROM_IC_QR})
    texts["GB-fanout"] = GROUPBY_FANOUT_SQL
    texts["GB-pipeline"] = GROUPBY_PIPELINE_SQL
    return [Request(n, n, sql) for n, sql in texts.items()]


def hot_shapes() -> dict[str, str]:
    """The 15 short IC queries + QR1/QR2/QR4."""
    return {n: sql for n, sql in ldbc_suite().items() if n not in ANALYTIC_FROM_IC_QR}


def shuffled_rounds(requests: list[Request], seed: int) -> Iterator[list[Request]]:
    """The same statements every round, in a per-round seeded order."""
    rng = random.Random(f"order:{seed}")
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield order


class LiteralDomains:
    """Where redrawn literals come from: the generator's own value sets.

    Only equality / range literals are redrawn.  ``STARTS WITH`` patterns
    and ``LIMIT`` counts are baked into the cached plan's shape, so a new
    value there is a new template, not a rebind; they keep their canonical
    value and every timed request stays a plan-cache hit.
    """

    def __init__(self, execute):
        """``execute(sql)`` is any session-like callable: the value sets
        that live in the data are read back through SQL, so the same code
        serves an in-process session and a wire client."""
        from repro.workloads.ldbc.generator import FIRST_NAMES

        self.first_names = list(FIRST_NAMES)
        self.countries = [row[0] for row in execute("SELECT name FROM place").rows]
        self.tags = [row[0] for row in execute("SELECT name FROM tag").rows]
        self.persons = execute("SELECT COUNT(*) AS n FROM person").rows[0][0]

    #: (prefix kept, literal replaced) per redrawable position.
    _PATTERNS = (
        (re.compile(r"(\b(?:first_name|fn) = )'\w+'"), "name"),
        (re.compile(r"(\b(?:creation_date|cdate) [<>]= )'[\d-]+'"), "date"),
        (re.compile(r"(\bc\.name = )'\w+'"), "country"),
        (re.compile(r"(\bt1\.name = )'\w+'"), "tag"),
        (re.compile(r"(\baid = )\d+"), "person"),
    )

    def redraw(self, sql: str, rng: random.Random) -> tuple[str, str]:
        """``sql`` with every redrawable literal replaced; also the draw,
        as text, for the request key."""
        drawn: list[str] = []

        def value(kind: str) -> str:
            if kind == "name":
                v = f"'{rng.choice(self.first_names)}'"
            elif kind == "date":
                # Post / edge dates span 2020-2024; 2022+ keeps the range
                # predicates from degenerating to empty or full scans.
                v = f"'{rng.randint(2022, 2024):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}'"
            elif kind == "country":
                v = f"'{rng.choice(self.countries)}'"
            elif kind == "tag":
                v = f"'{rng.choice(self.tags)}'"
            else:
                v = str(rng.randrange(self.persons))
            drawn.append(v.strip("'"))
            return v

        for pattern, kind in self._PATTERNS:
            sql = pattern.sub(lambda m, kind=kind: m.group(1) + value(kind), sql)
        return sql, "|".join(drawn)


#: Shapes left out of the mix while a writer appends to ``post``: they
#: filter on ``post.creation_date``, a list-backed DATE column, and
#: ``repro.exec.vector.vector_view`` converts such a list with
#: ``np.asarray`` while ``Table.extend`` grows it — about 1 read in 400
#: dies with "RuntimeError: Inconsistent object during array creation"
#: (the array and dictionary branches of ``vector_view`` were hardened
#: against this, the list branch was not).  A benchmark runs workloads on
#: which no operation fails, and this change may not touch ``src/``; when
#: the engine is fixed, emptying this tuple is the test that it is.
UNSAFE_BESIDE_POST_APPENDS = ("IC2", "IC9-1", "QR2")


def hot_rounds(
    execute, seed: int, extra: list[Request] = (), without: tuple[str, ...] = (),
    round_samples: int = MIN_ROUND_SAMPLES,
) -> Iterator[list[Request]]:
    """Rounds of the hot mix: every shape equally often, literals redrawn
    per request, order shuffled per round.

    ``extra`` requests (the ingest workload's COUNT(*) statements) are
    repeated into each round as they are; ``without`` drops shapes;
    ``round_samples`` is the least a round may hold.
    """
    shapes = {n: sql for n, sql in hot_shapes().items() if n not in without}
    domains = LiteralDomains(execute)
    per_shape = -(-round_samples // len(shapes))  # ceil
    rng = random.Random(f"mix:{seed}")
    while True:
        requests: list[Request] = []
        for name, sql in shapes.items():
            for _ in range(per_shape):
                text, draw = domains.redraw(sql, rng)
                requests.append(Request(name, f"{name}|{draw}", text))
        for request in extra:
            requests.extend([request] * per_shape)
        rng.shuffle(requests)
        yield requests


def warmup_requests(without: tuple[str, ...] = ()) -> list[Request]:
    """Canonical text of every hot shape: compiles each template once."""
    return [Request(n, n, sql) for n, sql in hot_shapes().items() if n not in without]
