"""Set-up: dataset generation, bulk load, graph index, statistics, warm-up.

The stages are the ones ``repro.workloads.registry.dataset`` and
``Database.warmup`` run, called one by one so each can be timed; at
``scale == 1`` the result is exactly ``dataset("LDBC30", 7)`` /
``dataset("IMDB", 7)``.  ``scale`` exists for the smoke test only.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from harness import DATA_SEED, at_full_speed, median

#: ``registry._DATASET_BUILDERS["LDBC30"]`` scales ``LdbcParams`` by 1.2.
LDBC30_SCALE = 1.2

#: Set-up repeats per run; ``setup_s`` is their median, so that a later
#: change moving work into set-up shows against a steady number.
SETUP_REPEATS = 5


@dataclass
class Built:
    """One ready database and what each set-up stage cost."""

    database: object
    graph_name: str
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def catalog(self):
        return self.database.catalog


def _generate(kind: str, scale: float):
    if kind == "ldbc":
        from repro.workloads.ldbc import LdbcParams, generate_ldbc

        return generate_ldbc(LdbcParams.scaled(LDBC30_SCALE * scale, seed=DATA_SEED)), "snb"
    from repro.workloads.job import JobParams, generate_imdb

    return generate_imdb(JobParams.scaled(scale, seed=DATA_SEED)), "imdb"


def build(kind: str, scale: float = 1.0) -> Built:
    """Generate + load, index, analyze, warm up: one database, stage by stage."""
    from repro.graph.index import build_graph_index
    from repro.serving.database import Database

    stages: dict[str, float] = {}

    def stage(name: str, fn):
        start = time.perf_counter()
        out = fn()
        stages[name] = time.perf_counter() - start
        return out

    (catalog, mapping), graph_name = stage("workloads.generate_s", lambda: _generate(kind, scale))
    index = stage("graph.index.build_s", lambda: build_graph_index(mapping))
    catalog.register_graph_index(index)
    stage("relational.statistics.analyze_s", catalog.analyze)
    database = Database(catalog)
    # Database.warmup re-analyzes and constructs the GLogue; its pattern
    # counts fill lazily at first optimize (see core.framework.rewarm_ms).
    stage("graph.glogue.build_s", database.warmup)
    return Built(database, graph_name, stages)


def build_repeated(kinds: tuple[str, ...], scale: float = 1.0) -> tuple[dict[str, Built], float, dict[str, float]]:
    """Set up ``SETUP_REPEATS`` times; keep the last, report medians.

    Returns ``(databases by kind, setup_s, per-stage medians)``, times
    scaled to full machine speed (``harness.slowdown``).  The discarded
    builds are closed and collected first, so the peak resident set the
    workload reports is one build plus the collector's slack.
    """
    totals: list[float] = []
    stage_samples: dict[str, list[float]] = {}
    kept: dict[str, Built] = {}
    for _ in range(SETUP_REPEATS):
        for built in kept.values():
            built.database.close()
        kept = {}
        gc.collect()
        kept, total, factor = at_full_speed(
            lambda: {kind: build(kind, scale) for kind in kinds}, readings=3
        )
        totals.append(total)
        for name in next(iter(kept.values())).stages:
            stage_samples.setdefault(name, []).append(
                sum(built.stages[name] for built in kept.values()) / factor
            )
    stage_medians = {name: median(vals) for name, vals in stage_samples.items()}
    return kept, median(totals), stage_medians
