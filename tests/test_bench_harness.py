"""The benchmark harness: grid runner statuses and report formatting."""

from __future__ import annotations

from repro.bench.reporting import (
    average_speedup,
    format_table,
    geometric_mean,
    speedup_table,
    speedups_vs_baseline,
)
from repro.bench.runner import Measurement, by_cell, run_grid
from repro.systems import make_system
from repro.systems.base import System
from repro.workloads.ldbc import qc_queries


def fake_measurements():
    return [
        Measurement("relgo", "Q1", "ok", 0.001, 0.010),
        Measurement("duckdb", "Q1", "ok", 0.001, 0.040),
        Measurement("relgo", "Q2", "ok", 0.002, 0.020),
        Measurement("duckdb", "Q2", "ok", 0.001, 0.020),
        Measurement("relgo", "Q3", "ok", 0.001, 0.005),
        Measurement("duckdb", "Q3", "OOM", 0.001, 0.0),
    ]


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == 4.0
    assert geometric_mean([]) == 0.0


def test_speedups_and_average():
    ms = fake_measurements()
    ratios = speedups_vs_baseline(ms, baseline="duckdb")
    assert abs(ratios[("relgo", "Q1")] - (0.041 / 0.011)) < 1e-9
    assert ratios[("relgo", "Q3")] is None  # baseline OOM -> no ratio
    avg = average_speedup(ms, "relgo", "duckdb")
    assert avg == geometric_mean([0.041 / 0.011, 0.021 / 0.022])


def test_format_table_marks_failures():
    text = format_table(
        fake_measurements(), systems=["relgo", "duckdb"], queries=["Q1", "Q2", "Q3"]
    )
    assert "OOM" in text
    assert "Q1" in text and "Q3" in text


def test_speedup_table_renders():
    text = speedup_table(
        fake_measurements(),
        systems=["relgo"],
        queries=["Q1", "Q2", "Q3"],
        baseline="duckdb",
        title="demo",
    )
    assert "demo" in text
    assert "avg" in text
    # Q3 has no ratio (the baseline OOMed): the cell shows the system's own
    # status instead of a number.
    q3_line = next(line for line in text.splitlines() if line.startswith("Q3"))
    assert "x" not in q3_line


def test_run_grid_statuses(fig2):
    catalog, _, _ = fig2
    # Reuse the LDBC QC1 SQL against the fig2 graph? No — use a fig2 query.
    sql = """
    SELECT n FROM GRAPH_TABLE (G
      MATCH (a:Person)-[:Knows]->(b:Person)
      COLUMNS (b.name AS n)) g
    """
    systems = {
        "relgo": make_system("relgo", catalog, "G"),
        "duckdb": make_system("duckdb", catalog, "G"),
    }
    measurements = run_grid(systems, {"Q": sql}, repetitions=2)
    cells = by_cell(measurements)
    assert cells[("relgo", "Q")].status == "ok"
    assert cells[("relgo", "Q")].rows == 4
    assert cells[("duckdb", "Q")].rows == 4
    assert cells[("relgo", "Q")].repetitions == 2


def test_run_grid_reports_oom(fig2):
    catalog, _, _ = fig2
    sql = """
    SELECT an FROM GRAPH_TABLE (G
      MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person)
      COLUMNS (a.name AS an)) g
    """
    system = make_system("relgo", catalog, "G", memory_budget_rows=2)
    measurements = run_grid({"relgo": system}, {"Q": sql})
    assert measurements[0].status == "OOM"


def test_run_grid_warms_up_execution(fig2, monkeypatch):
    """The warm-up is one unmeasured run: the measured run of a cell whose
    plan intersects builds no key view (the warm-up built them), and a cell
    that runs out of memory in its warm-up still reports OOM."""
    from repro.graph.index import Adjacency

    catalog, _, _ = fig2
    triangle = """
    SELECT an FROM GRAPH_TABLE (G
      MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person),
            (a:Person)-[:Knows]->(c:Person)
      COLUMNS (a.name AS an)) g
    """
    system = make_system("relgo", catalog, "G")
    assert "EXPAND_INTERSECT" in system.optimize(triangle).explain()
    key_view, run, events = Adjacency.key_view, System.run, []

    def building(self, far, radix):
        cached = self._vectors.get("key_view")
        view = key_view(self, far, radix)
        if view is not cached:
            events.append("build")
        return view

    def running(self, *args, **kwargs):
        events.append("run")
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Adjacency, "key_view", building)
    monkeypatch.setattr(System, "run", running)
    assert run_grid({"relgo": system}, {"Q": triangle})[0].status == "ok"
    assert events[0] == "run" and "build" in events and events[-1] == "run"
    assert events.count("run") == 2
    chain = """
    SELECT an FROM GRAPH_TABLE (G
      MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person)
      COLUMNS (a.name AS an)) g
    """
    oom = make_system("relgo", catalog, "G", memory_budget_rows=2)
    assert run_grid({"relgo": oom}, {"Q": chain})[0].status == "OOM"
