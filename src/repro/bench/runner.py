"""Run a grid of (system, query) measurements with repetition and status
accounting (ok / OOM / OT), mirroring the paper's methodology (Sec 5.1):
every query is executed ``repetitions`` times and the average is reported;
OOM and OT entries are carried through to the tables rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spjm import SPJMQuery
from repro.systems.base import System, SystemResult


@dataclass
class Measurement:
    """Averaged timings of one (system, query) cell."""

    system: str
    query: str
    status: str
    optimization_time: float = 0.0
    execution_time: float = 0.0
    rows: int = 0
    repetitions: int = 1

    @property
    def total_time(self) -> float:
        return self.optimization_time + self.execution_time

    def display_time(self, component: str = "total") -> str:
        if self.status != "ok":
            return self.status
        value = {
            "total": self.total_time,
            "execution": self.execution_time,
            "optimization": self.optimization_time,
        }[component]
        return f"{value * 1000:.1f}"


def run_grid(
    systems: dict[str, System],
    queries: dict[str, SPJMQuery | str],
    repetitions: int = 1,
    warmup: bool = True,
) -> list[Measurement]:
    """Run every system on every query; returns one Measurement per cell.

    ``warmup`` performs one unmeasured run per cell first, so lazy one-time
    costs do not pollute the measured times: GLogue sample counting and
    statistics collection in optimization (the paper's GLogue is likewise
    built ahead of measurement), and the graph index's lazily built key
    views in execution.  A cell that fails its warm-up (OOM is
    deterministic) is run and reported all the same.
    """
    measurements: list[Measurement] = []
    for query_name, query in queries.items():
        for system_name, system in systems.items():
            if warmup:
                try:
                    system.run(query, query_name=query_name)
                except Exception:
                    pass  # failures are re-observed and reported below
            results: list[SystemResult] = []
            for _ in range(repetitions):
                result = system.run(query, query_name=query_name)
                results.append(result)
                if not result.ok():
                    break  # OOM/OT is deterministic; no point repeating
            status = results[-1].status
            ok_results = [r for r in results if r.ok()]
            if ok_results:
                n = len(ok_results)
                measurements.append(
                    Measurement(
                        system=system_name,
                        query=query_name,
                        status=status if not ok_results else "ok",
                        optimization_time=sum(r.optimization_time for r in ok_results) / n,
                        execution_time=sum(r.execution_time for r in ok_results) / n,
                        rows=ok_results[-1].rows,
                        repetitions=n,
                    )
                )
            else:
                measurements.append(
                    Measurement(
                        system=system_name,
                        query=query_name,
                        status=status,
                        optimization_time=results[-1].optimization_time,
                        execution_time=results[-1].execution_time,
                    )
                )
    return measurements


def by_cell(measurements: list[Measurement]) -> dict[tuple[str, str], Measurement]:
    return {(m.system, m.query): m for m in measurements}
