"""Reachability census: which function lines in ``src/`` no statement reaches.

Runs the 58 IC / QR / QC / JOB statements (optimize + execute) under every
system of ``SYSTEM_CONFIGS`` except ``calcite`` (its exhaustive search plans
the same operators as ``duckdb``, only slower), plus ``kuzu``, on the test
suite's small datasets, with numpy on and off (off only, when numpy is not
installed).  A ``sys.setprofile`` hook records every function entered; the
functions in ``src/repro`` come from ``ast``.  Each line of a function body
belongs to its innermost function, so a function line is reached when the
function containing it was entered at least once.

Usage::

    PYTHONPATH=src python benchmarks/census.py > census.json

It runs under whatever ``REPRO_*`` preset is in the environment (parsed by
``repro.settings`` as usual), so a preset's census is the same command with
the preset's variables set.  Prints one JSON object to stdout: the totals,
then per module the function lines, the unreached function lines and the
names of the unreached functions.  Stdlib only; it reports and never fails
on what it finds.
"""

from __future__ import annotations

import ast
import json
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def function_lines(path: Path) -> dict[tuple[int, str], set[int]]:
    """``{(first line, qualified name): lines}`` for every function in the
    module at ``path``: the lines of its span that no nested function's
    span covers.  The first line is the code object's ``co_firstlineno``:
    the first decorator's line for a decorated function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out: dict[tuple[int, str], set[int]] = {}

    def visit(node: ast.AST, prefix: str, owner: set[int] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = set(range(child.lineno, child.end_lineno + 1))
                if owner is not None:
                    owner -= span
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(first, prefix + child.name)] = span
                visit(child, f"{prefix}{child.name}.<locals>.", span)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", owner)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return out


def datasets():
    """``(catalog, graph name, statements)`` for the small LDBC and IMDB
    datasets the tests use."""
    from repro.graph.index import build_graph_index
    from repro.workloads.job import JobParams, generate_imdb, job_queries
    from repro.workloads.ldbc import (
        LdbcParams,
        generate_ldbc,
        ic_queries,
        qc_queries,
        qr_queries,
    )

    out = []
    for (catalog, mapping), statements in (
        (
            generate_ldbc(LdbcParams.scaled(0.3, seed=5)),
            {**ic_queries(), **qr_queries(), **qc_queries()},
        ),
        (generate_imdb(JobParams.scaled(0.3, seed=5)), job_queries()),
    ):
        catalog.register_graph_index(build_graph_index(mapping))
        catalog.analyze()
        out.append((catalog, mapping.name, statements))
    return out


def run_statements(entered: set) -> dict[str, int]:
    """Run every statement under every system and numpy mode while
    recording the code objects entered; the count of runs per status."""
    from repro.exec import numpy_available, set_numpy_enabled
    from repro.systems import make_system
    from repro.systems.base import SYSTEM_CONFIGS

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    systems = [name for name in SYSTEM_CONFIGS if name != "calcite"] + ["kuzu"]
    statuses: dict[str, int] = {}
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for numpy_on in (True, False) if numpy_available() else (False,):
            set_numpy_enabled(numpy_on)
            for catalog, graph, statements in datasets():
                for name in systems:
                    system = make_system(name, catalog, graph)
                    for query, sql in statements.items():
                        status = system.run(sql, query_name=query).status
                        statuses[status] = statuses.get(status, 0) + 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        set_numpy_enabled(None)
    return statuses


def census() -> dict:
    entered: set = set()
    statuses = run_statements(entered)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    modules: dict[str, dict] = {}
    totals = {"function_lines": 0, "unreached_lines": 0, "functions": 0, "unreached_functions": 0}
    for path in sorted(PACKAGE.rglob("*.py")):
        functions = function_lines(path)
        filename = str(path)
        unreached = sorted(
            (key for key in functions if (filename, key[0]) not in reached),
            key=lambda key: key[0],
        )
        lines = sum(len(span) for span in functions.values())
        missed = sum(len(functions[key]) for key in unreached)
        totals["function_lines"] += lines
        totals["unreached_lines"] += missed
        totals["functions"] += len(functions)
        totals["unreached_functions"] += len(unreached)
        modules[str(path.relative_to(SRC))] = {
            "function_lines": lines,
            "unreached_lines": missed,
            "unreached": [name for _, name in unreached],
        }
    return {"totals": totals, "runs": statuses, "modules": modules}


if __name__ == "__main__":
    json.dump(census(), sys.stdout, indent=1)
    print()
