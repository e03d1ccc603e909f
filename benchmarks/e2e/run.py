"""One command for the repo benchmark.

``python3 benchmarks/e2e/run.py --seed 7`` (or ``python -m benchmarks.e2e``)
runs the five workloads, each in its own subprocess, checks every answer
and prints every end-to-end metric by name with its unit; ``--trace`` adds
a traced run per workload that prints the per-layer metrics and writes
``results/e2e/trace-<workload>.json``; ``--repeat 2`` runs everything twice
and checks the two sets against the bounds in ``BENCHMARK.json``.

With ``--workload NAME`` it measures that one workload in this process and
prints, as the last line of stdout, the JSON object the benchmark contract
asks for — that is the form ``BENCHMARK.json``'s ``command`` is run in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import harness  # noqa: E402 - needs HERE on sys.path

#: Counts that must be identical between two runs of the same code and seed.
EXACT_COUNTS = (
    "exec.rows_produced",
    "exec.result_rows",
    "exec.peak_buffered_rows",
    "relational.optimizer.trees_visited",
    "relational.table.resident_bytes",
)
# serving.plan_cache.invalidations is not among them: on ldbc-ingest it is
# swaps x shapes read since, and the number of swaps follows the run's length.


def load_spec() -> dict:
    return json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in-process (contract form)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", "--duration", type=float, dest="seconds", default=None,
                        help="length of one timed run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                        help="traced run: per-layer metrics and trace files")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale (smoke test only)")
    parser.add_argument("--repeat", type=int, default=1, help="run N full sets and compare them")
    parser.add_argument("--expected-dir", type=Path, default=None)
    parser.add_argument("--write-expected", action="store_true",
                        help="recompute answers from the oracle and write them to --expected-dir")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# contract form: one workload, in this process
# ---------------------------------------------------------------------- #


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    harness.bootstrap()
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise harness.Refused(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    options = workloads.Options(
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        trace=bool(args.trace),
        expected_dir=args.expected_dir or oracle.EXPECTED_DIR,
        write_expected=args.write_expected,
    )
    outcome = workloads.WORKLOADS[args.workload](options)

    section = "per_layer" if options.trace else "end_to_end"
    values = outcome.layers if options.trace else outcome.end_to_end
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{args.workload} did not produce {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    error_rate = outcome.failed / max(1, outcome.attempted)

    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if options.trace else ""
    (harness.RESULTS_DIR / f"{args.workload}{suffix}.json").write_text(json.dumps({
        "workload": args.workload,
        "record": outcome.record,
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.layers,
        "observed": outcome.observed,
        "error_rate": error_rate,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
    }, indent=1))

    print(f"# {args.workload}  " + "  ".join(f"{k}={v}" for k, v in outcome.record.items()))
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:44s} {metric['value']:.6g} {metric['unit']}")
    for name, value in outcome.observed.items():
        print(f"{args.workload:14s} observed:{name:35s} {value:.6g}")
    print(f"{args.workload:14s} {'error_rate':44s} {error_rate:.6g} ratio   "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures[:20]:
        print(f"{args.workload:14s} FAILED {failure}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------- #
# the one command: every workload, each in its own subprocess
# ---------------------------------------------------------------------- #


def _spawn(workload: str, args: argparse.Namespace, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", str(args.scale),
    ]
    if args.expected_dir is not None:
        command += ["--expected-dir", str(args.expected_dir)]
    if args.write_expected:
        command.append("--write-expected")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace={trace}) exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    sets: list[dict[str, dict[int, dict]]] = []
    for repeat in range(args.repeat):
        if args.repeat > 1:
            print(f"## set {repeat + 1} of {args.repeat}")
        results: dict[str, dict[int, dict]] = {}
        for workload in names:
            results[workload] = {0: _spawn(workload, args, 0)}
            if args.trace:
                results[workload][1] = _spawn(workload, args, 1)
        sets.append(results)

    failed = [
        f"{w} (trace={t})" for results in sets for w, runs in results.items()
        for t, r in runs.items() if not r["correct"]
    ]
    if failed:
        print("error_rate > 0 on: " + ", ".join(failed))
    status = 1 if failed else 0
    if args.repeat > 1:
        status |= compare_sets(sets, spec)
    return status


def compare_sets(sets: list[dict], spec: dict) -> int:
    """Two sets of the same code must agree within the benchmark's own
    bounds on every end-to-end metric, and exactly on every exact count."""
    first, last = sets[0], sets[-1]
    bad = 0
    print("## repeatability: first set vs last set")
    for workload in first:
        for metric in spec["end_to_end"]:
            a = first[workload][0]["metrics"][metric["name"]]["value"]
            b = last[workload][0]["metrics"][metric["name"]]["value"]
            diff = abs(b - a) / a
            verdict = "ok" if diff <= metric["bound"] else "OUTSIDE BOUND"
            bad += verdict != "ok"
            print(f"{workload:14s} {metric['name']:20s} {a:12.6g} {b:12.6g} "
                  f"{diff:7.2%} bound {metric['bound']:.0%}  {verdict}")
        if 1 in first[workload]:
            for name in EXACT_COUNTS:
                a = first[workload][1]["metrics"][name]["value"]
                b = last[workload][1]["metrics"][name]["value"]
                verdict = "ok" if a == b else "DIFFERS"
                bad += verdict != "ok"
                print(f"{workload:14s} {name:40s} {a} {b}  {verdict}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_workload(args, spec)
    harness.bootstrap()  # refuse early, before five subprocesses do
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
