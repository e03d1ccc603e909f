"""Gate a fresh ``BENCH_exec.json`` against a checked-in baseline.

CI's bench smoke produces ``BENCH_exec.json`` at ``BENCH_SCALE=0.25`` and
this script fails the job when any scenario's tracked time regressed by
more than ``--threshold`` (default 2x) versus the committed baseline
recorded **at the same scale** — a deliberately wide margin so shared
runners don't flap, while a genuinely quadratic regression (or a
deadlocked scheduler limping on timeouts) still fails fast.

Scale mismatches skip the comparison (absolute times are only comparable
at equal scale); new scenarios absent from the baseline are reported but
never fail, so adding a scenario does not require regenerating baselines
in the same commit.

Runner hardware differs from the machine the baseline was recorded on, so
per-scenario ratios are normalized by the run's **median ratio** before
gating: a runner that is uniformly 2x slower than the baseline machine
moves every ratio (and the median) together and nothing fails, while one
scenario regressing relative to the rest of the suite still trips.  A
genuinely global regression is caught by gating the median itself at
twice the threshold — wide enough for real runner-class speed spreads,
tight enough that a whole-suite blowup still fails.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline benchmarks/BENCH_baseline_scale0.25.json \
        --current BENCH_exec.json [--threshold 2.0]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys


def _tracked_times(doc: dict, include_multithread: bool) -> dict[str, float]:
    """Flatten a bench document to ``scenario -> tracked milliseconds``.

    ``serial_ms`` (parallelism 1) is core-count independent and always
    compared; the multi-threaded levels (``p2_ms``, ``p4_ms``, ...) only
    when ``include_multithread`` (equal core counts).
    """
    times: dict[str, float] = {}
    for name, entry in doc.get("queries", {}).items():
        times[f"queries/{name}"] = entry["columnar"]["time_ms"]
    for name, entry in doc.get("parallel", {}).items():
        times[f"parallel/{name}/serial"] = entry["serial_ms"]
        if include_multithread:
            for key, value in entry.items():
                if key.endswith("_ms") and key != "serial_ms":
                    times[f"parallel/{name}/{key[: -len('_ms')]}"] = value
    for name, entry in doc.get("strings", {}).items():
        if name == "memory_bytes":
            continue
        times[f"strings/{name}/dict"] = entry["dict_ms"]
        # Baselines recorded while the ``typed`` backend existed compare
        # against it instead; their ``list`` entries then read as new.
        if "list_ms" in entry:
            times[f"strings/{name}/list"] = entry["list_ms"]
    for name, entry in doc.get("lifecycle", {}).items():
        times[f"lifecycle/{name}/bare"] = entry["bare_ms"]
        times[f"lifecycle/{name}/armed"] = entry["armed_ms"]
    spill = doc.get("spill")
    if spill:
        times["spill/in_memory"] = spill["in_memory_ms"]
        times["spill/armed_idle"] = spill["armed_idle_ms"]
        for name, entry in spill.get("degradation", {}).items():
            times[f"spill/{name}"] = entry["time_ms"]
    serving = doc.get("serving")
    if serving:
        times["serving/cold"] = serving["cold_ms"]
        times["serving/hot"] = serving["hot_ms"]
        times["serving/p50"] = serving["p50_ms"]
        times["serving/p99"] = serving["p99_ms"]
        # Added with the wire front-end; .get() so older baselines
        # (serving sections without these keys) still compare cleanly.
        if "prepared_ms" in serving:
            times["serving/prepared"] = serving["prepared_ms"]
        wire = serving.get("wire")
        if wire:
            times["serving/wire_p50"] = wire["p50_ms"]
            times["serving/wire_p99"] = wire["p99_ms"]
    return times


def _core_counts(doc: dict) -> set:
    return {entry.get("cores") for entry in doc.get("parallel", {}).values()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path, required=True)
    parser.add_argument("--current", type=pathlib.Path, required=True)
    parser.add_argument("--threshold", type=float, default=2.0)
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    if baseline.get("scale") != current.get("scale"):
        print(
            f"bench scales differ (baseline {baseline.get('scale')} vs "
            f"current {current.get('scale')}): skipping regression gate"
        )
        return 0

    # Multi-threaded wall-clock is only comparable at equal core counts
    # (p4 on a 1-core box pays pure thread overhead that a 4-core box
    # amortizes) — the same comparability rule that gates on equal scale
    # above.  serial_ms stays gated either way: it is single-threaded and
    # catches a scheduler limping on poll timeouts regardless of cores.
    base_cores, cur_cores = _core_counts(baseline), _core_counts(current)
    include_multithread = base_cores == cur_cores
    if not include_multithread:
        print(
            f"core counts differ (baseline {sorted(base_cores)} vs current "
            f"{sorted(cur_cores)}): skipping multi-threaded parallel/* comparisons"
        )
    base_times = _tracked_times(baseline, include_multithread)
    cur_times = _tracked_times(current, include_multithread)
    ratios = {
        name: cur_ms / max(base_times[name], 1e-9)
        for name, cur_ms in cur_times.items()
        if name in base_times
    }
    median = statistics.median(ratios.values()) if ratios else 1.0
    print(f"median ratio vs baseline: {median:.2f}x (machine-speed normalizer)")
    regressions: list[str] = []
    # The global gate is twice as wide as the per-scenario one: runner
    # classes legitimately differ by ~2x in single-thread speed, and the
    # normalized per-scenario checks below are the primary regression
    # signal — the median gate only catches whole-suite blowups.
    if median > 2 * args.threshold:
        regressions.append(
            f"median ratio {median:.2f}x > {2 * args.threshold:.2f}x "
            "(global regression, or a pathologically slow runner)"
        )
    for name, cur_ms in sorted(cur_times.items()):
        base_ms = base_times.get(name)
        if base_ms is None:
            print(f"  new scenario (no baseline): {name} = {cur_ms:.3f} ms")
            continue
        normalized = ratios[name] / max(median, 1e-9)
        marker = "REGRESSED" if normalized > args.threshold else "ok"
        print(
            f"  {name}: {base_ms:.3f} ms -> {cur_ms:.3f} ms "
            f"({ratios[name]:.2f}x raw, {normalized:.2f}x normalized) {marker}"
        )
        if normalized > args.threshold:
            regressions.append(
                f"{name}: {normalized:.2f}x normalized > {args.threshold:.2f}x"
            )
    if regressions:
        print("bench regression gate FAILED:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"bench regression gate ok ({len(cur_times)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
