"""Smoke test of the benchmark harness itself (not collected by tier-1:
``testpaths`` is ``tests``).  Run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

(``PYTHONPATH`` is for ``benchmarks/conftest.py``, which pytest loads on the
way here; the harness itself finds ``src/`` on its own.)

Every workload runs at a tenth of the data for one second; the assertions
are about what is printed and counted, never about how fast.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(workload: str, *extra: str, trace: int = 0) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--duration", "1", "--scale", "0.1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def check_metrics(result: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(metric["unit"]) and metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)), name


def test_names_in_the_spec_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_end_to_end_metric_and_no_errors(workload, tmp_path):
    # An empty expected dir: at this scale every answer comes from the live oracle.
    result, stdout = run(workload, "--expected-dir", str(tmp_path))
    check_metrics(result, "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert re.search(rf"^{re.escape(workload)}\s+error_rate\s+0 ratio", stdout, re.M)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, _ = run("ic-hot", "--expected-dir", str(tmp_path), trace=1)
    check_metrics(result, "per_layer")
    assert result["correct"] is True


def test_corrupted_expected_digest_is_counted_as_an_error(tmp_path):
    result, _ = run("ic-hot", "--expected-dir", str(tmp_path), "--write-expected")
    assert result["correct"] is True
    path = tmp_path / "ic-hot.json"
    expected = json.loads(path.read_text())
    entry = expected["entries"]["IC1-1"]
    entry["sha256"] = "0" * len(entry["sha256"])
    path.write_text(json.dumps(expected))
    result, stdout = run("ic-hot", "--expected-dir", str(tmp_path))
    assert result["correct"] is False and result["failed"] >= 1
    assert "IC1-1: wrong answer" in stdout
