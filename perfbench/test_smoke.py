"""Smoke test of the benchmark itself: every workload at tiny size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
Each workload runs for one second on shrunken inputs, untraced and traced,
and must print every metric BENCHMARK.json names, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# cli_pipeline runs by hand only (see README.md) but must keep the same metrics
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cli_pipeline"]


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace, group):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
