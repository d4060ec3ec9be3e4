"""Every workload runs end to end at a tiny size and reports what BENCHMARK.json lists."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import END_TO_END_UNITS, PER_LAYER, layer_unit
from workloads import CliSizes, DesignSizes, OracleSizes, SplitSizes

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "contract_design": DesignSizes(large_n=2000, large_agents=1, small_agents=16),
    "budget_split": SplitSizes(agents=6, budget=2, steps=50, draws=500),
    "oracle_verify": OracleSizes(single_n=(1, 3), step=0.02, alloc_steps=(0.05, 0.02)),
    "cli_batch": CliSizes(agents=2, samples=500),
}
# operations per round that run into a known fault of the program
FAULT_OPS = {"contract_design": 5, "budget_split": 1, "oracle_verify": 0, "cli_batch": 1}


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(TINY)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert [m["name"] for m in BENCHMARK["per_layer"]] == PER_LAYER
    assert all(m["unit"] == layer_unit(m["name"]) for m in BENCHMARK["per_layer"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_end_to_end(name, trace):
    rec = run.run_workload(name, seed=5, seconds=0, trace=trace, sizes=TINY[name])
    res = rec["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], rec["problems"]
    rounds = 2 if trace else 1
    assert res["attempted"] >= rounds and res["attempted"] % rounds == 0
    assert 0 <= res["failed"] <= FAULT_OPS[name] * rounds
    expected = PER_LAYER if trace else list(END_TO_END_UNITS)
    assert list(res["metrics"]) == expected
    if trace:
        assert Path(run.OUT.parent.parent, rec["trace_file"]).stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "budget_split", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
