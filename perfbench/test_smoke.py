"""Smoke test of the benchmark itself, at tiny sizes, one pass per kind.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
run.bootstrap()


def test_runner_metrics_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_interaction_map_covers_every_per_layer_metric():
    interactions = json.loads((workloads.HERE / "interactions.json").read_text(encoding="utf-8"))["map"]
    assert set(interactions) == set(run.PER_LAYER)
    for entry in interactions.values():
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_reported_with_its_unit_and_no_job_fails(workload, trace, tmp_path):
    result = run.run_workload(
        workload, seed=1, seconds=0, trace=trace, sizes=workloads.TINY, min_passes=1, out_root=tmp_path
    )
    details = result["details"]
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert details["fail_ratio"] == 0.0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    assert (tmp_path / f"result-{workload}-seed1-trace{trace}.json").is_file()
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["cli.csv_identical"] == 1
        assert (tmp_path / f"spans-{workload}-seed1-trace1.jsonl").stat().st_size > 0
        if workload == "network-sim":
            assert metrics["montecarlo.device_cycles"] > 0 and metrics["markov.solves"] == 0
        else:
            assert 0 < metrics["markov.solves_unique"] <= metrics["markov.solves"]
            assert metrics["montecarlo.device_cycles"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    args = [sys.executable, *SPEC["command"][1:], "--workload", "network-sim", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
