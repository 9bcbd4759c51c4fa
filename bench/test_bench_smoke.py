"""Smoke test of the benchmark harness at tiny sizes.

Checks that every metric named in BENCHMARK.json comes out with its unit, that
a check fed a wrong expected value is counted as a failed operation, and that
the entry point refuses to run without the qendy sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
from workloads import WORKLOADS, ForecastCliSpec, McStudySpec, WideFitSpec

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "wide-fit": WideFitSpec(samples=2000, held_out=200),
    "mc-study": McStudySpec(sizes=(100, 1000, 10_000), runs=10, limit_order=6,
                            limit_calls=2),
    "forecast-cli": ForecastCliSpec(samples=500, starts=2, t_end=1.0,
                                    replay_calls=10),
}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUPS", 1)


def test_harness_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS) == set(TINY)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_appears_with_its_unit(name, trace):
    lines, result = harness.run_workload(name, 0, 0.0, trace, spec=TINY[name])
    assert json.loads(lines[0][len("env "):])["traced"] is bool(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0.0


def test_wrong_expected_value_counts_as_failed_operation():
    spec = dataclasses.replace(TINY["wide-fit"], nonzeros=(140, 18, 0))
    _, result = harness.run_workload("wide-fit", 0, 0.0, 0, spec=spec)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 3


def test_summarize_reports_percentile_with_ten_samples_beyond():
    assert harness.summarize(range(1, 101)) == (50.5, 100, (90, 90))
    assert harness.summarize(range(19)) == (9, 19, None)


def test_entry_point_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
