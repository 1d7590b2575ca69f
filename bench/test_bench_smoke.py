"""Smoke test of the benchmark: every workload at its smallest inputs."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def test_benchmark_json_names_every_metric_and_workload():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(workload):
    result, record = run.benchmark(workload, seed=3, seconds=0, trace=1, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    assert record["info"]["counters_repeat"]
    # tracing leaves capfold unwrapped afterwards
    import capfold.caps
    import capfold.directions

    assert capfold.directions.rearrange is capfold.caps.rearrange
    assert not hasattr(capfold.caps.rearrange, "__wrapped__")


def test_smoke_run_prints_end_to_end_metrics(capsys):
    assert run.main(["--workload", "sphere-quotient", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--smoke"]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
