import json
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_run_py():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_per_layer_metrics_match_the_trace():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert listed == layers.metric_specs()


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
