"""Byte pin: the infer_video request writes the digests recorded for seed 0.

perfbench/workloads.py is loaded as it stands and run once, end to end:
the TCS1 file and every preview frame must hash to the seed-0 entry of
perfbench/digests.json.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_infer_video_seed_0_matches_recorded_digests(tmp_path):
    workload = load_workloads().WORKLOADS["infer_video"]
    workload.setup(0, tmp_path)
    result = workload.run_item(workload.load(tmp_path)[0])
    assert result.failures == []
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["infer_video"]["0"]
    assert result.digests == recorded
