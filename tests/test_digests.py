"""Byte pins on the perfbench inputs, and the names perfbench's tracer patches.

perfbench/workloads.py is loaded as it stands. The infer_video request runs
once, end to end: the TCS1 file and every preview frame must hash to the
seed-0 entry of perfbench/digests.json. The first segment_noisy and the
first segment_clean_large clip of seed 3 run through `camsig
signal-from-video`, and each TCS1 file must hash to the digest recorded
for it.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from camsig.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEGMENT_SEED_3_CLIP_0_TCS1 = {
    "segment_noisy": "e5880c58411d139ffe84727fb9c36d2d76b36256d624c1745095a3e513fd7a87",
    "segment_clean_large": "e60d451a25d8a6ff05d2bb1461a904d4e7ca4a2efe122854bdbb1285593eb82f",
}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_workloads():
    return load_perfbench("workloads")


def test_infer_video_seed_0_matches_recorded_digests(tmp_path):
    workload = load_workloads().WORKLOADS["infer_video"]
    workload.setup(0, tmp_path)
    result = workload.run_item(workload.load(tmp_path)[0])
    assert result.failures == []
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["infer_video"]["0"]
    assert result.digests == recorded


def signal_from_video_seed_3_clip_0_digest(name, tmp_path):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]
    spec, path = workload.scene(workload.clip_seeds(3)[0])
    workloads.export_scene(spec, path, tmp_path)  # writes intrinsics.json too
    out = tmp_path / "signal.tcs"
    argv = ["signal-from-video", "--tracks", str(tmp_path / "tracks.tct"), "--depth-dir", str(tmp_path),
            "--intrinsics", str(tmp_path / "intrinsics.json"), "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_signal_from_video_segment_noisy_clip_matches_recorded_digest(tmp_path):
    digest = signal_from_video_seed_3_clip_0_digest("segment_noisy", tmp_path)
    assert digest == SEGMENT_SEED_3_CLIP_0_TCS1["segment_noisy"]


def test_signal_from_video_segment_clean_large_clip_matches_recorded_digest(tmp_path):
    digest = signal_from_video_seed_3_clip_0_digest("segment_clean_large", tmp_path)
    assert digest == SEGMENT_SEED_3_CLIP_0_TCS1["segment_clean_large"]


def test_tracer_nested_names_resolve():
    # `perfbench/run.py --trace 1` replaces these module attributes by name.
    for module_name, attr, _ in load_perfbench("tracer").NESTED:
        assert callable(getattr(importlib.import_module(module_name), attr))
