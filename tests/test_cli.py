import json

import numpy as np
import pytest

from camsig.campath import PrimitiveSpec, compose_paths, generate_primitive, load_path, save_path
from camsig.cli import main
from camsig.io import read_pgm, read_tensor, write_correspondences, write_depth
from util import K32


def write_intrinsics(path, k=K32):
    path.write_text(json.dumps(k.to_dict()))


def write_scene(path, frames=5, objects=(), noise=0.0, seed=3, depth=(4.0, 4.0), jitter=0.0):
    doc = {
        "frames": frames,
        "grid": [K32.height, K32.width],
        "intrinsics": K32.to_dict(),
        "depth_range": list(depth),
        "depth_jitter": jitter,
        "objects": list(objects),
        "track_noise": noise,
        "seed": seed,
    }
    path.write_text(json.dumps(doc))


def write_zoom_roll_path(path, frames=5):
    zoom = generate_primitive(PrimitiveSpec("zoom_out", 0.3, frames))
    roll = generate_primitive(PrimitiveSpec("rot_cw", 0.1, frames))
    save_path(compose_paths(zoom, roll), path)


def run_synth(tmp_path, **scene_kwargs):
    scene = tmp_path / "scene.json"
    path = tmp_path / "path.json"
    out = tmp_path / "synth"
    write_scene(scene, **scene_kwargs)
    write_zoom_roll_path(path, scene_kwargs.get("frames", 5))
    assert main(["synth", "--scene", str(scene), "--path", str(path), "--out", str(out)]) == 0
    return out


def test_path_command_zero_magnitude_identity(tmp_path):
    out = tmp_path / "p.json"
    code = main(["path", "--primitive", "zoom_in", "--magnitude", "0", "--frames", "24", "--out", str(out)])
    assert code == 0
    path = load_path(out)
    assert len(path) == 24
    assert all(m.is_identity() for m in path.motions)


def test_synth_then_segment_partition_matches(tmp_path):
    # Integer-pixel construction: camera pans exactly 1 px/frame and both
    # objects move exactly +/-2 px/frame at constant depth, so every track
    # lands on a pixel center, depth samples are exact, and the extracted
    # partition reproduces the ground truth bit for bit.
    k = {"fx": 64.0, "fy": 64.0, "cx": 15.5, "cy": 15.5, "width": 32, "height": 32}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "frames": 5,
        "grid": [32, 32],
        "intrinsics": k,
        "depth_range": [4.0, 4.0],
        "objects": [
            {"center": [9.0, 15.5], "radius": 4.0, "velocity": [0.125, 0.0, 0.0]},
            {"center": [22.0, 15.5], "radius": 4.0, "velocity": [-0.125, 0.0, 0.0]},
        ],
        "seed": 3,
    }))
    path_file = tmp_path / "path.json"
    save_path(generate_primitive(PrimitiveSpec("pan_right", 0.25, 5)), path_file)
    out = tmp_path / "synth"
    assert main(["synth", "--scene", str(scene), "--path", str(path_file), "--out", str(out)]) == 0
    seg = tmp_path / "seg"
    k_file = tmp_path / "k.json"
    k_file.write_text(json.dumps(k))
    code = main([
        "segment",
        "--tracks", str(out / "tracks.tct"),
        "--depth-dir", str(out),
        "--intrinsics", str(k_file),
        "--out", str(seg),
    ])
    assert code == 0
    assert np.array_equal(read_pgm(seg / "mask.pgm"), read_pgm(out / "partition.pgm"))
    report = json.loads((seg / "report.json").read_text())
    assert report["status"] == "converged_eps"
    assert report["toolkit_version"]
    motions = load_path(seg / "motions.json")
    assert len(motions) == 5


def test_signal_from_video_pipeline(tmp_path):
    objects = [{"center": [15.5, 15.5], "radius": 5.0, "velocity": [0.0, 0.05, 0.0]}]
    out = run_synth(tmp_path, objects=objects)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    tensor_file = tmp_path / "signal.tcs"
    code = main([
        "signal-from-video",
        "--tracks", str(out / "tracks.tct"),
        "--depth-dir", str(out),
        "--intrinsics", str(k_file),
        "--out", str(tensor_file),
    ])
    assert code == 0
    ct = read_tensor(tensor_file)
    assert ct.data.shape == (5, 3, K32.height, K32.width)
    m_doc = json.loads(tensor_file.with_suffix(".m.json").read_text())
    assert m_doc["m"][0] == 0.0
    assert all(v > 0.0 for v in m_doc["m"][1:])


def test_signal_from_path_strength_600(tmp_path):
    depth_file = tmp_path / "d.tcd"
    write_depth(depth_file, np.full((K32.height, K32.width), 3.0))
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    path_file = tmp_path / "p.json"
    assert main(["path", "--primitive", "pan_left", "--magnitude", "0.2", "--frames", "6", "--out", str(path_file)]) == 0
    out = tmp_path / "t.tcs"
    code = main([
        "signal-from-path",
        "--depth", str(depth_file),
        "--intrinsics", str(k_file),
        "--path", str(path_file),
        "--motion-strength", "600",
        "--out", str(out),
    ])
    assert code == 0
    ct = read_tensor(out)
    assert np.all(ct.data[0, 2] == 0.0)
    assert np.all(ct.data[1:, 2] == 600.0)


def signal_from_path_argv(tmp_path, path_file, strength="1"):
    depth_file = tmp_path / "d.tcd"
    write_depth(depth_file, np.full((K32.height, K32.width), 3.0))
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    return [
        "signal-from-path",
        "--depth", str(depth_file),
        "--intrinsics", str(k_file),
        "--path", str(path_file),
        "--motion-strength", strength,
        "--out", str(tmp_path / "t.tcs"),
    ]


IDENTITY_FRAME = {"R": np.eye(3).tolist(), "t": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize(
    "doc",
    [
        {"frames": [IDENTITY_FRAME, {"t": [0.0, 0.0, 0.0]}]},
        {"frames": 5},
        {"frames": [IDENTITY_FRAME, [1.0, 2.0, 3.0]]},
        {"frames": [IDENTITY_FRAME, {"R": {"x": 1}, "t": [0.0, 0.0, 0.0]}]},
    ],
    ids=["frame-without-R", "frames-not-a-list", "frame-not-an-object", "non-numeric-R"],
)
def test_malformed_path_json_is_data_error(tmp_path, capsys, doc):
    path_file = tmp_path / "p.json"
    path_file.write_text(json.dumps(doc))
    assert main(signal_from_path_argv(tmp_path, path_file)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path_file}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "t.tcs").exists()


@pytest.mark.parametrize("strength", ["nan", "inf"])
def test_non_finite_motion_strength_is_data_error(tmp_path, capsys, strength):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    assert main(signal_from_path_argv(tmp_path, path_file, strength)) == 2
    err = capsys.readouterr().err
    assert err == f"error: --motion-strength must be finite and non-negative, got {strength}\n"
    assert not (tmp_path / "t.tcs").exists()


def test_bad_depth_blames_depth_file(tmp_path, capsys):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    argv = signal_from_path_argv(tmp_path, path_file)
    depth_file = tmp_path / "d.tcd"
    write_depth(depth_file, np.full((K32.height, K32.width + 1), 3.0))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {depth_file}: depth map dimensions")
    assert not (tmp_path / "t.tcs").exists()


@pytest.mark.parametrize("command", ["segment", "signal-from-video"])
@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_is_data_error(tmp_path, capsys, command, epsilon):
    out = run_synth(tmp_path)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    target = tmp_path / "result"
    code = main([
        command,
        "--tracks", str(out / "tracks.tct"),
        "--depth-dir", str(out),
        "--intrinsics", str(k_file),
        "--epsilon", epsilon,
        "--out", str(target),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: epsilon must be finite and positive, got {epsilon}\n"
    assert not target.exists()
    assert not target.with_suffix(".m.json").exists()


@pytest.mark.parametrize("magnitude", ["nan", "inf", "-0.5"])
def test_bad_magnitude_is_data_error(tmp_path, capsys, magnitude):
    out = tmp_path / "p.json"
    code = main(["path", "--primitive", "pan_left", "--magnitude", magnitude, "--frames", "4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: magnitude must be finite and non-negative, got {float(magnitude)}\n"
    assert not out.exists()


def test_negative_threads_is_usage_error(tmp_path, capsys):
    out = tmp_path / "p.json"
    argv = ["path", "--primitive", "pan_left", "--magnitude", "0.2", "--frames", "4", "--out", str(out)]
    assert main(["--threads", "-1"] + argv) == 1
    assert "--threads must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--threads", "0"] + argv) == 0


def test_preview_command(tmp_path):
    out = run_synth(tmp_path)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    prev = tmp_path / "prev"
    code = main([
        "preview",
        "--rgb", str(out / "rgb0.ppm"),
        "--depth", str(out / "depth_0000.tcd"),
        "--intrinsics", str(k_file),
        "--path", str(out / "path.json"),
        "--out", str(prev),
    ])
    assert code == 0
    frames = sorted(prev.glob("preview_*.ppm"))
    covers = sorted(prev.glob("coverage_*.pgm"))
    assert len(frames) == 5 and len(covers) == 5
    first = read_pgm(covers[0])
    assert np.all(first == 255)  # identity frame fully covered


def test_eval_self_consistency(tmp_path):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    out = tmp_path / "report.json"
    code = main(["eval", "--gt", str(path_file), "--est", str(path_file), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["rot_err"] == 0.0
    assert report["trans_err"] == 0.0
    assert report["msc"] is None
    assert "toolkit definition" in report["metric_definitions"]


def test_eval_with_correspondences(tmp_path):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    corr = tmp_path / "c.txt"
    src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    write_correspondences(corr, [(src, src + 1.0), (src, src)])
    out = tmp_path / "report.json"
    code = main(["eval", "--gt", str(path_file), "--est", str(path_file), "--corr", str(corr), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["msc"] < 1e-9


def test_exit_code_usage_error():
    assert main(["no-such-command"]) == 1
    assert main(["segment"]) == 1  # missing required flags


def test_exit_code_data_error(tmp_path):
    missing = tmp_path / "nope.json"
    out = tmp_path / "r.json"
    assert main(["eval", "--gt", str(missing), "--est", str(missing), "--out", str(out)]) == 2
    bad = tmp_path / "bad.tcd"
    bad.write_bytes(b"XXXX garbage")
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    code = main([
        "signal-from-path",
        "--depth", str(bad),
        "--intrinsics", str(k_file),
        "--path", str(path_file),
        "--motion-strength", "0",
        "--out", str(tmp_path / "t.tcs"),
    ])
    assert code == 2


def test_exit_code_degenerate_segmentation(tmp_path, capsys):
    # Noisy tracks with a near-zero tolerable error keep trimming until the
    # static floor trips; without --allow-degenerate that exits 3.
    out = run_synth(tmp_path, noise=0.6, seed=21)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    seg = tmp_path / "seg"
    argv = [
        "segment",
        "--tracks", str(out / "tracks.tct"),
        "--depth-dir", str(out),
        "--intrinsics", str(k_file),
        "--epsilon", "1e-9",
        "--alpha", "0.01",
        "--out", str(seg),
    ]
    assert main(argv) == 3
    report = json.loads((seg / "report.json").read_text())
    assert report["status"] == "degenerate"
    assert main(argv + ["--allow-degenerate"]) == 0


def test_help_lists_all_flags(capsys):
    expected = {
        "synth": ["--scene", "--path", "--out"],
        "segment": ["--tracks", "--depth-dir", "--intrinsics", "--epsilon", "--alpha", "--max-iters", "--allow-degenerate", "--out"],
        "signal-from-video": ["--tracks", "--depth-dir", "--intrinsics", "--epsilon", "--alpha", "--max-iters", "--allow-degenerate", "--out"],
        "signal-from-path": ["--depth", "--intrinsics", "--path", "--motion-strength", "--normalized", "--out"],
        "path": ["--primitive", "--magnitude", "--frames", "--out"],
        "preview": ["--rgb", "--depth", "--intrinsics", "--path", "--out"],
        "eval": ["--gt", "--est", "--corr", "--out"],
    }
    for command, flags in expected.items():
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, f"{command} help lacks {flag}"
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for flag in ("--seed", "--threads", "--quiet"):
        assert flag in text
