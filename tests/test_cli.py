import json
import shutil

import numpy as np
import pytest

from camsig.campath import CameraPath, PrimitiveSpec, compose_paths, generate_primitive, load_path, save_path
from camsig.cli import main
from camsig.geometry import Intrinsics, RigidMotion, apply, project, read_json, unproject
from camsig.io import (
    Tracks,
    read_depth,
    read_pgm,
    read_tensor,
    read_tracks,
    write_correspondences,
    write_depth,
    write_tensor,
    write_tracks,
)
from camsig.preview import splat_zbuffer
from camsig.signal import build_inference_signal, normalize_tensor
from camsig.synth import generate_scene, scene_from_dict
from camsig.trajfield import grid_sample_uv
from util import K32, rng


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


def write_far_path(file, t, base=None):
    """A 5-frame pan (or `base`) path whose frame 2 has the translation t."""
    path = base or generate_primitive(PrimitiveSpec("pan_right", 0.3, 5))
    motions = list(path.motions)
    motions[2] = RigidMotion(motions[2].rotation, np.array(t, dtype=float))
    save_path(CameraPath(motions), file)


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


def test_signal_from_video_strength_beyond_float32_is_data_error(tmp_path, capsys):
    # One far track entry and one far depth sample give frame 2 a residual
    # speed of about 2e72: it must be refused before the float32 cast.
    scene, path, out = tmp_path / "scene.json", tmp_path / "path.json", tmp_path / "synth"
    write_scene(scene, frames=4)
    save_path(generate_primitive(PrimitiveSpec("pan_left", 0.1, 4)), path)
    assert main(["synth", "--scene", str(scene), "--path", str(path), "--out", str(out)]) == 0
    tracks_file = out / "tracks.tct"
    tracks = read_tracks(tracks_file)
    tracks.uv[2, 0, 0] = 3e38
    tracks.visible[2, 0] = True
    write_tracks(tracks_file, tracks)
    depth = read_depth(out / "depth_0002.tcd")
    depth[0, 31] = 3e38
    write_depth(out / "depth_0002.tcd", depth)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    tensor_file = tmp_path / "signal.tcs"
    argv = ["signal-from-video", *segment_argv(tracks_file, out, k_file)[1:], "--out", str(tensor_file)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tracks_file}: motion strength must be a float32 value >= 0, got ")
    assert "Traceback" not in err
    assert not tensor_file.exists()
    assert not tensor_file.with_suffix(".m.json").exists()


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


@pytest.mark.parametrize("strength", ["1e39", "3.5e38"])
def test_motion_strength_beyond_float32_is_data_error(tmp_path, capsys, strength):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    assert main(signal_from_path_argv(tmp_path, path_file, strength)) == 2
    err = capsys.readouterr().err
    limit = float(np.finfo(np.float32).max)
    assert err == f"error: --motion-strength must not exceed the float32 limit {limit}, got {float(strength)}\n"
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


def test_negative_seed_is_usage_error(tmp_path, capsys):
    scene, path, out = tmp_path / "scene.json", tmp_path / "path.json", tmp_path / "synth"
    write_scene(scene)
    write_zoom_roll_path(path)
    argv = ["synth", "--scene", str(scene), "--path", str(path), "--out", str(out)]
    assert main(["--seed", "-1"] + argv) == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--seed", "0"] + argv) == 0


def test_synth_depth_maps_hold_only_visible_points(tmp_path):
    # zoom_in 1.3 carries the 1.0-1.4 deep scene through the camera: in
    # frame 5 no track is visible, and the held positions of the points
    # behind the camera must leave no depth.
    scene, path, out = tmp_path / "scene.json", tmp_path / "path.json", tmp_path / "synth"
    write_scene(scene, frames=6, seed=1, depth=(1.0, 1.4), jitter=0.2)
    save_path(generate_primitive(PrimitiveSpec("zoom_in", 1.3, 6)), path)
    assert main(["synth", "--scene", str(scene), "--path", str(path), "--out", str(out)]) == 0
    field = generate_scene(scene_from_dict(read_json(scene)), load_path(path)).field
    assert not read_tracks(out / "tracks.tct").visible[5].any()
    for lam, (p, v) in enumerate(zip(field.positions, field.visibility)):
        expected = splat_zbuffer(p[v], p[v, 2], K32)[0].astype(np.float32)
        assert np.array_equal(read_depth(out / f"depth_{lam:04d}.tcd"), expected)
    assert not read_depth(out / "depth_0005.tcd").any()


def test_tracks_on_a_coarser_grid_than_the_image(tmp_path):
    # 16x16 tracks on a 32x32 image: the grid is recovered from frame 0 and
    # the signal keeps the track grid, not the image grid.
    path = generate_primitive(PrimitiveSpec("pan_right", 0.05, 4))
    uv0 = grid_sample_uv(16, 16, K32)
    p0 = unproject(uv0, np.full(len(uv0), 2.0), K32)
    uv = np.stack([project(apply(m, p0), K32) for m in path.motions])
    write_tracks(tmp_path / "tracks.tct", Tracks(uv, np.ones(uv.shape[:2], dtype=bool)))
    for lam in range(4):
        write_depth(tmp_path / f"depth_{lam:04d}.tcd", np.full((K32.height, K32.width), 2.0))
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    inputs = segment_argv(tmp_path / "tracks.tct", tmp_path, k_file)[1:]
    assert main(["segment", *inputs, "--out", str(tmp_path / "seg")]) == 0
    tensor_file = tmp_path / "signal.tcs"
    assert main(["signal-from-video", *inputs, "--out", str(tensor_file)]) == 0
    data = read_tensor(tensor_file).data
    assert data.shape == (4, 3, 16, 16)
    assert np.array_equal(data[0, 0].ravel(), uv0[:, 0].astype(np.float32))
    assert np.array_equal(data[0, 1].ravel(), uv0[:, 1].astype(np.float32))


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


def test_path_frame_beyond_float32_range_is_held(tmp_path):
    # Frame 2 moves every point to x = 1e38: the projection, about 1e39, is
    # finite in float64 but beyond float32. It lies outside the image, so it
    # is held before the frame is cast and no overflow warning escapes.
    data = run_synth(tmp_path)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    write_far_path(data / "path.json", [1e38, 0.0, 0.0])
    tensor = tmp_path / "t.tcs"
    assert main(inference_argv(data, k_file) + ["--out", str(tensor)]) == 0
    ct = read_tensor(tensor)
    assert np.isfinite(ct.data).all()
    assert np.array_equal(ct.data[2, :2], ct.data[1, :2])


def test_overflowing_path_frame_is_held(tmp_path):
    # Frame 2 moves every point to x = 1e308, whose projection overflows to
    # inf: outside the image, so the signal holds frame 1's pixel values and
    # the preview leaves frame 2 uncovered. No overflow warning escapes
    # (warnings are errors in this suite).
    data = run_synth(tmp_path)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    write_far_path(data / "path.json", [1e308, 0.0, 0.0])
    tensor = tmp_path / "t.tcs"
    assert main(inference_argv(data, k_file) + ["--out", str(tensor)]) == 0
    ct = read_tensor(tensor)
    assert np.isfinite(ct.data).all()
    assert np.array_equal(ct.data[2, :2], ct.data[1, :2])
    prev = tmp_path / "prev"
    assert main(preview_argv(data, k_file) + ["--out", str(prev)]) == 0
    assert not read_pgm(prev / "coverage_0002.pgm").any()


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


@pytest.mark.parametrize("field", ["depth_jitter", "track_noise", "radius"])
def test_non_finite_scene_value_is_data_error(tmp_path, capsys, field):
    scene = tmp_path / "scene.json"
    path = tmp_path / "path.json"
    out = tmp_path / "synth"
    objects = [{"center": [15.5, 15.5], "radius": 5.0, "velocity": [0.0, 0.05, 0.0]}]
    write_scene(scene, objects=objects)
    doc = json.loads(scene.read_text())
    if field == "radius":
        doc["objects"][0]["radius"] = float("nan")
    else:
        doc[field] = float("nan")
    scene.write_text(json.dumps(doc))  # writes the JSON extension NaN
    write_zoom_roll_path(path)
    assert main(["synth", "--scene", str(scene), "--path", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene}: ") and f"{field} must be finite" in err
    assert not out.exists()


def test_infinite_focal_length_is_data_error(tmp_path, capsys):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    argv = signal_from_path_argv(tmp_path, path_file)
    k_file = tmp_path / "k.json"
    k_file.write_text(json.dumps({**K32.to_dict(), "fx": float("inf")}))  # JSON Infinity
    assert "Infinity" in k_file.read_text()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {k_file}: focal lengths must be finite and positive")
    assert not (tmp_path / "t.tcs").exists()


def set_fields(**fields):
    return lambda doc: doc.update(fields)


def object_with_motion(frame1, frames=5):
    motions = [IDENTITY_FRAME] * frames
    motions[1] = frame1
    return {"center": [15.5, 15.5], "radius": 5.0, "motions": motions}


RAGGED_R = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
SCALED_R = [[1.01, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize(
    "target, edit, fragment",
    [
        pytest.param("intrinsics", set_fields(width=None), "width: expected an integer, got null", id="intrinsics-width-null"),
        pytest.param("intrinsics", set_fields(fx=[1]), "fx: expected a number, got [1]", id="intrinsics-fx-list"),
        pytest.param("intrinsics", set_fields(fx=True), "fx: expected a number, got true", id="intrinsics-fx-bool"),
        pytest.param("scene", set_fields(grid=8), "grid: expected 2 integers, got 8", id="scene-grid-number"),
        pytest.param("scene", set_fields(grid=[None, 8]), "grid: expected 2 integers", id="scene-grid-null"),
        pytest.param("scene", set_fields(intrinsics=5), "intrinsics: expected an object, got 5", id="scene-intrinsics-number"),
        pytest.param("scene", set_fields(objects=3), "objects: expected a list, got 3", id="scene-objects-number"),
        pytest.param("scene", set_fields(depth_range=[2]), "depth_range: expected 2 numbers", id="scene-depth-range-short"),
        pytest.param("scene", set_fields(frames=2.5), "frames: expected an integer, got 2.5", id="scene-frames-fraction"),
        pytest.param("scene", set_fields(seed=-1), "seed must be a non-negative integer, got -1", id="scene-seed-negative"),
        pytest.param(
            "scene",
            set_fields(objects=[{"center": [15.5, 15.5], "velocity": [0.0, 0.05, 0.0]}]),
            "missing object keys: ['radius']",
            id="object-without-radius",
        ),
        pytest.param(
            "scene",
            set_fields(objects=[object_with_motion({"R": np.eye(3).tolist()})]),
            "frame 1: missing motion keys: ['t']",
            id="object-motion-without-t",
        ),
        pytest.param(
            "scene",
            set_fields(objects=[object_with_motion({"R": SCALED_R, "t": [0.0, 0.0, 0.0]})]),
            "invalid rotation at frame 1",
            id="object-motion-not-rotation",
        ),
        pytest.param(
            "path",
            lambda doc: doc["frames"][1].update(R=RAGGED_R),
            "frame 1: R: expected 3x3 numbers",
            id="path-ragged-R",
        ),
    ],
)
def test_malformed_json_field_is_data_error(tmp_path, capsys, target, edit, fragment):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    if target == "scene":
        file = tmp_path / "scene.json"
        write_scene(file)
        out = tmp_path / "synth"
        argv = ["synth", "--scene", str(file), "--path", str(path_file), "--out", str(out)]
    else:
        argv = signal_from_path_argv(tmp_path, path_file)
        file = path_file if target == "path" else tmp_path / "k.json"
        out = tmp_path / "t.tcs"
    doc = json.loads(file.read_text())
    edit(doc)
    file.write_text(json.dumps(doc))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {file}: ") and fragment in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "frames, objects, message",
    [
        (6, [], "path length does not match scene frame count"),
        (5, [{"center": [40.0, 15.5], "radius": 3.0, "velocity": [0.0, 0.0, 0.0]}], "object not visible in frame 0"),
        (5, [object_with_motion(IDENTITY_FRAME, frames=3)], "object motion count does not match frame count"),
    ],
    ids=["path-length", "object-outside-image", "object-motion-count"],
)
def test_synth_scene_errors_name_the_scene_file(tmp_path, capsys, frames, objects, message):
    scene = tmp_path / "scene.json"
    path = tmp_path / "path.json"
    out = tmp_path / "synth"
    write_scene(scene, frames=frames, objects=objects)
    write_zoom_roll_path(path)
    assert main(["synth", "--scene", str(scene), "--path", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {scene}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("-1 1 2 3 4\n", "line 1: pair indices must start at 0"),
        ("0 1 2 3 4\n0 nan 2 3 4\n", "line 2: non-finite coordinate"),
        ("0 1 2 3 4\n1 1 2 -inf 4\n", "line 2: non-finite coordinate"),
        ("0 1e308 2 3 4\n0 6 1.5 6.5 2\n0 -1e308 7 3.5 7.5\n", "coordinates too large for a finite residual"),
    ],
    ids=["negative-first-index", "nan", "inf", "overflow"],
)
def test_eval_bad_correspondences_is_data_error(tmp_path, capsys, text, message):
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    corr = tmp_path / "c.txt"
    corr.write_text(text)
    out = tmp_path / "report.json"
    argv = ["eval", "--gt", str(path_file), "--est", str(path_file), "--corr", str(corr), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {corr}: {message}")
    assert not out.exists()


def test_segment_tracks_without_points_is_data_error(tmp_path, capsys):
    out = run_synth(tmp_path)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    tracks = tmp_path / "empty.tct"
    tracks.write_bytes(b"TCT1" + (5).to_bytes(4, "little") + (0).to_bytes(4, "little"))
    seg = tmp_path / "seg"
    argv = ["segment", "--tracks", str(tracks), "--depth-dir", str(out), "--intrinsics", str(k_file), "--out", str(seg)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {tracks}: ")
    assert not seg.exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def deep_json(tmp_path):
    file = tmp_path / "deep.json"
    file.write_text(DEEP_JSON)
    return file


def preview_argv(data, k_file, rgb=None, depth=None):
    return [
        "preview",
        "--rgb", str(rgb or data / "rgb0.ppm"),
        "--depth", str(depth or data / "depth_0000.tcd"),
        "--intrinsics", str(k_file),
        "--path", str(data / "path.json"),
    ]


def inference_argv(data, k_file, depth=None):
    depth = depth or data / "depth_0000.tcd"
    return ["signal-from-path", "--depth", str(depth), "--intrinsics", str(k_file),
            "--path", str(data / "path.json"), "--motion-strength", "1"]


def segment_argv(tracks, depth_dir, k_file):
    return ["segment", "--tracks", str(tracks), "--depth-dir", str(depth_dir), "--intrinsics", str(k_file)]


def deep_path(tmp_path, data, k_file):
    deep = deep_json(tmp_path)
    return ["eval", "--gt", str(deep), "--est", str(data / "path.json")], deep, "nested too deeply"


def deep_intrinsics(tmp_path, data, k_file):
    deep = deep_json(tmp_path)
    return inference_argv(data, deep), deep, "nested too deeply"


def deep_scene(tmp_path, data, k_file):
    deep = deep_json(tmp_path)
    return ["synth", "--scene", str(deep), "--path", str(data / "path.json")], deep, "nested too deeply"


def preview_depth_hole(tmp_path, data, k_file):
    depth = read_depth(data / "depth_0000.tcd")
    depth[2, 3] = 0.0
    hole = tmp_path / "hole.tcd"
    write_depth(hole, depth)
    return preview_argv(data, k_file, depth=hole), hole, "finite and positive, got 0.0 at pixel (row 2, col 3)"


def segment_wrong_depth_size(tmp_path, data, k_file):
    wrong = data / "depth_0001.tcd"
    write_depth(wrong, np.full((K32.height, K32.width + 1), 4.0))
    return segment_argv(data / "tracks.tct", data, k_file), wrong, "depth map dimensions"


def segment_one_frame_tracks(tmp_path, data, k_file):
    clip = tmp_path / "clip"
    clip.mkdir()
    shutil.copy(data / "depth_0000.tcd", clip)
    tracks = read_tracks(data / "tracks.tct")
    write_tracks(clip / "tracks.tct", Tracks(tracks.uv[:1], tracks.visible[:1]))
    return segment_argv(clip / "tracks.tct", clip, k_file), clip / "tracks.tct", "at least two frames"


def preview_negative_ppm_size(tmp_path, data, k_file):
    rgb = tmp_path / "negative.ppm"
    rgb.write_bytes(b"P6 -2 -2 255\n" + bytes(12))
    return preview_argv(data, k_file, rgb=rgb), rgb, "malformed header"


def eval_huge_translation(tmp_path, data, k_file):
    gt, huge = tmp_path / "pan.json", tmp_path / "huge.json"
    save_path(generate_primitive(PrimitiveSpec("pan_right", 0.3, 5)), gt)
    write_far_path(huge, [1e308, 0.0, 0.0])
    return ["eval", "--gt", str(gt), "--est", str(huge)], huge, "too large for a finite error"


def synth_far_point(tmp_path, data, t):
    far = tmp_path / "far.json"
    write_far_path(far, t, base=load_path(data / "path.json"))
    argv = ["synth", "--scene", str(tmp_path / "scene.json"), "--path", str(far)]
    return argv, far, "exceed the float32 range"


def synth_far_depth(tmp_path, data, k_file):
    return synth_far_point(tmp_path, data, [0.0, 0.0, 1e39])


def synth_far_track(tmp_path, data, k_file):
    return synth_far_point(tmp_path, data, [1e38, 0.0, 0.0])


def synth_noisy_overflowing_track(tmp_path, data, k_file):
    # Frame 2's projection overflows to inf; track noise must not lift it
    # to an infinite position that would blame the scene file.
    noisy, huge = tmp_path / "noisy.json", tmp_path / "huge.json"
    write_scene(noisy, noise=0.3)
    write_far_path(huge, [1e308, 0.0, 0.0])
    return ["synth", "--scene", str(noisy), "--path", str(huge)], huge, "exceed the float32 range"


def normalized_thin_image(tmp_path, data, width, height):
    k = Intrinsics(fx=48.0, fy=48.0, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height)
    k_thin = tmp_path / "k_thin.json"
    write_intrinsics(k_thin, k)
    depth = tmp_path / "thin.tcd"
    write_depth(depth, np.full((height, width), 3.0))
    return inference_argv(data, k_thin, depth) + ["--normalized"], k_thin, "at least 2x2"


def normalized_width_1(tmp_path, data, k_file):
    return normalized_thin_image(tmp_path, data, 1, K32.height)


def normalized_height_1(tmp_path, data, k_file):
    return normalized_thin_image(tmp_path, data, K32.width, 1)


@pytest.mark.parametrize(
    "case",
    [
        deep_path,
        deep_intrinsics,
        deep_scene,
        preview_depth_hole,
        segment_wrong_depth_size,
        segment_one_frame_tracks,
        preview_negative_ppm_size,
        normalized_width_1,
        normalized_height_1,
        eval_huge_translation,
        synth_far_depth,
        synth_far_track,
        synth_noisy_overflowing_track,
    ],
    ids=lambda case: case.__name__,
)
def test_data_error_blames_its_file(tmp_path, capsys, case):
    data = run_synth(tmp_path)
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    argv, blamed, fragment = case(tmp_path, data, k_file)
    out = tmp_path / "result"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {blamed}: ") and fragment in err
    assert "Traceback" not in err
    assert not out.exists()


def test_normalized_signal_bytes(tmp_path):
    # signal-from-path --normalized writes 2·u / (W - 1) - 1, and likewise
    # for v, computed in float32 from the float32 pixel-coordinate tensor.
    depth_file = tmp_path / "d.tcd"
    write_depth(depth_file, rng(61).uniform(2.0, 5.0, (K32.height, K32.width)))
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    out = tmp_path / "t.tcs"
    argv = ["signal-from-path", "--depth", str(depth_file), "--intrinsics", str(k_file),
            "--path", str(path_file), "--motion-strength", "2.5", "--normalized", "--out", str(out)]
    assert main(argv) == 0
    ct = build_inference_signal(read_depth(depth_file), K32, load_path(path_file), 2.5)
    expected = ct.data.copy()
    expected[:, 0] = 2.0 * ct.data[:, 0] / (K32.width - 1.0) - 1.0
    expected[:, 1] = 2.0 * ct.data[:, 1] / (K32.height - 1.0) - 1.0
    body = out.read_bytes()[20:]
    assert body == expected.astype("<f4").tobytes() + ct.last_frame_valid.astype("u1").tobytes()


def test_normalized_output_is_normalized_plain_output(tmp_path):
    depth_file = tmp_path / "d.tcd"
    write_depth(depth_file, rng(62).uniform(2.0, 5.0, (K32.height, K32.width)))
    k_file = tmp_path / "k.json"
    write_intrinsics(k_file)
    path_file = tmp_path / "p.json"
    write_zoom_roll_path(path_file)
    argv = ["signal-from-path", "--depth", str(depth_file), "--intrinsics", str(k_file),
            "--path", str(path_file), "--motion-strength", "2.5"]
    assert main(argv + ["--out", str(tmp_path / "plain.tcs")]) == 0
    assert main(argv + ["--normalized", "--out", str(tmp_path / "norm.tcs")]) == 0
    write_tensor(tmp_path / "renorm.tcs", normalize_tensor(read_tensor(tmp_path / "plain.tcs"), K32))
    assert (tmp_path / "renorm.tcs").read_bytes() == (tmp_path / "norm.tcs").read_bytes()
