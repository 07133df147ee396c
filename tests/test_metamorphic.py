"""Exact metamorphic relations: the pipeline is scale-equivariant.

Scaling every field position by s = 2^k changes no pixel coordinate: every
product, quotient and sum in the pipeline scales exactly by a power of two
or cancels the scale. So `extract_static` on the scaled field must return
the same mask, status, per-point errors and rotations, bit for bit, and
translations exactly s times as large. Through `cli.main` the same holds
for the two signal commands: scaling the depth files changes a
`signal-from-video` tensor only in its strength channel (a metric speed,
exactly s times as large), and scaling the depth with the path
translations leaves the `signal-from-path` bytes unchanged. The relations
need no recorded bytes, so they survive changes that move outputs at the
rounding floor.

The runs are deterministic (derandomized, no example database): synthetic
32x32 scenes of 12 frames with moving discs, without and with track noise.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st

from camsig.campath import CameraPath, load_path, save_path
from camsig.cli import main
from camsig.geometry import RigidMotion, write_json
from camsig.io import read_depth, read_tensor, write_depth
from camsig.segmentation import extract_static
from camsig.synth import DynamicObject, SceneSpec, generate_scene, scene_to_dict
from camsig.trajfield import TrajectoryField
from test_segmentation import KWIDE
from util import pan_roll_path

configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "camsig-hypothesis")

EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=24)


def disc_spec(seed, noise, speed):
    objects = [
        DynamicObject(center=(8.0, 8.0), radius=4.6, velocity=(speed, 0.0, 0.0)),
        DynamicObject(center=(23.0, 23.0), radius=4.6, velocity=(0.0, -speed, 0.0)),
    ]
    return SceneSpec(
        frames=12, grid_h=32, grid_w=32, intrinsics=KWIDE,
        z_near=1.5, z_far=2.5, depth_jitter=0.5, objects=objects,
        track_noise=noise, seed=seed,
    )


def disc_scene(seed, noise, speed):
    return generate_scene(disc_spec(seed, noise, speed), pan_roll_path(12, pan=0.2, roll=0.1)).field


def scaled(field, s):
    return TrajectoryField(field.positions * s, field.visibility, field.grid_h, field.grid_w, field.intrinsics)


@EXACT
@given(
    seed=st.integers(0, 2**31 - 1),
    noise=st.sampled_from([0.0, 0.5]),
    speed=st.sampled_from([0.05, 0.08]),
    k=st.integers(-8, 8),
)
def test_extract_static_is_exactly_scale_equivariant(seed, noise, speed, k):
    field = disc_scene(seed, noise, speed)
    s = 2.0**k
    base = extract_static(field)
    got = extract_static(scaled(field, s))
    assert got.status == base.status
    assert got.iterations_used == base.iterations_used
    assert np.array_equal(got.partition.static_mask, base.partition.static_mask)
    assert np.array_equal(got.per_point_error, base.per_point_error)
    assert got.eps_max_trace == base.eps_max_trace
    for m_got, m_base in zip(got.motions, base.motions, strict=True):
        assert np.array_equal(m_got.rotation, m_base.rotation)
        assert np.array_equal(m_got.translation, m_base.translation * s)


def test_scale_relation_holds_at_the_range_ends():
    field = disc_scene(11, 0.5, 0.08)
    base = extract_static(field)
    for k in (-8, 8):
        got = extract_static(scaled(field, 2.0**k))
        assert np.array_equal(got.per_point_error, base.per_point_error)
        assert all(
            np.array_equal(a.translation, b.translation * 2.0**k)
            for a, b in zip(got.motions, base.motions, strict=True)
        )


CLI = settings(EXACT, max_examples=6)


def synth_clip(work, seed, noise):
    """Write a disc scene's files through `camsig synth`, plus intrinsics.json."""
    write_json(work / "scene.json", scene_to_dict(disc_spec(seed, noise, 0.08)))
    save_path(pan_roll_path(12, pan=0.2, roll=0.1), work / "path.json")
    clip = work / "clip"
    assert main(["synth", "--scene", str(work / "scene.json"), "--path", str(work / "path.json"), "--out", str(clip)]) == 0
    write_json(clip / "intrinsics.json", KWIDE.to_dict())
    return clip


def scaled_copy(clip, out, s):
    """Copy the clip with every depth map, and every path translation, times s."""
    shutil.copytree(clip, out)
    for file in out.glob("depth_*.tcd"):
        write_depth(file, read_depth(file) * s)
    motions = [RigidMotion(m.rotation, m.translation * s) for m in load_path(clip / "path.json").motions]
    save_path(CameraPath(motions), out / "path.json")
    return out


def signal_from_video(clip):
    out = clip / "signal.tcs"
    argv = ["--quiet", "signal-from-video", "--tracks", str(clip / "tracks.tct"), "--depth-dir", str(clip),
            "--intrinsics", str(clip / "intrinsics.json"), "--out", str(out)]
    assert main(argv) == 0
    return read_tensor(out), json.loads(out.with_suffix(".m.json").read_text())["m"]


def signal_from_path(clip, strength):
    out = clip / "path_signal.tcs"
    argv = ["signal-from-path", "--depth", str(clip / "depth_0000.tcd"), "--intrinsics", str(clip / "intrinsics.json"),
            "--path", str(clip / "path.json"), "--motion-strength", strength, "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


@CLI
@given(seed=st.integers(0, 2**31 - 1), noise=st.sampled_from([0.0, 0.5]), k=st.integers(-8, 8))
@example(seed=11, noise=0.5, k=-8)
@example(seed=11, noise=0.5, k=8)
def test_signal_from_video_scales_only_the_strength_channel(seed, noise, k):
    s = 2.0**k
    with tempfile.TemporaryDirectory() as work:
        clip = synth_clip(Path(work), seed, noise)
        base, base_m = signal_from_video(clip)
        got, got_m = signal_from_video(scaled_copy(clip, Path(work) / "scaled", s))
    assert got.data[:, :2].tobytes() == base.data[:, :2].tobytes()
    assert got.last_frame_valid.tobytes() == base.last_frame_valid.tobytes()
    assert np.array_equal(got.data[:, 2], base.data[:, 2] * np.float32(s))
    assert got_m == [m * s for m in base_m]
    assert any(base_m)  # the discs move, so the strength relation is not 0 == 0


@CLI
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-8, 8), strength=st.sampled_from(["0", "2.5", "600"]))
@example(seed=11, k=8, strength="2.5")
def test_signal_from_path_bytes_are_scale_invariant(seed, k, strength):
    with tempfile.TemporaryDirectory() as work:
        clip = synth_clip(Path(work), seed, 0.0)
        base = signal_from_path(clip, strength)
        got = signal_from_path(scaled_copy(clip, Path(work) / "scaled", 2.0**k), strength)
    assert got == base
