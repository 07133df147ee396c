"""Exact metamorphic relations: the pipeline is scale-equivariant.

Scaling every field position by s = 2^k changes no pixel coordinate: every
product, quotient and sum in the pipeline scales exactly by a power of two
or cancels the scale. So `extract_static` on the scaled field must return
the same mask, status, per-point errors and rotations, bit for bit, and
translations exactly s times as large. Through `cli.main` the same holds
for `segment` (the same mask bytes and report, translations exactly s
times as large) and for the two signal commands: scaling the depth files
changes a `signal-from-video` tensor only in its strength channel (a
metric speed, exactly s times as large), and scaling the depth with the
path translations leaves the `signal-from-path` bytes unchanged. Scaling a
scene's lengths and its path translations scales every `synth` depth map
exactly and leaves its track bytes, the `preview` bytes and the `eval`
rotation and translation errors of the segmented motions unchanged. The
relations need no recorded bytes, so they survive changes that move outputs
at the rounding floor.

Three relations of the rigid fit are checked the same way. Splitting the
frames of `fit_rigid_frames` into chunks or calls changes no bit, whatever
each frame's point count: a frame's fit reads only its own points. Mirroring the image
horizontally (u -> W-1-u, cx -> W-1-cx, x -> -x, so a fitted R becomes
diag(-1, 1, 1) R diag(-1, 1, 1)) and permuting the points change the order
of sums, so they hold within a tolerance. A fit of exact observations
stops on its gradient and lands within 1e-9 px. A noisy fit stops once a
step changes its cost f by at most n*u*f, its rounding floor. That fixes
the cost to a few n*u, but the motion only to about sqrt(n*u) relative
(up to 1e-7 px here), so noisy fits are compared at 1e-6 px and in cost.
Scaling the points and translations of a control tensor by s leaves its
channels unchanged: exactly at s = 2^k, within 1e-9 px at s = 2.75.

The runs are deterministic (derandomized, no example database): synthetic
32x32 scenes of 12 frames with moving discs, without and with track noise,
32x24 scenes of 6 frames with one moving disc under a zoom, and clouds of
8-79 points in 1-8 frames for the rigid fit.
"""

import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st

from camsig import rigidfit
from camsig.campath import CameraPath, PrimitiveSpec, generate_primitive, load_path, save_path
from camsig.cli import main
from camsig.geometry import Intrinsics, RigidMotion, apply, project, so3_exp, write_json
from camsig.io import read_depth, read_tensor, write_depth
from camsig.rigidfit import fit_rigid_frames
from camsig.segmentation import extract_static
from camsig.signal import control_tensor
from camsig.synth import DynamicObject, SceneSpec, generate_scene, scene_to_dict
from test_segmentation import KWIDE
from util import K32, pan_roll_path, rng, smooth_motions, transported_field

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
    return replace(field, depth=field.depth * s)  # every lifted position scales by s exactly


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


def segment(clip):
    out = clip / "segment"
    argv = ["segment", "--tracks", str(clip / "tracks.tct"), "--depth-dir", str(clip),
            "--intrinsics", str(clip / "intrinsics.json"), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    return (out / "mask.pgm").read_bytes(), report, load_path(out / "motions.json").motions


def signal_from_video(clip):
    out = clip / "signal.tcs"
    argv = ["signal-from-video", "--tracks", str(clip / "tracks.tct"), "--depth-dir", str(clip),
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
def test_segment_mask_and_report_are_scale_invariant(seed, noise, k):
    s = 2.0**k
    with tempfile.TemporaryDirectory() as work:
        clip = synth_clip(Path(work), seed, noise)
        base_mask, base_report, base_motions = segment(clip)
        got_mask, got_report, got_motions = segment(scaled_copy(clip, Path(work) / "scaled", s))
    assert got_mask == base_mask
    scale_free = ("status", "iterations", "eps_max_trace", "static_fraction", "diagnostics")
    assert [got_report[key] for key in scale_free] == [base_report[key] for key in scale_free]
    for m_got, m_base in zip(got_motions, base_motions, strict=True):
        assert np.array_equal(m_got.rotation, m_base.rotation)
        assert np.array_equal(m_got.translation, m_base.translation * s)
    assert any(m.translation.any() for m in base_motions)  # the relation is not 0 == 0


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


K24 = Intrinsics(fx=20.0, fy=20.0, cx=15.5, cy=11.5, width=32, height=24)


def zoom_clip(work, seed, s):
    """`camsig synth` of a one-disc scene under a zoom, with its lengths and translations times s."""
    spec = SceneSpec(
        frames=6, grid_h=24, grid_w=32, intrinsics=K24, z_near=1.5 * s, z_far=2.5 * s, depth_jitter=0.4 * s,
        objects=[DynamicObject(center=(12.0, 10.0), radius=4.6, velocity=(0.06 * s, 0.03 * s, 0.0))],
        track_noise=0.3, seed=seed,
    )
    motions = generate_primitive(PrimitiveSpec("zoom_in", 0.6, 6)).motions
    work.mkdir()
    write_json(work / "scene.json", scene_to_dict(spec))
    save_path(CameraPath([RigidMotion(m.rotation, m.translation * s) for m in motions]), work / "path.json")
    clip = work / "clip"
    assert main(["synth", "--scene", str(work / "scene.json"), "--path", str(work / "path.json"), "--out", str(clip)]) == 0
    write_json(clip / "intrinsics.json", K24.to_dict())
    return clip


def zoom_clips(work, seed, k):
    return zoom_clip(Path(work) / "base", seed, 1.0), zoom_clip(Path(work) / "scaled", seed, 2.0**k)


def preview(clip):
    out = clip / "preview"
    argv = ["--threads", "2", "preview", "--rgb", str(clip / "rgb0.ppm"), "--depth", str(clip / "depth_0000.tcd"),
            "--intrinsics", str(clip / "intrinsics.json"), "--path", str(clip / "path.json"), "--out", str(out)]
    assert main(argv) == 0
    return {file.name: file.read_bytes() for file in sorted(out.iterdir())}


def evaluate(clip):
    segment(clip)
    out = clip / "eval.json"
    argv = ["eval", "--gt", str(clip / "path.json"), "--est", str(clip / "segment" / "motions.json"), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    return report["rot_err"], report["trans_err"]


ZOOM = given(seed=st.integers(0, 2**31 - 1), k=st.integers(-8, 10))


@CLI
@ZOOM
@example(seed=5, k=-8)
@example(seed=5, k=10)
def test_synth_depth_scales_exactly_and_track_bytes_are_scale_invariant(seed, k):
    with tempfile.TemporaryDirectory() as work:
        base, got = zoom_clips(work, seed, k)
        assert (got / "tracks.tct").read_bytes() == (base / "tracks.tct").read_bytes()
        for lam in range(6):
            depth = read_depth(base / f"depth_{lam:04d}.tcd")
            assert np.array_equal(read_depth(got / f"depth_{lam:04d}.tcd"), depth * 2.0**k)
            assert depth.any()  # the relation is not 0 == 0


@CLI
@ZOOM
@example(seed=5, k=-8)
@example(seed=5, k=10)
def test_preview_bytes_are_scale_invariant(seed, k):
    with tempfile.TemporaryDirectory() as work:
        base, got = zoom_clips(work, seed, k)
        assert preview(got) == preview(base)


@CLI
@ZOOM
@example(seed=5, k=-8)
@example(seed=5, k=10)
def test_eval_errors_of_the_segmented_motions_are_scale_invariant(seed, k):
    with tempfile.TemporaryDirectory() as work:
        base, got = zoom_clips(work, seed, k)
        base_errors = evaluate(base)
        assert evaluate(got) == base_errors
    assert base_errors[1] > 0.0  # the segmented translations are not exact


def test_projective_scale_invariance():
    gen = rng(43)
    motions = smooth_motions(5, gen)
    field = transported_field(K32, motions, jitter=0.2, gen=gen)
    strength, grid = np.zeros(5), (K32.height, K32.width)
    base = control_tensor(field.positions[0], motions, K32, strength, grid).data
    for s in (2.75, 2.0**-8, 2.0**8):
        scaled_motions = [RigidMotion(m.rotation, m.translation * s) for m in motions]
        got = control_tensor(field.positions[0] * s, scaled_motions, K32, strength, grid).data
        if s == 2.75:
            assert np.max(np.abs(got - base)) < 1e-9
        else:
            assert got.tobytes() == base.tobytes()


K_FIT = Intrinsics(fx=30.0, fy=28.0, cx=15.2, cy=11.7, width=32, height=24)
NOISE = st.sampled_from([0.0, 0.3, 1.0])


def fit_problem(seed, frames, noise):
    """One cloud seen in each frame under a small motion; each frame selects at least 6 points."""
    gen = rng(seed)
    n = int(gen.integers(8, 80))
    p0 = np.column_stack([gen.uniform(-1.0, 1.0, n), gen.uniform(-0.8, 0.8, n), gen.uniform(1.5, 4.0, n)])
    truth = gen.normal(size=(frames, 6)) * [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
    observed = np.stack([project(p0 @ so3_exp(x[:3]).T + x[3:], K_FIT) for x in truth])
    observed += gen.normal(0.0, noise, size=observed.shape)
    masks = gen.random((frames, n)) < gen.uniform(0.3, 1.0, size=(frames, 1))
    masks[:, :6] = True
    return p0, observed, masks


def fit(p0, observed, masks, k=K_FIT):
    return fit_rigid_frames(p0, observed, masks, k, np.zeros((len(masks), 6)))[1]


def assert_same_fits(got, base):
    for a, b in zip(got, base, strict=True):
        assert (a.final_cost, a.iterations, a.stop) == (b.final_cost, b.iterations, b.stop)
        assert a.cost_trace.tobytes() == b.cost_trace.tobytes()
        assert a.motion.rotation.tobytes() == b.motion.rotation.tobytes()
        assert a.motion.translation.tobytes() == b.motion.translation.tobytes()


def assert_close_fits(got_uv, base_uv, got, base, noise, n):
    assert np.max(np.abs(got_uv - base_uv)) <= (1e-9 if noise == 0.0 else 1e-6)
    assert abs(got.final_cost - base.final_cost) <= 8.0 * n * rigidfit._U * base.final_cost + 1e-20


@EXACT
@given(seed=st.integers(0, 2**31 - 1), frames=st.integers(2, 8), noise=NOISE)
def test_rigid_fit_chunks_and_calls_change_no_bit(seed, frames, noise):
    p0, observed, masks = fit_problem(seed, frames, noise)
    base = fit(p0, observed, masks)
    m = int(masks.sum(axis=1).max())
    for per in range(1, frames):
        with mock.patch.object(rigidfit, "BLOCK", per * m):
            assert_same_fits(fit(p0, observed, masks), base)
    # Separate calls, of frames with unequal point counts in any order.
    gen = rng(seed)
    cuts = np.flatnonzero(gen.random(frames - 1) < 0.5) + 1
    got = [None] * frames
    for frames_of_call in np.split(gen.permutation(frames), cuts):
        for lam, result in zip(frames_of_call, fit(p0, observed[frames_of_call], masks[frames_of_call])):
            got[lam] = result
    assert_same_fits(got, base)


@EXACT
@given(seed=st.integers(0, 2**31 - 1), frames=st.integers(1, 4), noise=NOISE)
def test_rigid_fit_commutes_with_the_horizontal_mirror(seed, frames, noise):
    p0, observed, masks = fit_problem(seed, frames, noise)
    w = K_FIT.width - 1
    k_mirror = Intrinsics(fx=K_FIT.fx, fy=K_FIT.fy, cx=w - K_FIT.cx, cy=K_FIT.cy, width=K_FIT.width, height=K_FIT.height)
    flip = np.diag([-1.0, 1.0, 1.0])
    mirrored = observed.copy()
    mirrored[..., 0] = w - mirrored[..., 0]
    for got, base, sel in zip(fit(p0 @ flip, mirrored, masks, k_mirror), fit(p0, observed, masks), masks, strict=True):
        conjugate = RigidMotion(flip @ base.motion.rotation @ flip, flip @ base.motion.translation)
        got_uv, base_uv = (project(apply(m, p0 @ flip), k_mirror) for m in (got.motion, conjugate))
        assert_close_fits(got_uv, base_uv, got, base, noise, sel.sum())


@EXACT
@given(seed=st.integers(0, 2**31 - 1), frames=st.integers(1, 4), noise=NOISE)
def test_rigid_fit_is_invariant_to_the_order_of_points(seed, frames, noise):
    p0, observed, masks = fit_problem(seed, frames, noise)
    order = rng(seed).permutation(len(p0))
    for got, base, sel in zip(fit(p0[order], observed[:, order], masks[:, order]), fit(p0, observed, masks), masks, strict=True):
        got_uv, base_uv = (project(apply(m, p0), K_FIT) for m in (got.motion, base.motion))
        assert_close_fits(got_uv, base_uv, got, base, noise, sel.sum())
