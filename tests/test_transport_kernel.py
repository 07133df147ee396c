"""The transport-and-project callers against the batched reference.

Every per-frame caller of `geometry.apply` (through the block walk
`geometry.transported`) and `geometry.pinhole` must reproduce, bit for
bit, the batched `einsum("tij,nj->tni")` transport and the inline pinhole
arithmetic that the recorded output files were made with. The reference
implementations below are that arithmetic, kept as the oracle.
"""

import dataclasses
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np

import camsig
from camsig.campath import CameraPath
from camsig.geometry import BLOCK, RigidMotion, Z_MIN, apply, so3_exp, unproject
from camsig.segmentation import _per_point_errors
from camsig.signal import _transport_channels, build_inference_signal, field_strength, motion_strength
from camsig.trajfield import TrajectoryField, grid_sample_uv, residual_g
from util import K32, field_at, grid_points, random_points, rng, smooth_motions


def reference_transport(p0, motions):
    # einsum sums a contiguous (x, y, z) triple in another order than a
    # strided one; the recorded outputs were made from row-major points.
    rot = np.stack([m.rotation for m in motions])
    tr = np.stack([m.translation for m in motions])
    return np.einsum("tij,nj->tni", rot, np.ascontiguousarray(p0)) + tr[:, None, :]


def reference_transport_channels(p0, motions, k, grid_h, grid_w):
    t = len(motions)
    q = reference_transport(p0, motions)
    z = q[..., 2]
    front = z >= Z_MIN
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * q[..., 0] / z + k.cx
        v = k.fy * q[..., 1] / z + k.cy
    valid = (
        front
        & (u >= -0.5)
        & (u <= k.width - 0.5)
        & (v >= -0.5)
        & (v <= k.height - 0.5)
    )
    uv = np.stack([u, v], axis=-1)
    last = uv[0].copy()
    for lam in range(t):
        bad = ~valid[lam]
        uv[lam][bad] = last[bad]
        if lam > 0:
            ok = valid[lam]
            last[ok] = uv[lam][ok]
    channels = uv.transpose(0, 2, 1).reshape(t, 2, grid_h, grid_w)
    return channels, valid.reshape(t, grid_h, grid_w)


def reference_per_point_errors(field, motions, vis_count):
    k, obs = field.intrinsics, field.pixels
    q = reference_transport(field.positions[0], motions)
    z = q[..., 2]
    front = z >= Z_MIN
    with np.errstate(divide="ignore", invalid="ignore"):
        du = k.fx * q[..., 0] / z + k.cx - obs[..., 0]
        dv = k.fy * q[..., 1] / z + k.cy - obs[..., 1]
    sq = du * du + dv * dv
    sq[front & ~field.visibility] = 0.0
    sq[~front & field.visibility] = math.inf
    sq[~front & ~field.visibility] = 0.0
    return sq.sum(axis=0) * (field.num_frames / vis_count)


def reference_residual_g(field, motions):
    g = field.positions - reference_transport(field.positions[0], motions)
    g[0] = 0.0
    return g


def noisy_field(seed=0, t=6, p0=None):
    """Nonrigid field with occlusions: transported points plus 3-D jitter.

    The points are K32's pixel grid unless p0 is given, which makes a
    one-row grid of its points.
    """
    gen = rng(seed)
    if p0 is None:
        p0 = grid_points(K32, z_base=2.0, jitter=0.3, gen=gen)
    positions = reference_transport(p0, smooth_motions(t, gen))
    positions[1:] += gen.normal(0.0, 0.01, size=positions[1:].shape)
    visibility = gen.uniform(size=positions.shape[:2]) > 0.2
    visibility[0] = True
    grid = (K32.height, K32.width) if len(p0) == K32.height * K32.width else (1, len(p0))
    return field_at(positions, visibility, K32, grid)


def leaving_motions(t=6):
    """Motions that swing points off-image and push some behind the camera.

    The last frame moves every point 2 units toward the camera, so grid
    points deeper than ~2 land behind it.
    """
    gen = rng(77)
    motions = smooth_motions(t - 1, gen, max_angle=0.6, max_shift=1.5)
    motions.append(RigidMotion(so3_exp(np.array([0.05, -0.1, 0.2])), np.array([0.3, -0.2, -2.0])))
    return motions


def test_transport_channels_match_batched_reference():
    field = noisy_field()
    motions = leaving_motions()
    p0 = field.positions[0]
    want_channels, want_valid = reference_transport_channels(p0, motions, K32, K32.height, K32.width)
    channels = np.empty((len(motions), 2, p0.shape[0]))
    _transport_channels(p0, motions, K32, channels)
    # The data must exercise both hold causes: off-image and behind camera.
    assert not want_valid[-1].all() and not want_valid[1:-1].all()
    assert (reference_transport(p0, motions)[-1, :, 2] < Z_MIN).any()
    assert np.array_equal(channels.reshape(want_channels.shape), want_channels)
    # Only the last frame's validity is returned; a shorter path gives each earlier frame's.
    for lam in range(len(motions)):
        valid = _transport_channels(p0, motions[: lam + 1], K32, channels)
        assert np.array_equal(valid.reshape(want_valid.shape[1:]), want_valid[lam])


def test_transport_channels_hold_across_block_edges():
    # Two full blocks and a partial one. The points on both sides of each
    # block edge are copies of points that leave the image, so their holds
    # read the previous frame across the edge.
    n = 2 * BLOCK + 37
    motions = leaving_motions()
    p0 = random_points(rng(78), n, z_range=(1.5, 2.5), spread=0.7)
    _, first_valid = reference_transport_channels(p0, motions, K32, 1, n)
    held_mid = np.flatnonzero(first_valid[0, 0] & ~first_valid[1:-1, 0].all(axis=0))
    edges = [BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK]
    p0[edges] = p0[held_mid[:4]]
    want_channels, want_valid = reference_transport_channels(p0, motions, K32, 1, n)
    want_valid = want_valid[:, 0]
    # Held entries on both sides of both edges, off-image and behind the camera.
    for a in (BLOCK, 2 * BLOCK):
        assert (~want_valid[1:-1, a - 1] & ~want_valid[1:-1, a]).any()
    assert (reference_transport(p0, motions)[-1, :, 2] < Z_MIN).any()
    for dtype in (np.float64, np.float32):
        channels = np.empty((len(motions), 2, n), dtype=dtype)
        valid = _transport_channels(p0, motions, K32, channels)
        assert np.array_equal(channels, want_channels[:, :, 0].astype(dtype))
        assert np.array_equal(valid, want_valid[-1])
        for lam in range(len(motions)):
            assert np.array_equal(_transport_channels(p0, motions[: lam + 1], K32, channels), want_valid[lam])


def test_inference_signal_is_reference_channels_cast_to_float32():
    depth = rng(5).uniform(1.5, 2.5, size=(K32.height, K32.width))
    path = CameraPath(leaving_motions())
    p0 = unproject(grid_sample_uv(K32.height, K32.width, K32), depth.ravel(), K32)
    want_channels, want_valid = reference_transport_channels(p0, path.motions, K32, K32.height, K32.width)
    assert not want_valid[-1].all() and not want_valid[1:-1].all()
    ct = build_inference_signal(depth, K32, path, 7.5)
    assert ct.data.dtype == np.float32
    assert np.array_equal(ct.data[:, :2], want_channels.astype(np.float32))
    assert np.array_equal(ct.last_frame_valid, want_valid[-1])


def several_blocks(seed):
    """Two full blocks and a partial one, deep enough that leaving_motions pushes some behind the camera."""
    return random_points(rng(seed), 2 * BLOCK + 37, z_range=(1.5, 2.5), spread=0.7)


def check_per_point_errors(field):
    """_per_point_errors against its oracle; returns the points pushed behind the camera while visible."""
    motions = leaving_motions()
    vis_count = field.visibility.sum(axis=0)
    got = _per_point_errors(field, motions, vis_count)
    want = reference_per_point_errors(field, motions, vis_count)
    assert np.array_equal(got, want)
    behind = reference_transport(field.positions[0], motions)[-1, :, 2] < Z_MIN
    pushed = behind & field.visibility[-1]
    assert pushed.any() and np.all(got[pushed] == math.inf)
    assert np.isfinite(got[~behind]).all()
    # Invisible entries score 0, also behind the camera.
    assert (behind & ~field.visibility[-1]).any() and (~field.visibility[1:-1]).any()
    return pushed


def test_per_point_errors_match_batched_reference():
    check_per_point_errors(noisy_field(seed=1))


def test_per_point_errors_match_batched_reference_across_blocks():
    pushed = check_per_point_errors(noisy_field(seed=1, p0=several_blocks(79)))
    assert all(pushed[s : s + BLOCK].any() for s in range(0, len(pushed), BLOCK))


def check_residual_g(field):
    motions = leaving_motions()
    got = residual_g(field, motions)
    assert np.array_equal(got.g, reference_residual_g(field, motions))
    assert np.array_equal(got.valid, field.visibility)
    behind = reference_transport(field.positions[0], motions)[-1, :, 2] < Z_MIN
    assert (behind & field.visibility[-1]).any() and (~field.visibility[1:]).any()


def test_residual_g_matches_batched_reference():
    check_residual_g(noisy_field(seed=2))


def test_residual_g_matches_batched_reference_across_blocks():
    check_residual_g(noisy_field(seed=2, p0=several_blocks(80)))


def reference_motion_strength(res):
    """The per-frame norm of the gathered steps that the recorded strength files were made with."""
    t = len(res.g)
    m, no_overlap = np.zeros(t), np.zeros(t, dtype=bool)
    for lam in range(1, t):
        both = res.valid[lam] & res.valid[lam - 1]
        no_overlap[lam] = not both.any()
        if both.any():
            m[lam] = float(np.linalg.norm(res.g[lam][both] - res.g[lam - 1][both], axis=1).mean())
    return m, no_overlap


def check_field_strength(field):
    """field_strength and motion_strength of residual_g against the reference, bit for bit."""
    motions = leaving_motions()
    res = residual_g(field, motions)
    g = res.g.copy()
    want_m, want_no_overlap = reference_motion_strength(res)
    for got in (field_strength(field, motions), motion_strength(res)):
        assert np.array_equal(got.m, want_m) and np.array_equal(got.no_overlap, want_no_overlap)
    assert np.array_equal(res.g, g)  # motion_strength leaves its input unchanged
    return got


def without_frame(field, lam):
    """The field with no point visible at frame lam, so frames lam and lam + 1 have no overlap."""
    vis = field.visibility.copy()
    vis[lam] = False
    return dataclasses.replace(field, visibility=vis)


def test_field_strength_is_motion_strength_of_the_residual():
    series = check_field_strength(without_frame(noisy_field(seed=3), 2))
    assert list(series.no_overlap) == [False, False, True, True, False, False]
    assert series.m[1] > 0.0 and series.m[4] > 0.0 and series.m[2] == series.m[3] == 0.0


def test_field_strength_is_motion_strength_of_the_residual_across_blocks():
    series = check_field_strength(without_frame(noisy_field(seed=3, p0=several_blocks(81)), 4))
    assert list(series.no_overlap) == [False, False, False, False, True, True]


def test_field_strength_of_an_empty_grid_flags_every_frame():
    t = len(leaving_motions())
    field = TrajectoryField(np.empty((t, 0, 2)), np.empty((t, 0)), np.ones((t, 0), dtype=bool), 0, 4, K32)
    assert list(check_field_strength(field).no_overlap) == [False] + [True] * (t - 1)


def test_field_strength_holds_at_most_four_residual_frames():
    # residual_g holds all T = 6 frames; the frame-by-frame strength holds
    # two, plus the temporaries of one frame's step and of one block.
    field = noisy_field(seed=4, p0=random_points(rng(82), 6 * BLOCK + 37, z_range=(1.5, 2.5), spread=0.7))
    motions = leaving_motions()
    tracemalloc.start()
    try:
        field_strength(field, motions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * field.num_points * 3 * 8


def test_only_geometry_preview_and_synth_bind_apply():
    # Every other frame loop over first-frame points goes through
    # geometry.transported. The preview projects inside splat_zbuffer, and
    # synth moves points that differ from frame to frame.
    modules = [path.stem for path in Path(camsig.__file__).parent.glob("*.py") if path.stem != "__init__"]
    assert {"signal", "segmentation", "trajfield", "cli", "io"} <= set(modules)
    binding = {name for name in modules if vars(importlib.import_module(f"camsig.{name}")).get("apply") is apply}
    assert binding == {"geometry", "preview", "synth"}
