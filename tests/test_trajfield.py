import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from camsig.geometry import RigidMotion, Z_MIN, so3_exp, unproject
from camsig.signal import control_tensor
from camsig.trajfield import TrajectoryField, grid_sample_uv, residual_g
from util import K32, K64, field_at, identity_motions, rng, smooth_motions, transported_field


def test_static_field_has_zero_residual():
    gen = rng(1)
    motions = smooth_motions(6, gen)
    field = transported_field(K32, motions, jitter=0.2, gen=gen)
    res = residual_g(field, motions)
    assert np.max(np.abs(res.g)) < 1e-12
    assert res.valid.all()


def test_frame0_row_exactly_zero():
    gen = rng(2)
    motions = smooth_motions(4, gen)
    field = transported_field(K32, motions, jitter=0.1, gen=gen)
    res = residual_g(field, motions)
    assert not res.g[0].any()


def test_dynamic_cluster_residual_equals_offset():
    gen = rng(3)
    t = 5
    motions = smooth_motions(t, gen)
    field = transported_field(K32, motions, jitter=0.1, gen=gen)
    n = field.num_points
    cluster = np.zeros(n, dtype=bool)
    cluster[100:160] = True
    # Per-frame camera-space offset applied on top of the rigid transport.
    offsets = np.zeros((t, n, 3))
    for lam in range(1, t):
        offsets[lam, cluster] = np.array([0.01, -0.02, 0.005]) * lam
    moved = field_at(field.positions + offsets, field.visibility, K32)
    res = residual_g(moved, motions)
    assert np.allclose(res.g, offsets, atol=1e-12)


def test_residual_affine_in_positions():
    # Adding offsets that leave frame 0 untouched adds exactly those offsets
    # to the residual.
    gen = rng(4)
    t = 5
    motions = smooth_motions(t, gen)
    field = transported_field(K32, motions, jitter=0.1, gen=gen)
    extra = gen.normal(scale=0.01, size=field.positions.shape)
    extra[0] = 0.0
    shifted = field_at(field.positions + extra, field.visibility, K32)
    base = residual_g(field, motions)
    res = residual_g(shifted, motions)
    assert np.allclose(res.g, base.g + extra, atol=1e-12)


def test_residual_zero_iff_rigid():
    gen = rng(5)
    motions = smooth_motions(4, gen)
    field = transported_field(K32, motions, jitter=0.1, gen=gen)
    assert np.max(np.abs(residual_g(field, motions).g)) < 1e-12
    bumped = field.positions.copy()
    bumped[2, 17] += np.array([0.05, 0.0, 0.0])
    nonrigid = field_at(bumped, field.visibility, K32)
    assert np.max(np.abs(residual_g(nonrigid, motions).g)) > 0.01


def test_non_identity_frame0_rejected():
    gen = rng(6)
    motions = smooth_motions(3, gen)
    field = transported_field(K32, motions, gen=gen)
    # Frame 0 must be exactly the identity, as a loaded path's must.
    for first in (
        RigidMotion(so3_exp(np.array([0.0, 0.0, 0.01])), np.zeros(3)),
        RigidMotion(np.eye(3), np.array([1e-13, 0.0, 0.0])),
    ):
        bad = [first] + list(motions[1:])
        with pytest.raises(ValueError, match="frame-0 motion must be identity"):
            residual_g(field, bad)
        with pytest.raises(ValueError, match="frame-0 motion must be identity"):
            control_tensor(field.points0, bad, K32, np.zeros(3), (field.grid_h, field.grid_w))


def test_frame_count_mismatch_rejected():
    gen = rng(7)
    motions = smooth_motions(4, gen)
    field = transported_field(K32, motions, gen=gen)
    with pytest.raises(ValueError, match="frame count mismatch"):
        residual_g(field, motions[:-1])


def test_field_validation():
    gen = rng(8)
    field = transported_field(K32, identity_motions(3), gen=gen)
    vis = field.visibility.copy()
    vis[0, 5] = False
    with pytest.raises(ValueError, match="frame-0"):
        replace(field, visibility=vis)
    depth = field.depth.copy()
    depth[1, 5] = -1.0
    with pytest.raises(ValueError, match="behind camera"):
        replace(field, depth=depth)
    with pytest.raises(ValueError, match="grid"):
        replace(field, grid_h=7, grid_w=5)
    with pytest.raises(ValueError, match="depth or visibility shape"):
        replace(field, depth=field.depth[:, :-1])


def test_field_checks_every_stored_entry_across_all_frames():
    # Frames are checked one at a time, but a non-finite pixel or depth in
    # any frame is named before a depth behind the camera in an earlier one.
    field = transported_field(K32, identity_motions(4), gen=rng(9))
    uv, depth = field.pixels.copy(), field.depth.copy()
    depth[1, 5] = -1.0
    uv[3, 7, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite pixel or depth"):
        replace(field, pixels=uv, depth=depth)
    uv[3, 7, 1] = 4.0
    depth[3, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite pixel or depth"):
        replace(field, pixels=uv, depth=depth)
    depth[3, 7] = 2.0
    with pytest.raises(ValueError, match="depth at or behind camera"):
        replace(field, pixels=uv, depth=depth)
    depth[1, 5] = Z_MIN
    replace(field, pixels=uv, depth=depth)


@pytest.mark.parametrize(
    "array, value", [("depth", -1.0), ("depth", np.nan), ("pixels", np.inf)], ids=["behind", "nan-depth", "inf-pixel"]
)
def test_field_refuses_a_held_entry_it_could_not_lift(array, value):
    # residual_frames, positions and field_strength lift every entry, held
    # ones included, so a held entry is checked like a visible one.
    field = transported_field(K32, identity_motions(4), gen=rng(12))
    vis = field.visibility.copy()
    vis[2:, 9] = False
    held = {"pixels": field.pixels.copy(), "depth": field.depth.copy()}
    replace(field, visibility=vis, **held)
    held[array][3, 9] = value
    with pytest.raises(ValueError, match="non-finite pixel or depth|depth at or behind camera"):
        replace(field, visibility=vis, **held)


def test_field_checks_use_no_field_sized_temporary():
    # 64 frames of a 64 x 64 grid: a whole-field mask of the pixels alone
    # would take 2·64 = 128 bytes per grid point; the field keeps points0,
    # 24 bytes per grid point.
    t, n = 64, K64.height * K64.width
    pixels = np.broadcast_to(grid_sample_uv(K64.height, K64.width, K64), (t, n, 2)).copy()
    depth, visibility = np.full((t, n), 2.0), np.ones((t, n), dtype=bool)
    tracemalloc.start()
    try:
        TrajectoryField(pixels, depth, visibility, K64.height, K64.width, K64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


def test_lifted_frames_unproject_the_held_pixels_and_depths():
    gen = rng(10)
    field = transported_field(K32, smooth_motions(4, gen), jitter=0.2, gen=gen)
    want = np.stack([unproject(uv, d, K32) for uv, d in zip(field.pixels, field.depth)])
    assert np.array_equal(field.points0, want[0])
    assert np.array_equal(field.positions, want)
    for lam in range(field.num_frames):
        assert np.array_equal(field.lift(lam), want[lam])
        assert np.array_equal(field.lift(lam, slice(40, 97)), want[lam, 40:97])


def test_grid_sample_uv_matches_pixel_centers():
    uv = grid_sample_uv(K32.height, K32.width, K32)
    assert np.array_equal(uv[0], [0.0, 0.0])
    assert np.array_equal(uv[K32.width - 1], [K32.width - 1.0, 0.0])
    assert np.array_equal(uv[-1], [K32.width - 1.0, K32.height - 1.0])
