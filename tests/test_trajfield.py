import numpy as np
import pytest

from camsig.geometry import RigidMotion, so3_exp
from camsig.signal import control_tensor
from camsig.trajfield import TrajectoryField, grid_sample_uv, residual_g
from util import K32, identity_motions, rng, smooth_motions, transported_field


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
    moved = TrajectoryField(
        field.positions + offsets, field.visibility, field.grid_h, field.grid_w, K32
    )
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
    shifted = TrajectoryField(
        field.positions + extra, field.visibility, field.grid_h, field.grid_w, K32
    )
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
    nonrigid = TrajectoryField(bumped, field.visibility, field.grid_h, field.grid_w, K32)
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
            control_tensor(field.positions[0], bad, K32, np.zeros(3), (field.grid_h, field.grid_w))


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
        TrajectoryField(field.positions, vis, field.grid_h, field.grid_w, K32)
    pos = field.positions.copy()
    pos[1, 5, 2] = -1.0
    with pytest.raises(ValueError, match="behind camera"):
        TrajectoryField(pos, field.visibility, field.grid_h, field.grid_w, K32)
    with pytest.raises(ValueError, match="grid"):
        TrajectoryField(field.positions, field.visibility, 7, 5, K32)


def test_grid_sample_uv_matches_pixel_centers():
    uv = grid_sample_uv(K32.height, K32.width, K32)
    assert np.array_equal(uv[0], [0.0, 0.0])
    assert np.array_equal(uv[K32.width - 1], [K32.width - 1.0, 0.0])
    assert np.array_equal(uv[-1], [K32.width - 1.0, K32.height - 1.0])
