"""The transport-and-project callers against the batched reference.

Every per-frame caller of `geometry.apply` and `geometry.pinhole` must
reproduce, bit for bit, the batched `einsum("tij,nj->tni")` transport and
the inline pinhole arithmetic that the recorded output files were made
with. The reference implementations below are that arithmetic, kept as the
oracle.
"""

import math

import numpy as np

from camsig.geometry import RigidMotion, Z_MIN, so3_exp
from camsig.segmentation import _observed_projections, _per_point_errors
from camsig.signal import _transport_channels
from camsig.trajfield import TrajectoryField, residual_g
from util import K32, grid_points, rng, smooth_motions


def reference_transport(p0, motions):
    rot = np.stack([m.rotation for m in motions])
    tr = np.stack([m.translation for m in motions])
    return np.einsum("tij,nj->tni", rot, p0) + tr[:, None, :]


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


def reference_observed_projections(field):
    k = field.intrinsics
    pos = field.positions
    uv = np.zeros(pos.shape[:2] + (2,))
    z = pos[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv[..., 0] = k.fx * pos[..., 0] / z + k.cx
        uv[..., 1] = k.fy * pos[..., 1] / z + k.cy
    uv[~field.visibility] = 0.0
    return uv


def reference_per_point_errors(field, motions, obs, vis_count):
    k = field.intrinsics
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


def noisy_field(seed=0, t=6):
    """Nonrigid field with occlusions: transported grid plus 3-D jitter."""
    gen = rng(seed)
    p0 = grid_points(K32, z_base=2.0, jitter=0.3, gen=gen)
    positions = reference_transport(p0, smooth_motions(t, gen))
    positions[1:] += gen.normal(0.0, 0.01, size=positions[1:].shape)
    visibility = gen.uniform(size=positions.shape[:2]) > 0.2
    visibility[0] = True
    return TrajectoryField(positions, visibility, K32.height, K32.width, K32)


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
    got = _transport_channels(p0, motions, K32, K32.height, K32.width)
    # The data must exercise both hold causes: off-image and behind camera.
    assert not want_valid[-1].all() and not want_valid[1:-1].all()
    assert (reference_transport(p0, motions)[-1, :, 2] < Z_MIN).any()
    assert np.array_equal(got.channels, want_channels)
    assert np.array_equal(got.valid, want_valid)


def test_per_point_errors_match_batched_reference():
    field = noisy_field(seed=1)
    motions = leaving_motions()
    obs = _observed_projections(field)
    assert np.array_equal(obs, reference_observed_projections(field))
    vis_count = field.visibility.sum(axis=0)
    got = _per_point_errors(field, motions, obs, vis_count)
    want = reference_per_point_errors(field, motions, obs, vis_count)
    assert np.array_equal(got, want)
    behind = reference_transport(field.positions[0], motions)[-1, :, 2] < Z_MIN
    pushed = behind & field.visibility[-1]
    assert pushed.any() and np.all(got[pushed] == math.inf)
    assert np.isfinite(got[~behind]).all()


def test_residual_g_matches_batched_reference():
    field = noisy_field(seed=2)
    motions = leaving_motions()
    got = residual_g(field, motions)
    assert np.array_equal(got.g, reference_residual_g(field, motions))
    assert np.array_equal(got.valid, field.visibility)
