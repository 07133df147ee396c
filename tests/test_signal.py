import tracemalloc

import numpy as np
import pytest

from camsig.campath import CameraPath, PrimitiveSpec, generate_primitive
from camsig.geometry import Intrinsics, RigidMotion, project
from camsig.signal import (
    MotionStrengthSeries,
    _transport_channels,
    build_inference_signal,
    control_tensor,
    motion_strength,
    normalize_tensor,
)
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from camsig.trajfield import ResidualField, grid_sample_uv, residual_g
from util import K32, identity_motions, pan_roll_path, rng, smooth_motions, transported_field


def field_tensor(field, motions, m=None):
    """control_tensor of the field's frame-0 grid (zero strength by default) and
    its (T, H, W) per-frame validity: frame lam's is the last-frame validity
    that `_transport_channels` returns for the path's first lam + 1 frames."""
    p0, k, grid = field.positions[0], field.intrinsics, (field.grid_h, field.grid_w)
    m = np.zeros(len(motions)) if m is None else m
    ct = control_tensor(p0, motions, k, m, grid)
    out = np.empty((len(motions), 2, p0.shape[0]), np.float32)
    valid = np.stack([_transport_channels(p0, motions[: lam + 1], k, out) for lam in range(len(motions))])
    assert np.array_equal(ct.last_frame_valid, valid[-1].reshape(grid))
    return ct, valid.reshape(-1, *grid)


def test_identity_path_channels_equal_grid():
    gen = rng(40)
    motions = identity_motions(5)
    field = transported_field(K32, motions, jitter=0.2, gen=gen)
    ct, valid = field_tensor(field, motions)
    grid = grid_sample_uv(K32.height, K32.width, K32).astype(np.float32)
    expected_u = grid[:, 0].reshape(K32.height, K32.width)
    expected_v = grid[:, 1].reshape(K32.height, K32.width)
    for lam in range(5):
        assert np.max(np.abs(ct.data[lam, 0] - expected_u)) < 1e-9
        assert np.max(np.abs(ct.data[lam, 1] - expected_v)) < 1e-9
    assert valid.all()


def test_pure_translation_uniform_pixel_shift():
    # Fronto-parallel plane at constant depth: u shifts by fx * dx / z. The
    # tensor is float32, so the shifted position is compared after its cast.
    z = 10.0
    dx = 0.25
    motions = [
        RigidMotion.identity(),
        RigidMotion(np.eye(3), np.array([dx, 0.0, 0.0])),
    ]
    field = transported_field(K32, motions, z_base=z)
    ct, valid = field_tensor(field, motions)
    ok = valid[1]  # the rightmost column exits the frustum
    shifted = (ct.data[0, 0].astype(float) + K32.fx * dx / z).astype(np.float32)
    assert np.max(np.abs(ct.data[1, 0][ok] - shifted[ok])) < 1e-9
    assert np.max(np.abs((ct.data[1, 1] - ct.data[0, 1])[ok])) < 1e-9


def test_channels_match_generator_projection_oracle():
    path = pan_roll_path(6, pan=0.15, roll=0.1)
    spec = SceneSpec(
        frames=6, grid_h=32, grid_w=32, intrinsics=K32,
        z_near=1.6, z_far=2.4, depth_jitter=0.3,
        objects=[DynamicObject(center=(15.5, 15.5), radius=5.0, velocity=(0.02, 0.0, 0.0))],
        seed=9,
    )
    gt = generate_scene(spec, path)
    ct, valid = field_tensor(gt.field, list(path.motions))
    # The oracle transports every frame-0 point rigidly, ignoring dynamics.
    for lam in range(6):
        transported = gt.field.positions[0] @ path[lam].rotation.T + path[lam].translation
        uv = project(transported, K32).astype(np.float32)
        flat = ct.data[lam, :2].reshape(2, -1).T
        ok = valid[lam].ravel()
        assert np.max(np.abs(flat[ok] - uv[ok])) < 1e-9


def test_out_of_frustum_holds_last_valid_value():
    # Large pan pushes the left columns out of the image; their channel
    # values freeze at the last in-frustum value.
    z = 2.0
    t = 4
    motions = [RigidMotion.identity()]
    for lam in range(1, t):
        motions.append(RigidMotion(np.eye(3), np.array([-0.5 * lam, 0.0, 0.0])))
    field = transported_field(K32, motions, z_base=z)
    ct, valid = field_tensor(field, motions)
    assert not valid[-1].all()
    frozen = ~valid[2] & ~valid[3]
    assert frozen.any()
    assert np.array_equal(ct.data[3, 0][frozen], ct.data[2, 0][frozen])


def test_motion_strength_static_zero():
    gen = rng(41)
    motions = smooth_motions(6, gen)
    field = transported_field(K32, motions, jitter=0.2, gen=gen)
    series = motion_strength(residual_g(field, motions))
    assert series.m[0] == 0.0
    assert np.max(series.m) < 1e-9


def test_motion_strength_fraction_speed_hand_value():
    t = 6
    path = generate_primitive(PrimitiveSpec("pan_left", 0.2, t))
    spec = SceneSpec(
        frames=t, grid_h=32, grid_w=32, intrinsics=K32,
        z_near=2.0, z_far=2.0,
        objects=[DynamicObject(center=(15.5, 15.5), radius=6.0, velocity=(0.0, 0.03, 0.04))],
        seed=3,
    )
    gt = generate_scene(spec, path)
    series = motion_strength(residual_g(gt.field, list(path.motions)))
    f = 1.0 - gt.partition.static_fraction
    assert series.m[0] == 0.0
    assert np.max(np.abs(series.m[1:] - f * 0.05)) < 1e-9
    assert np.max(np.abs(series.m - gt.true_m)) < 1e-9


def test_motion_strength_no_overlap_flag():
    g = np.zeros((3, 4, 3))
    valid = np.ones((3, 4), dtype=bool)
    valid[1] = False  # no point valid at pair (0, 1) nor (1, 2)
    series = motion_strength(ResidualField(g, valid))
    assert series.m[1] == 0.0 and series.m[2] == 0.0
    assert series.no_overlap[1] and series.no_overlap[2]
    assert not series.no_overlap[0]


def test_strength_channel_tiles_series_bitwise():
    gen = rng(42)
    t = 5
    motions = smooth_motions(t, gen)
    field = transported_field(K32, motions, jitter=0.2, gen=gen)
    m = np.abs(gen.normal(size=t))
    m[0] = 0.0
    ct, valid = field_tensor(field, motions, m)
    assert ct.data.dtype == np.float32 and ct.data.shape == (t, 3, K32.height, K32.width)
    # Channel 2 is constant per frame and equals the float32 cast of the series.
    assert np.array_equal(ct.data[:, 2, 0, 0], m.astype(np.float32))
    assert all(np.all(ct.data[lam, 2] == m.astype(np.float32)[lam]) for lam in range(t))
    # The strength does not touch the pixel channels.
    assert np.array_equal(ct.data[:, :2], field_tensor(field, motions)[0].data[:, :2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 1e39])
def test_control_tensor_rejects_non_float32_strength(bad):
    field = transported_field(K32, identity_motions(3))
    with pytest.raises(ValueError, match="motion strength must be a float32 value >= 0"):
        field_tensor(field, identity_motions(3), np.array([0.0, 1.0, bad]))


def test_control_tensor_rejects_frame_count_mismatch():
    field = transported_field(K32, identity_motions(3))
    with pytest.raises(ValueError, match="frame count mismatch"):
        field_tensor(field, identity_motions(3), np.zeros(2))


def test_inference_signal_strength_values():
    depth = np.full((K32.height, K32.width), 2.0)
    path = generate_primitive(PrimitiveSpec("zoom_in", 0.3, 6))
    for strength in (0.0, 200.0, 400.0, 600.0):
        ct = build_inference_signal(depth, K32, path, strength)
        assert ct.data.shape == (6, 3, K32.height, K32.width)
        assert np.all(ct.data[0, 2] == 0.0)
        assert np.all(ct.data[1:, 2] == strength)


def test_inference_signal_identity_path_is_pixel_grid():
    depth = np.full((K32.height, K32.width), 3.0)
    path = CameraPath(identity_motions(4))
    ct = build_inference_signal(depth, K32, path, 100.0)
    grid = grid_sample_uv(K32.height, K32.width, K32)
    for lam in range(4):
        assert np.max(np.abs(ct.data[lam, 0].ravel() - grid[:, 0])) < 1e-9
        assert np.max(np.abs(ct.data[lam, 1].ravel() - grid[:, 1])) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_strength_series_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        MotionStrengthSeries(np.array([0.0, bad]), np.zeros(2, dtype=bool))


def test_inference_signal_rejects_bad_depth():
    depth = np.full((K32.height, K32.width), 2.0)
    depth[3, 7] = 0.0
    path = CameraPath(identity_motions(3))
    with pytest.raises(ValueError, match=r"row 3, col 7"):
        build_inference_signal(depth, K32, path, 10.0)


def test_normalize_tensor_range():
    depth = np.full((K32.height, K32.width), 2.0)
    path = CameraPath(identity_motions(3))
    ct = normalize_tensor(build_inference_signal(depth, K32, path, 5.0), K32)
    assert np.min(ct.data[:, :2]) >= -1.0 - 1e-12
    assert np.max(ct.data[:, :2]) <= 1.0 + 1e-12
    assert np.all(ct.data[1:, 2] == 5.0)  # strength channel untouched


def test_big_shape_packing():
    t, h, w = 24, 448, 704
    depth = np.full((h, w), 4.0, dtype=np.float32)
    k = Intrinsics(fx=600.0, fy=600.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    path = generate_primitive(PrimitiveSpec("pan_right", 0.3, t))
    ct = build_inference_signal(np.asarray(depth, dtype=float), k, path, 300.0)
    assert ct.data.shape == (24, 3, 448, 704)


def test_big_shape_inference_peak_allocation():
    # One float32 tensor plus per-frame float64 temporaries: no float64
    # (T, 2, N) channels and no float64 copy of the tensor.
    t, h, w = 24, 448, 704
    k = Intrinsics(fx=600.0, fy=600.0, cx=(w - 1) / 2, cy=(h - 1) / 2, width=w, height=h)
    depth = np.full((h, w), 4.0)
    path = generate_primitive(PrimitiveSpec("pan_right", 0.3, t))
    tracemalloc.start()
    try:
        ct = build_inference_signal(depth, k, path, 300.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ct.data.dtype == np.float32
    assert peak < 1.6 * ct.data.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 1e39])
def test_inference_signal_rejects_non_float32_strength(bad):
    depth = np.full((K32.height, K32.width), 2.0)
    with pytest.raises(ValueError, match="motion strength must be a float32 value >= 0"):
        build_inference_signal(depth, K32, CameraPath(identity_motions(3)), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inference_signal_rejects_non_finite_depth(bad):
    depth = np.full((K32.height, K32.width), 2.0)
    depth[5, 2] = bad
    path = CameraPath(identity_motions(3))
    with pytest.raises(ValueError, match=r"finite and positive, got .* \(row 5, col 2\)"):
        build_inference_signal(depth, K32, path, 10.0)
