import numpy as np
import pytest

from camsig.geometry import Intrinsics, geodesic_angle
from camsig.rigidfit import FitConfig
from camsig.segmentation import (
    STATUS_CONVERGED_EPS,
    STATUS_CONVERGED_FULL,
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    SegmentationConfig,
    extract_static,
)
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from camsig.trajfield import TrajectoryField
from util import K32, pan_roll_path, rng, smooth_motions, transported_field

KWIDE = Intrinsics(fx=20.0, fy=20.0, cx=15.5, cy=15.5, width=32, height=32)


def quad_object_scene(frames=8, speed=0.06, noise=0.0, seed=11, k=K32):
    objects = [
        DynamicObject(center=(8.0, 8.0), radius=4.6, velocity=(speed, 0.0, 0.0)),
        DynamicObject(center=(23.0, 8.0), radius=4.6, velocity=(-speed, 0.0, 0.0)),
        DynamicObject(center=(8.0, 23.0), radius=4.6, velocity=(0.0, speed, 0.0)),
        DynamicObject(center=(23.0, 23.0), radius=4.6, velocity=(0.0, -speed, 0.0)),
    ]
    spec = SceneSpec(
        frames=frames, grid_h=32, grid_w=32, intrinsics=k,
        z_near=1.5, z_far=2.5, depth_jitter=0.4, objects=objects,
        track_noise=noise, seed=seed,
    )
    path = pan_roll_path(frames, pan=0.2, roll=0.1)
    return generate_scene(spec, path), path


def test_fully_static_converges_first_iteration():
    gen = rng(30)
    motions = smooth_motions(8, gen)
    field = transported_field(K32, motions, jitter=0.3, gen=gen)
    result = extract_static(field)
    assert result.status == STATUS_CONVERGED_EPS
    assert result.iterations_used == 1
    assert result.partition.static_mask.all()
    for lam in range(8):
        assert geodesic_angle(result.motions[lam].rotation, motions[lam].rotation) < 1e-6
        assert np.max(np.abs(result.motions[lam].translation - motions[lam].translation)) < 1e-6


def test_quarter_dynamic_exact_partition():
    gt, path = quad_object_scene()
    result = extract_static(gt.field)
    assert np.array_equal(result.partition.static_mask, gt.partition.static_mask)
    for lam in range(len(path)):
        assert geodesic_angle(result.motions[lam].rotation, path[lam].rotation) < 1e-4
        assert np.max(np.abs(result.motions[lam].translation - path[lam].translation)) < 1e-4


def test_noisy_partition_f1():
    for seed in range(3):
        gt, path = quad_object_scene(frames=8, speed=0.08, noise=0.5, seed=700 + seed, k=KWIDE)
        result = extract_static(gt.field)
        pred_dyn = ~result.partition.static_mask.ravel()
        true_dyn = ~gt.partition.static_mask.ravel()
        tp = (pred_dyn & true_dyn).sum()
        fp = (pred_dyn & ~true_dyn).sum()
        fn = (~pred_dyn & true_dyn).sum()
        assert 2 * tp / (2 * tp + fp + fn) >= 0.95
        geo = np.mean(
            [geodesic_angle(result.motions[i].rotation, path[i].rotation) for i in range(1, 8)]
        )
        assert np.degrees(geo) < 0.5


def test_frame0_motion_pinned_identity():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field)
    assert result.motions[0].is_identity()


def test_eps_trace_monotone_noise_free():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field)
    trace = result.eps_max_trace
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    assert result.diagnostics == []


def test_degenerate_guard():
    # Over half the grid is dynamic; with a 60% floor the re-threshold
    # cannot keep enough points and the previous partition is returned.
    objects = [DynamicObject(center=(15.5, 15.5), radius=14.0, velocity=(0.08, 0.0, 0.0))]
    spec = SceneSpec(
        frames=6, grid_h=32, grid_w=32, intrinsics=K32,
        z_near=1.5, z_far=2.5, depth_jitter=0.4, objects=objects, seed=3,
    )
    path = pan_roll_path(6, pan=0.1, roll=0.05)
    gt = generate_scene(spec, path)
    config = SegmentationConfig(min_static_fraction=0.6)
    result = extract_static(gt.field, config)
    assert result.status == STATUS_DEGENERATE
    assert result.partition.static_mask.all()  # last valid iteration started from all
    assert result.diagnostics


def test_underdetermined_initial_set_is_degenerate():
    gt, _ = quad_object_scene()
    initial = np.zeros(gt.field.num_points, dtype=bool)
    initial[:2] = True
    result = extract_static(gt.field, initial_static=initial)
    assert result.status == STATUS_DEGENERATE
    assert result.iterations_used == 0
    assert result.diagnostics == [
        "fewer than 3 visible static points in frame 1; keeping previous iteration"
    ]


def test_unconverged_fit_reported():
    gt, _ = quad_object_scene(frames=3)
    config = SegmentationConfig(max_iterations=1, fit=FitConfig(max_iterations=1))
    result = extract_static(gt.field, config)
    assert result.diagnostics == [
        "rigid fit of frame 1 did not converge in segmentation iteration 1 (1 solver iterations)",
        "rigid fit of frame 2 did not converge in segmentation iteration 1 (1 solver iterations)",
    ]


def test_max_iters_status():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field, SegmentationConfig(max_iterations=1))
    assert result.status == STATUS_MAX_ITERS
    assert result.iterations_used == 1


def test_converged_full_status():
    # Uniformly perturbed static field: pick epsilon just below the worst
    # error so the threshold pass runs, with alpha high enough to keep all.
    gen = rng(31)
    motions = smooth_motions(6, gen)
    field = transported_field(K32, motions, jitter=0.3, gen=gen)
    wobble = gen.normal(scale=1e-5, size=field.positions.shape)
    wobble[0] = 0.0
    field = TrajectoryField(
        field.positions + wobble, field.visibility, field.grid_h, field.grid_w, K32
    )
    probe = extract_static(field)
    assert probe.status == STATUS_CONVERGED_EPS
    eps_max = probe.eps_max_trace[0]
    result = extract_static(field, SegmentationConfig(epsilon=eps_max * 0.8, alpha=0.9))
    assert result.status == STATUS_CONVERGED_FULL
    assert result.partition.static_mask.all()


def test_idempotent_under_rerun_with_result():
    gt, _ = quad_object_scene()
    first = extract_static(gt.field)
    second = extract_static(gt.field, initial_static=first.partition.static_mask)
    assert np.array_equal(second.partition.static_mask, first.partition.static_mask)


def test_occluded_static_point_still_classified_static():
    gt, _ = quad_object_scene()
    vis = gt.field.visibility.copy()
    static_flat = gt.partition.static_mask.ravel()
    idx = int(np.flatnonzero(static_flat)[10])
    vis[1::2, idx] = False  # invisible every other frame
    field = TrajectoryField(gt.field.positions, vis, gt.field.grid_h, gt.field.grid_w, K32)
    result = extract_static(field)
    assert result.partition.static_mask.ravel()[idx]
    assert np.array_equal(result.partition.static_mask, gt.partition.static_mask)


def test_displaced_dynamic_pixels_always_detected():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field)
    eps = 4.0 * gt.field.num_frames
    bound = 0.15 * (result.eps_max_trace[-1] + eps)
    err = result.per_point_error.ravel()
    over = err > bound
    assert not np.any(over & result.partition.static_mask.ravel())


def test_config_validation():
    with pytest.raises(ValueError):
        SegmentationConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SegmentationConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        SegmentationConfig(min_static_fraction=0.0)


def test_needs_two_frames():
    gen = rng(32)
    field = transported_field(K32, smooth_motions(2, gen)[:1], gen=gen)
    with pytest.raises(ValueError, match="two frames"):
        extract_static(field)
