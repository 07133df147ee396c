import numpy as np
import pytest

from camsig.campath import CameraPath, PrimitiveSpec, generate_primitive
from camsig.geometry import RigidMotion, project
from camsig.segmentation import STATUS_CONVERGED_EPS, extract_static
from camsig.signal import motion_strength
from camsig.synth import DynamicObject, PixelOverflow, SceneSpec, generate_scene, scene_from_dict, scene_to_dict
from camsig.trajfield import residual_g
from util import K32, pan_roll_path


def static_scene(frames=6, jitter=0.3, seed=4):
    return SceneSpec(
        frames=frames, grid_h=32, grid_w=32, intrinsics=K32,
        z_near=1.6, z_far=2.4, depth_jitter=jitter, seed=seed,
    )


def one_object_scene(velocity, frames=6, radius=6.0, seed=4):
    spec = static_scene(frames=frames, seed=seed)
    spec.objects = [DynamicObject(center=(15.5, 15.5), radius=radius, velocity=velocity)]
    return spec


def test_static_scene_residual_zero_and_full_static():
    path = pan_roll_path(6, pan=0.15, roll=0.08)
    gt = generate_scene(static_scene(), path)
    res = residual_g(gt.field, list(path.motions))
    assert np.max(np.abs(res.g)) < 1e-12
    result = extract_static(gt.field)
    assert result.status == STATUS_CONVERGED_EPS
    assert result.partition.static_mask.all()


def test_true_m_closed_form_fraction_times_speed():
    velocity = (0.03, 0.0, 0.04)  # norm 0.05
    path = generate_primitive(PrimitiveSpec("pan_right", 0.2, 6))  # no rotation
    gt = generate_scene(one_object_scene(velocity), path)
    f = 1.0 - gt.partition.static_fraction
    expected = f * 0.05
    assert gt.true_m[0] == 0.0
    assert np.max(np.abs(gt.true_m[1:] - expected)) < 1e-9


def test_true_m_matches_motion_strength_cross_oracle():
    velocity = (0.02, -0.03, 0.01)
    path = pan_roll_path(6, pan=0.2, roll=0.1)  # rotation bends the residual
    gt = generate_scene(one_object_scene(velocity), path)
    series = motion_strength(residual_g(gt.field, list(path.motions)))
    assert np.max(np.abs(series.m - gt.true_m)) < 1e-9


def test_noise_free_tracks_reproject_exactly():
    path = pan_roll_path(5, pan=0.1, roll=0.05)
    gt = generate_scene(one_object_scene((0.03, 0.0, 0.0), frames=5), path)
    # Static points: projection of the transported frame-0 points equals the
    # field's own projections.
    static = gt.partition.static_mask.ravel()
    for lam in range(5):
        transported = gt.field.positions[0][static] @ path[lam].rotation.T + path[lam].translation
        a = project(transported, K32)
        b = project(gt.field.positions[lam][static], K32)
        assert np.max(np.abs(a - b)) < 1e-12


def test_same_seed_bitwise_identical():
    path = pan_roll_path(5, pan=0.1, roll=0.05)
    spec = one_object_scene((0.0, 0.02, 0.0), frames=5)
    spec.track_noise = 0.4
    spec2 = one_object_scene((0.0, 0.02, 0.0), frames=5)
    spec2.track_noise = 0.4
    a = generate_scene(spec, path)
    b = generate_scene(spec2, path)
    assert np.array_equal(a.field.positions, b.field.positions)
    assert np.array_equal(a.depth0, b.depth0)
    assert np.array_equal(a.rgb0, b.rgb0)
    assert np.array_equal(a.true_m, b.true_m)


def test_different_seed_differs():
    path = pan_roll_path(5, pan=0.1, roll=0.05)
    spec_a = static_scene(frames=5, seed=1)
    spec_b = static_scene(frames=5, seed=2)
    a = generate_scene(spec_a, path)
    b = generate_scene(spec_b, path)
    assert not np.array_equal(a.depth0, b.depth0)


def test_object_outside_frame0_rejected():
    spec = static_scene()
    spec.objects = [DynamicObject(center=(100.0, 15.0), radius=3.0, velocity=(0.01, 0.0, 0.0))]
    path = pan_roll_path(6, pan=0.1, roll=0.05)
    with pytest.raises(ValueError, match="not visible in frame 0"):
        generate_scene(spec, path)


def test_rigid_motion_object_mode():
    spec = static_scene()
    t = spec.frames
    obj_motions = [RigidMotion.identity()]
    for lam in range(1, t):
        obj_motions.append(RigidMotion(np.eye(3), np.array([0.01 * lam, 0.0, 0.0])))
    spec.objects = [DynamicObject(center=(15.5, 15.5), radius=5.0, motions=obj_motions)]
    path = generate_primitive(PrimitiveSpec("zoom_out", 0.1, t))
    gt = generate_scene(spec, path)
    f = 1.0 - gt.partition.static_fraction
    # displacement step is 0.01 per frame, so the strength is f * 0.01
    assert np.max(np.abs(gt.true_m[1:] - f * 0.01)) < 1e-9


def test_noise_applied_only_after_frame0():
    spec = static_scene()
    spec.track_noise = 0.5
    path = pan_roll_path(6, pan=0.1, roll=0.05)
    gt = generate_scene(spec, path)
    clean_spec = static_scene()
    clean = generate_scene(clean_spec, path)
    assert np.array_equal(gt.field.positions[0], clean.field.positions[0])
    assert not np.array_equal(gt.field.positions[1], clean.field.positions[1])
    # Noise perturbs pixels, not depth.
    assert np.array_equal(gt.field.positions[1][:, 2], clean.field.positions[1][:, 2])


def test_field_holds_pixels_and_exact_depths():
    path = pan_roll_path(6, pan=0.1, roll=0.05)
    spec = one_object_scene((0.02, 0.0, 0.01))
    spec.track_noise = 0.5
    gt = generate_scene(spec, path)
    clean = generate_scene(one_object_scene((0.02, 0.0, 0.01)), path)
    assert np.array_equal(gt.field.depth, clean.field.depth)
    assert np.array_equal(gt.field.pixels[0], clean.field.pixels[0])
    assert np.array_equal(gt.field.depth[0], gt.depth0.ravel())
    noise = gt.field.pixels[1:] - clean.field.pixels[1:]
    assert 0.4 < noise.std() < 0.6 and np.abs(noise.mean()) < 0.05


def test_overflowing_pixel_raises_naming_its_frame():
    # A visible point carried to x = 1e308 projects beyond the float64
    # range; the scene is refused rather than the point hidden.
    motions = list(pan_roll_path(5, pan=0.1, roll=0.05).motions)
    motions[3] = RigidMotion(motions[3].rotation, np.array([1e308, 0.0, 0.0]))
    with pytest.raises(PixelOverflow, match="frame 3 overflows the float64 range"):
        generate_scene(static_scene(frames=5), CameraPath(motions))
    assert issubclass(PixelOverflow, ValueError)
    motions[3] = RigidMotion(motions[3].rotation, np.array([1e300, 0.0, 0.0]))  # finite pixels
    assert np.isfinite(generate_scene(static_scene(frames=5), CameraPath(motions)).field.pixels).all()


def test_scene_dict_roundtrip():
    spec = one_object_scene((0.01, 0.02, 0.03))
    spec.track_noise = 0.25
    doc = scene_to_dict(spec)
    back = scene_from_dict(doc)
    assert scene_to_dict(back) == doc


def test_scene_dict_roundtrip_with_object_motions():
    spec = static_scene(frames=3)
    motions = [RigidMotion.identity(), RigidMotion(np.eye(3), np.array([0.01, 0.0, 0.0]))]
    motions.append(RigidMotion(generate_primitive(PrimitiveSpec("rot_cw", 0.1, 3))[2].rotation, np.zeros(3)))
    spec.objects = [DynamicObject(center=(15.5, 15.5), radius=5.0, motions=motions)]
    doc = scene_to_dict(spec)
    back = scene_from_dict(doc)
    assert scene_to_dict(back) == doc
    assert all(np.array_equal(a.rotation, b.rotation) for a, b in zip(motions, back.objects[0].motions))


def test_scene_dict_integer_fields():
    doc = scene_to_dict(static_scene())
    spec = scene_from_dict({**doc, "frames": 6.0, "grid": [32.0, 32], "seed": 4.0})
    assert (spec.frames, spec.grid_h, spec.grid_w, spec.seed) == (6, 32, 32, 4)
    assert scene_to_dict(spec) == doc
    for key, value in [("seed", 1.5), ("frames", 2.5), ("seed", True), ("frames", None)]:
        with pytest.raises(ValueError, match=f"^{key}: expected an integer"):
            scene_from_dict({**doc, key: value})


def test_scene_dict_rejects_unknown_keys():
    doc = scene_to_dict(static_scene())
    doc["fps"] = 30
    with pytest.raises(ValueError, match="unknown scene keys"):
        scene_from_dict(doc)


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(frames=4, grid_h=32, grid_w=32, intrinsics=K32, z_near=0.0, z_far=1.0)
    with pytest.raises(ValueError):
        SceneSpec(frames=4, grid_h=16, grid_w=32, intrinsics=K32, z_near=1.0, z_far=2.0)
    with pytest.raises(ValueError):
        DynamicObject(center=(1.0, 1.0), radius=2.0)
    with pytest.raises(ValueError):
        DynamicObject(center=(1.0, 1.0), radius=-2.0, velocity=(0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["depth_jitter", "track_noise"])
def test_spec_rejects_non_finite_noise(field, bad):
    kwargs = dict(frames=4, grid_h=32, grid_w=32, intrinsics=K32, z_near=1.0, z_far=2.0)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SceneSpec(**kwargs, **{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite_object_and_depth_range(bad):
    with pytest.raises(ValueError, match="radius must be finite"):
        DynamicObject(center=(1.0, 1.0), radius=bad, velocity=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="velocity must be a finite"):
        DynamicObject(center=(1.0, 1.0), radius=2.0, velocity=(0.0, bad, 0.0))
    with pytest.raises(ValueError, match="z_far"):
        SceneSpec(frames=4, grid_h=32, grid_w=32, intrinsics=K32, z_near=1.0, z_far=bad)
