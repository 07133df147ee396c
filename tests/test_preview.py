import numpy as np
import pytest

from camsig.campath import CameraPath, PrimitiveSpec, generate_primitive
from camsig.geometry import Intrinsics, RigidMotion, unproject
from camsig.preview import BACKGROUND, RgbdFrame, render_preview
from camsig.trajfield import grid_sample_uv
from test_splat_reference import reference_splat
from util import K32, identity_motions, rng, smooth_motions


def checker_frame(k=K32, z=2.0, jitter=0.0, seed=50):
    gen = rng(seed)
    h, w = k.height, k.width
    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    rgb[..., 0] = ((ii // 4 + jj // 4) % 2) * 200 + 30
    rgb[..., 1] = 90
    rgb[..., 2] = 150
    depth = np.full((h, w), z)
    if jitter > 0.0:
        depth = depth + jitter * gen.uniform(-1.0, 1.0, size=(h, w))
    return RgbdFrame(rgb, depth, k)


def marker_frame(k, marker, color=(255, 0, 0), z=10.0):
    """Uniform gray plane with a colored marker rectangle (r0, r1, c0, c1)."""
    h, w = k.height, k.width
    rgb = np.full((h, w, 3), 60, dtype=np.uint8)
    r0, r1, c0, c1 = marker
    rgb[r0:r1, c0:c1] = color
    return RgbdFrame(rgb, np.full((h, w), z), k)


def marker_centroid(frame, color=(255, 0, 0)):
    hit = np.all(frame == np.array(color, dtype=np.uint8), axis=-1)
    assert hit.any()
    ii, jj = np.nonzero(hit)
    return float(jj.mean()), float(ii.mean()), int(hit.sum())


def marker_bbox_area(frame, color=(255, 0, 0)):
    """Bounding-box area of the marker color: splatting leaves gaps under
    magnification, so the raw pixel count cannot grow past the source count."""
    hit = np.all(frame == np.array(color, dtype=np.uint8), axis=-1)
    assert hit.any()
    ii, jj = np.nonzero(hit)
    return int((ii.max() - ii.min() + 1) * (jj.max() - jj.min() + 1))


def test_identity_path_reproduces_input_exactly():
    frame0 = checker_frame(jitter=0.3)
    out = render_preview(frame0, CameraPath(identity_motions(3)))
    for lam in range(3):
        assert np.array_equal(out.frames[lam], frame0.rgb)
        assert out.coverage[lam].all()


def test_zbuffer_two_point_occlusion():
    # Three-pixel scene: after a pan of +2 scene units, the points at depths
    # 1 and 2 (and 5) all land on pixel 2; the nearest (depth 1) wins.
    k = Intrinsics(fx=1.0, fy=1.0, cx=1.0, cy=0.0, width=3, height=1)
    rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]], dtype=np.uint8)
    depth = np.array([[1.0, 2.0, 5.0]])
    frame0 = RgbdFrame(rgb, depth, k)
    path = CameraPath(
        [RigidMotion.identity(), RigidMotion(np.eye(3), np.array([2.0, 0.0, 0.0]))]
    )
    out = render_preview(frame0, path)
    assert np.array_equal(out.frames[1][0, 2], [255, 0, 0])
    assert not out.coverage[1][0, 0] and not out.coverage[1][0, 1]
    assert np.array_equal(out.frames[1][0, 0], [128, 128, 128])


def test_zbuffer_tie_breaks_by_source_index():
    # Equal depths collide under a strong zoom-out; the smaller source
    # index (leftmost point) must win deterministically.
    k = Intrinsics(fx=1.0, fy=1.0, cx=1.0, cy=0.0, width=3, height=1)
    rgb = np.array([[[10, 0, 0], [20, 0, 0], [30, 0, 0]]], dtype=np.uint8)
    depth = np.ones((1, 3))
    frame0 = RgbdFrame(rgb, depth, k)
    path = CameraPath(
        [RigidMotion.identity(), RigidMotion(np.eye(3), np.array([0.0, 0.0, 2.0]))]
    )
    out = render_preview(frame0, path)
    assert np.array_equal(out.frames[1][0, 1], [10, 0, 0])


def test_zoom_in_grows_marker_area():
    k = K32
    frame0 = marker_frame(k, (12, 20, 12, 20), z=4.0)
    path = generate_primitive(PrimitiveSpec("zoom_in", 2.0, 5))
    out = render_preview(frame0, path)
    areas = [marker_bbox_area(out.frames[lam]) for lam in range(5)]
    assert all(areas[i + 1] > areas[i] for i in range(4))


def test_zoom_out_coverage_monotone_non_increasing():
    frame0 = checker_frame(z=2.0)
    path = generate_primitive(PrimitiveSpec("zoom_out", 1.5, 5))
    out = render_preview(frame0, path)
    counts = out.coverage.reshape(5, -1).sum(axis=1)
    assert all(counts[i + 1] <= counts[i] for i in range(4))


def test_pan_directions_move_scene_as_documented():
    # Camera pans move the rendered content opposite to the camera motion.
    k = K32
    expectations = {
        "pan_right": (-1, 0),  # scene shifts left
        "pan_left": (+1, 0),
        "pan_down": (0, -1),  # scene ascends
        "pan_up": (0, +1),
    }
    for kind, (du, dv) in expectations.items():
        frame0 = marker_frame(k, (13, 19, 13, 19), z=10.0)
        path = generate_primitive(PrimitiveSpec(kind, 0.8, 4))
        out = render_preview(frame0, path)
        u0, v0, _ = marker_centroid(out.frames[0])
        u1, v1, _ = marker_centroid(out.frames[-1])
        if du:
            assert (u1 - u0) * du > 0.5
            assert abs(v1 - v0) < 0.5
        else:
            assert (v1 - v0) * dv > 0.5
            assert abs(u1 - u0) < 0.5


def test_roll_directions_rotate_scene_as_documented():
    # Counterclockwise camera roll rotates the scene clockwise: a marker
    # right of center moves down (v grows).
    k = K32
    frame0 = marker_frame(k, (14, 18, 24, 28), z=10.0)
    for kind, sign in (("rot_acw", +1), ("rot_cw", -1)):
        path = generate_primitive(PrimitiveSpec(kind, 0.4, 4))
        out = render_preview(frame0, path)
        _, v0, _ = marker_centroid(out.frames[0])
        _, v1, _ = marker_centroid(out.frames[-1])
        assert (v1 - v0) * sign > 0.5


def test_threaded_render_matches_serial():
    frame0 = checker_frame(jitter=0.3)
    path = generate_primitive(PrimitiveSpec("zoom_out", 0.8, 6))
    serial = render_preview(frame0, path, threads=1)
    threaded = render_preview(frame0, path, threads=4)
    assert np.array_equal(serial.frames, threaded.frames)
    assert np.array_equal(serial.coverage, threaded.coverage)


def test_rgbd_frame_validation():
    with pytest.raises(ValueError, match="positive"):
        RgbdFrame(np.zeros((K32.height, K32.width, 3), dtype=np.uint8),
                  np.zeros((K32.height, K32.width)), K32)
    with pytest.raises(ValueError, match="intrinsics"):
        RgbdFrame(np.zeros((4, 4, 3), dtype=np.uint8), np.ones((4, 4)), K32)


@pytest.mark.parametrize("threads", [1, 2])
def test_render_matches_einsum_transport_and_sort_oracle(threads):
    # The preview bytes were recorded with an einsum transport of the
    # row-major frame-0 cloud and a sort-based z-buffer; general rotations
    # make the transport's summation order matter.
    frame0 = checker_frame(jitter=0.4, seed=51)
    path = CameraPath(smooth_motions(5, rng(52), max_angle=0.5, max_shift=0.6))
    k = frame0.intrinsics
    p0 = unproject(grid_sample_uv(k.height, k.width, k), frame0.depth.ravel(), k)
    colors = frame0.rgb.reshape(-1, 3)
    got = render_preview(frame0, path, threads=threads)
    for lam, m in enumerate(path.motions):
        q = np.einsum("ij,nj->ni", m.rotation, p0) + m.translation
        image, coverage = reference_splat(q, colors, k)
        image[~coverage] = BACKGROUND
        assert np.array_equal(got.frames[lam], image)
        assert np.array_equal(got.coverage[lam], coverage)
    assert not got.coverage[1:].all()
