import tracemalloc
import warnings

import numpy as np
import pytest

from camsig import preview
from camsig.campath import CameraPath, PrimitiveSpec, generate_primitive
from camsig.geometry import Intrinsics, RigidMotion, unproject
from camsig.preview import BACKGROUND, RgbdFrame, render_preview, splat_work, splat_zbuffer
from camsig.trajfield import grid_sample_uv
from test_splat_reference import payloads, reference_splat
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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_packed_colours_come_back_exactly(threads):
    # Each colour travels as one word XORed with the background word. A
    # point coloured BACKGROUND is still covered; black and white (the
    # all-zero and all-one bytes) come back exactly. A pan by one pixel
    # leaves the last pixel uncovered.
    k = Intrinsics(fx=1.0, fy=1.0, cx=1.5, cy=0.0, width=4, height=1)
    rgb = np.array([[[0, 0, 0], BACKGROUND, [255, 255, 255], [1, 2, 254]]], dtype=np.uint8)
    path = CameraPath([RigidMotion.identity(), RigidMotion(np.eye(3), np.array([-1.0, 0.0, 0.0]))])
    out = render_preview(RgbdFrame(rgb, np.ones((1, 4)), k), path, threads=threads)
    assert np.array_equal(out.frames[0], rgb) and out.coverage[0].all()
    assert np.array_equal(out.frames[1][0], [BACKGROUND, [255, 255, 255], [1, 2, 254], BACKGROUND])
    assert np.array_equal(out.coverage[1][0], [True, True, True, False])


@pytest.mark.parametrize("threads", [1, 2])
def test_render_splats_through_module_global_once_per_frame(monkeypatch, threads):
    # Tracing wraps `camsig.preview.splat_zbuffer`, so each frame must call
    # it through the module global.
    calls = []
    splat = preview.splat_zbuffer

    def counting(points, values, k, **kwargs):
        calls.append(len(points))
        return splat(points, values, k, **kwargs)

    monkeypatch.setattr(preview, "splat_zbuffer", counting)
    render_preview(checker_frame(), generate_primitive(PrimitiveSpec("zoom_out", 0.8, 6)), threads=threads)
    assert calls == [K32.height * K32.width] * 6


def test_splat_ignores_points_projected_beyond_int64():
    # x = 1e308 overflows the projection to inf; x = 1e19 at z = 1 projects
    # finitely but past the int64 range. Both are outside the image, so they
    # change nothing, and no cast or overflow warning is raised.
    k = K32
    depth = rng(53).uniform(1.0, 3.0, k.height * k.width)
    points = unproject(grid_sample_uv(k.height, k.width, k), depth, k)
    values = np.arange(len(points))
    far = np.array([[1e308, 0.0, 1.0], [1e19, 0.0, 1.0], [0.0, -1e308, 2.0], [-1e19, 1e19, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = splat_zbuffer(np.concatenate([points, far]), np.concatenate([values, [-1] * 4]), k)
    want = splat_zbuffer(points, values, k)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
    # Worker j of min(threads, T) renders frames j, j + workers, ...: 5
    # frames over 2 and 3 workers split unevenly, and 5 threads on 3 frames
    # start one worker per frame.
    frame0 = checker_frame(jitter=0.3)
    for frames, threads in ((6, 4), (5, 2), (5, 3), (3, 5)):
        path = generate_primitive(PrimitiveSpec("zoom_out", 0.8, frames))
        serial = render_preview(frame0, path, threads=1)
        threaded = render_preview(frame0, path, threads=threads)
        assert np.array_equal(serial.frames, threaded.frames)
        assert np.array_equal(serial.coverage, threaded.coverage)


def test_splat_into_a_reused_dirty_buffer_matches_its_own():
    # Every step overwrites what it reads, so work arrays full of garbage,
    # used again for another cloud of the same size, give the splat's own
    # result; the image and coverage are views of the work tuple's. The
    # source index is the exception: splat_work fills it once, and the
    # splat only reads it. A NaN coordinate drops its point and raises no
    # warning.
    gen = rng(54)
    k = K32
    depth = gen.uniform(1.0, 3.0, k.height * k.width)
    points = unproject(grid_sample_uv(k.height, k.width, k), depth, k)
    holed = points * [1.0, 1.0, 2.5]
    holed[[3, 40, 500]] = [[np.nan, 0.0, 2.0], [0.0, np.nan, 2.0], [0.1, 0.1, np.nan]]
    clouds = [points, holed, points[::3] + [0.3, -0.2, 0.0], points[:0]]

    def dirty_work(n, values):
        work = splat_work(n, values, k)
        assert np.array_equal(work[5], np.arange(n))
        for array in work[:5] + work[6:]:
            raw = array.reshape(-1).view(np.uint8)
            raw[:] = np.frombuffer(gen.bytes(raw.size), dtype=np.uint8)
        return work

    for values in payloads(points):
        full = dirty_work(len(points), values)
        for cloud in clouds:
            payload = values[: len(cloud)]
            work = full if len(cloud) == len(points) else dirty_work(len(cloud), payload)
            image, coverage = splat_zbuffer(cloud, payload, k, buffer=work)
            assert np.array_equal(work[5], np.arange(len(cloud)))
            want = splat_zbuffer(cloud, payload, k)
            assert np.shares_memory(image, work[-2]) and np.shares_memory(coverage, work[-1])
            assert np.array_equal(image, want[0]) and np.array_equal(coverage, want[1])
            with np.errstate(invalid="ignore"):  # the reference casts NaN to int64
                ref = reference_splat(cloud, payload, k)
            assert np.array_equal(image, ref[0]) and np.array_equal(coverage, ref[1])


def test_oversized_work_gives_the_splat_of_an_exact_one():
    # `synth` splats every frame of a clip in one work tuple, sized for its
    # largest frame. A smaller cloud then uses the first entries of each
    # point array, after larger clouds have dirtied them, and must give the
    # image and coverage of a work tuple of its own size. Each image is a
    # view of the shared tuple, so it is compared before the next splat.
    gen = rng(56)
    k = K32
    points = unproject(grid_sample_uv(k.height, k.width, k), gen.uniform(1.0, 3.0, k.height * k.width), k)
    clouds = [points, points[::3] + [0.3, -0.2, 0.0], points[5:12], points[:0], points[1:]]
    for values in payloads(points):
        big = splat_work(len(points) + 37, values, k)
        for cloud in clouds:
            payload = values[: len(cloud)]
            image, coverage = splat_zbuffer(cloud, payload, k, buffer=big)
            want = splat_zbuffer(cloud, payload, k, buffer=splat_work(len(cloud), payload, k))
            assert np.shares_memory(image, big[-2]) and np.shares_memory(coverage, big[-1])
            assert np.array_equal(image, want[0]) and np.array_equal(coverage, want[1])
            assert np.array_equal(big[5], np.arange(len(points) + 37))


def test_splat_rejects_a_payload_of_another_length():
    # A one-row payload must not be broadcast to every point.
    points = np.array([[0.0, 0.0, 2.0], [0.5, 0.0, 2.0], [0.0, 0.5, 3.0]])
    for values in (np.array([7.0]), np.arange(4.0)):
        with pytest.raises(ValueError, match=f"{len(values)} rows for 3 points"):
            splat_zbuffer(points, values, K32)


def test_unbuffered_splat_returns_its_work_arrays_without_copies():
    # The image and coverage are views of the splat's own mappings, outside
    # the heap, so tracemalloc sees none of its working memory. Copying
    # them out would add 9 B/px for a float payload.
    k = Intrinsics(fx=256.0, fy=256.0, cx=127.5, cy=127.5, width=256, height=256)
    points = unproject(grid_sample_uv(k.height, k.width, k), rng(55).uniform(1.0, 3.0, k.height * k.width), k)
    z = points[:, 2]
    tracemalloc.start()
    try:
        image, coverage = splat_zbuffer(points, z, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(image, z.reshape(k.height, k.width)) and coverage.all()
    assert peak / (k.height * k.width) < 2.0


@pytest.mark.parametrize("threads", [1, 2])
def test_render_allocates_no_frame_sized_temporaries(threads):
    # Each worker renders every frame in one buffer mapped outside the heap,
    # so tracemalloc sees only the result and the set-up of the frame-0
    # cloud, about 45 B/px. A float64 temporary of N points per frame on
    # each of two workers would add 16 B/px.
    k = Intrinsics(fx=256.0, fy=256.0, cx=127.5, cy=127.5, width=256, height=256)
    frame0 = checker_frame(k, jitter=0.3)
    path = generate_primitive(PrimitiveSpec("zoom_out", 0.8, 8))
    tracemalloc.start()
    try:
        out = render_preview(frame0, path, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - out.frames.nbytes - out.coverage.nbytes) / (k.height * k.width) < 56.0


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
        q = np.einsum("ij,nj->ni", m.rotation, np.ascontiguousarray(p0)) + m.translation
        image, coverage = reference_splat(q, colors, k)
        image[~coverage] = BACKGROUND
        assert np.array_equal(got.frames[lam], image)
        assert np.array_equal(got.coverage[lam], coverage)
    assert not got.coverage[1:].all()
