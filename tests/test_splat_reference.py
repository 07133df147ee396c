"""`preview.splat_zbuffer` against the sort-based reference selection.

The preview bytes and the `synth` depth maps were recorded with a z-buffer
that sorted the in-image points by (z, source index) with `np.lexsort` and
kept the first point of each pixel with `np.unique`. That selection is kept
below as the oracle: the splat must reproduce its image and coverage bit
for bit, for colour and depth payloads alike.
"""

import warnings

import numpy as np
import pytest

from camsig.geometry import Intrinsics, Z_MIN, pinhole
from camsig.preview import splat_zbuffer
from util import K32, K64, grid_points, random_points, rng


def reference_splat(points, values, k):
    h, w = k.height, k.width
    uv, front = pinhole(points, k)
    idx = np.flatnonzero(front)
    ui = np.floor(uv[idx, 0] + 0.5).astype(np.int64)
    vi = np.floor(uv[idx, 1] + 0.5).astype(np.int64)
    inside = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    idx = idx[inside]
    lin = vi[inside] * w + ui[inside]
    zin = points[idx, 2]
    order = np.lexsort((idx, zin))
    pixels, first = np.unique(lin[order], return_index=True)
    winners = idx[order[first]]
    image = np.zeros((h * w,) + values.shape[1:], dtype=values.dtype)
    coverage = np.zeros(h * w, dtype=bool)
    image[pixels] = values[winners]
    coverage[pixels] = True
    return image.reshape((h, w) + values.shape[1:]), coverage.reshape(h, w)


def payloads(points):
    """Per-point depth (as `cli synth` splats it) and a colour unique per index."""
    n = len(points)
    colors = np.stack([np.arange(n) % 251, (np.arange(n) // 251) % 251, np.arange(n) % 7], axis=1)
    return [points[:, 2].copy(), colors.astype(np.uint8)]


def assert_matches_reference(points, k):
    for values in payloads(points):
        image, coverage = splat_zbuffer(points, values, k)
        ref_image, ref_coverage = reference_splat(points, values, k)
        assert image.dtype == ref_image.dtype and image.shape == ref_image.shape
        assert np.array_equal(image, ref_image)
        assert np.array_equal(coverage, ref_coverage)
    return coverage


def pixel_hits(points, k):
    """Number of front, in-image points, and the distinct pixels they hit."""
    uv, front = pinhole(points, k)
    ui = np.floor(uv[front, 0] + 0.5).astype(np.int64)
    vi = np.floor(uv[front, 1] + 0.5).astype(np.int64)
    inside = (ui >= 0) & (ui < k.width) & (vi >= 0) & (vi < k.height)
    return int(inside.sum()), len(np.unique(vi[inside] * k.width + ui[inside]))


def test_dense_cloud_under_strong_zoom_out():
    # Pushing a jittered 64x64 cloud from z~1 to z~6 folds ~36 points onto
    # each covered pixel. Depths quantised to 1/64 mix strict wins with
    # exact ties, and every third point sits one ulp behind its level.
    gen = rng(70)
    p = grid_points(K64, z_base=1.0, jitter=0.3, gen=gen)
    p[:, 2] = np.round(p[:, 2] * 64.0) / 64.0 + 5.0
    p[::3, 2] = np.nextafter(p[::3, 2], np.inf)
    hits, pixels = pixel_hits(p, K64)
    assert hits > 20 * pixels
    assert_matches_reference(p, K64)


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_equal_z_collisions_in_either_source_order(order):
    # A flat cloud at one depth, zoomed out 3x: every collision is an exact
    # z tie, so only the source index decides. Reversed, the points that
    # win arrive last.
    p = grid_points(K32, z_base=1.0)
    p[:, 2] += 2.0
    if order == "reversed":
        p = p[::-1].copy()
    hits, pixels = pixel_hits(p, K32)
    assert hits > 4 * pixels
    assert_matches_reference(p, K32)


def test_points_behind_camera_and_outside_image():
    gen = rng(71)
    p = random_points(gen, 4000, z_range=(-2.0, 3.0), spread=4.0)
    p[:10, 2] = Z_MIN
    p[10:20, 2] = 0.0
    p[20:30, 2] = -Z_MIN
    uv, front = pinhole(p, K32)
    assert (~front).sum() > 1000
    hits, _ = pixel_hits(p, K32)
    assert 0 < hits < front.sum()
    coverage = assert_matches_reference(p, K32)
    assert coverage.any() and not coverage.all()


@pytest.mark.parametrize("where", ["behind", "beside"])
def test_no_point_in_image_gives_empty_coverage(where):
    gen = rng(72)
    p = random_points(gen, 500, z_range=(1.0, 3.0), spread=0.5)
    if where == "behind":
        p[:, 2] = -p[:, 2]
    else:
        p[:, 0] += 50.0
    coverage = assert_matches_reference(p, K32)
    assert not coverage.any()


def test_footprint_edges_overflow_and_points_behind():
    # With power-of-two focal lengths, a zero principal point and z = 1,
    # each point projects to exactly its target. -0.5 is in the footprint
    # and rounds to pixel 0; one ulp less is outside. W - 0.5 is in the
    # footprint but rounds to column W; one ulp less rounds to W - 1.
    k = Intrinsics(fx=2.0, fy=2.0, cx=0.0, cy=0.0, width=32, height=24)

    def edges(size):
        return [-0.5, np.nextafter(-0.5, -1.0), size - 0.5, np.nextafter(size - 0.5, 0.0)]

    uv = np.array([(u, 3.0 * (i + 1)) for i, u in enumerate(edges(k.width))]
                  + [(3.0 * (i + 1), v) for i, v in enumerate(edges(k.height))])
    points = np.concatenate([uv / 2.0, np.ones((len(uv), 1))], axis=1)
    assert np.array_equal(pinhole(points, k)[0], uv)
    # A cloud over pixels [14, 28] x [14, 20], away from the edge points, and
    # its negation, which projects to the same pixels from behind the camera.
    gen = rng(73)
    z = gen.uniform(1.0, 2.0, 300)
    u, v = gen.uniform(14.0, 28.0, 300), gen.uniform(14.0, 20.0, 300)
    inside = np.stack([u * z / 2.0, v * z / 2.0, z], axis=1)
    behind = -inside[:100]
    # Projections of inf and past the int64 range, and points at z = 0 and
    # just below Z_MIN, whose projections are nan or huge.
    overflowed = np.array([[1e308, 3.0, 1.0], [3.0, -1e308, 1.0], [1e19, 3.0, 1.0], [3.0, -1e19, 1.0],
                           [1e300, 3.0, Z_MIN / 2.0]])
    at_zero = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, -0.0], [0.5, 0.5, Z_MIN * (1 - 1e-15)]])
    p = np.concatenate([points, inside, behind, overflowed, at_zero, points])
    for values in payloads(p):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            image, coverage = splat_zbuffer(p, values, k)
        with np.errstate(invalid="ignore", over="ignore"):  # the reference casts inf to int64
            ref_image, ref_coverage = reference_splat(p, values, k)
        assert np.array_equal(image, ref_image) and np.array_equal(coverage, ref_coverage)
    corners = coverage[[3, 6, 9, 12], [0, 0, 31, 31]], coverage[[0, 0, 23, 23], [3, 6, 9, 12]]
    assert np.array_equal(corners[0], [True, False, False, True])
    assert np.array_equal(corners[1], [True, False, False, True])
    assert coverage[14:21, 14:29].any()


def test_empty_cloud():
    coverage = assert_matches_reference(np.empty((0, 3)), K32)
    assert not coverage.any()
