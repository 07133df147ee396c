"""RGBD point-cloud preview: re-render the first frame under a camera path.

Every pixel of the first frame is lifted at its depth, transported by each
frame's rigid motion, projected, and splatted to its nearest pixel with a
z-buffer. No hole filling and no point radius: gaps are informative, and
uncovered pixels show mid-gray with an explicit coverage mask.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import Intrinsics, apply, check_first_depth, in_image, pinhole, unproject
from camsig.trajfield import grid_sample_uv

BACKGROUND = np.array([128, 128, 128], dtype=np.uint8)


@dataclass(eq=False)
class RgbdFrame:
    """First-frame color image plus a positive depth per pixel."""

    rgb: np.ndarray      # (H, W, 3) uint8
    depth: np.ndarray    # (H, W) positive reals
    intrinsics: Intrinsics

    def __post_init__(self):
        k = self.intrinsics
        self.rgb = np.asarray(self.rgb, dtype=np.uint8)
        if self.rgb.shape != (k.height, k.width, 3):
            raise ValueError("rgb image dimensions do not match intrinsics")
        self.depth = check_first_depth(self.depth, k)


@dataclass(eq=False)
class PreviewFrames:
    frames: np.ndarray    # (T, H, W, 3) uint8
    coverage: np.ndarray  # (T, H, W) bool

    def __post_init__(self):
        if self.frames.shape[:3] != self.coverage.shape:
            raise ValueError("coverage dimensions do not match frames")


def splat_zbuffer(points, values, k: Intrinsics):
    """Nearest-pixel z-buffer splat of camera-space points.

    values is (N, ...) per-point payload; returns (image (H, W, ...),
    coverage (H, W)). Smaller z wins; on exactly equal z the smaller source
    index wins. Two unbuffered scatter-mins over the flat pixel grid pick
    the winner: the first gives each pixel's nearest depth, the second the
    smallest source index among the points at that depth. A minimum does
    not depend on order, so neither does the result. The index buffer is
    the image: one gather from the payload extended by a zero row, which
    index n (an uncovered pixel) reads.
    """
    h, w = k.height, k.width
    uv, front = pinhole(points, k)
    keep = front & in_image(uv, k)
    cols = np.moveaxis(uv, -1, 0)  # pinhole's (2, N) buffer, rounded in place
    np.floor(np.add(cols, 0.5, out=cols), out=cols)  # round half up, deterministically
    keep &= (cols[0] < w) & (cols[1] < h)  # u = W - 0.5 is in the footprint but rounds to column W
    idx = np.flatnonzero(keep)
    lin = (cols[1, idx] * w + cols[0, idx]).astype(np.int64)  # exact: whole numbers below 2^53
    zin = points[idx, 2]

    zbuf = np.full(h * w, np.inf)
    np.minimum.at(zbuf, lin, zin)
    tie = zin == zbuf[lin]
    n = len(points)
    ibuf = np.full(h * w, n, dtype=np.int64)  # n marks an uncovered pixel
    np.minimum.at(ibuf, lin[tie], idx[tie])
    ext = np.concatenate([values, np.zeros((1,) + values.shape[1:], dtype=values.dtype)])
    return ext[ibuf].reshape((h, w) + values.shape[1:]), (ibuf < n).reshape(h, w)


def render_preview(frame0: RgbdFrame, path: CameraPath, threads: int = 1) -> PreviewFrames:
    """Render the RGBD cloud of frame 0 under every motion of the path."""
    k = frame0.intrinsics
    h, w = k.height, k.width
    uv = grid_sample_uv(h, w, k)
    p0 = unproject(uv, frame0.depth.ravel(), k)  # coordinate-major, as apply reads fastest
    # One little-endian word per point: its RGB bytes XOR BACKGROUND, then a
    # zero byte. XORing the splat's words with BACKGROUND's word restores the
    # colours, and turns the zero sentinel of an uncovered pixel into BACKGROUND.
    rgbx = np.zeros((h * w, 4), dtype=np.uint8)
    rgbx[:, :3] = frame0.rgb.reshape(-1, 3) ^ BACKGROUND
    words = rgbx.view("<u4").ravel()
    background = int.from_bytes(BACKGROUND.tobytes(), "little")

    t = len(path)
    frames = np.empty((t, h, w, 3), dtype=np.uint8)
    coverage = np.empty((t, h, w), dtype=bool)

    def render_one(lam):
        image, cov = splat_zbuffer(apply(path[lam], p0), words, k)
        image ^= background
        frames[lam] = image.view(np.uint8).reshape(h, w, 4)[..., :3]
        coverage[lam] = cov

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(render_one, range(t)))
    return PreviewFrames(frames, coverage)
