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
from camsig.geometry import Intrinsics, apply, pinhole, unproject
from camsig.trajfield import grid_sample_uv

BACKGROUND = np.array([128, 128, 128], dtype=np.uint8)


@dataclass(eq=False)
class RgbdFrame:
    """First-frame color image plus a positive depth per pixel."""

    rgb: np.ndarray      # (H, W, 3) uint8
    depth: np.ndarray    # (H, W) positive reals
    intrinsics: Intrinsics

    def __post_init__(self):
        self.rgb = np.asarray(self.rgb, dtype=np.uint8)
        self.depth = np.asarray(self.depth, dtype=float)
        if self.rgb.ndim != 3 or self.rgb.shape[2] != 3:
            raise ValueError("rgb must have shape (H, W, 3)")
        if self.depth.shape != self.rgb.shape[:2]:
            raise ValueError("depth dimensions do not match rgb")
        if self.rgb.shape[0] != self.intrinsics.height or self.rgb.shape[1] != self.intrinsics.width:
            raise ValueError("image dimensions do not match intrinsics")
        if np.any(self.depth <= 0.0) or not np.isfinite(self.depth).all():
            raise ValueError("depth must be positive and finite everywhere")


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
    not depend on order, so neither does the result.
    """
    h, w = k.height, k.width
    uv, front = pinhole(points, k)
    idx = np.flatnonzero(front)
    ui = np.floor(uv[idx, 0] + 0.5).astype(np.int64)  # round half up, deterministically
    vi = np.floor(uv[idx, 1] + 0.5).astype(np.int64)
    inside = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    idx = idx[inside]
    lin = vi[inside] * w + ui[inside]
    zin = points[idx, 2]

    zbuf = np.full(h * w, np.inf)
    np.minimum.at(zbuf, lin, zin)
    tie = zin == zbuf[lin]
    n = len(points)
    ibuf = np.full(h * w, n, dtype=np.int64)  # n marks an uncovered pixel
    np.minimum.at(ibuf, lin[tie], idx[tie])
    pixels = np.flatnonzero(ibuf < n)
    winners = ibuf[pixels]

    image = np.zeros((h * w,) + values.shape[1:], dtype=values.dtype)
    coverage = np.zeros(h * w, dtype=bool)
    image[pixels] = values[winners]
    coverage[pixels] = True
    return image.reshape((h, w) + values.shape[1:]), coverage.reshape(h, w)


def render_preview(frame0: RgbdFrame, path: CameraPath, threads: int = 1) -> PreviewFrames:
    """Render the RGBD cloud of frame 0 under every motion of the path."""
    k = frame0.intrinsics
    h, w = k.height, k.width
    uv = grid_sample_uv(h, w, k)
    # One contiguous column per coordinate, the layout apply reads fastest.
    cols = np.ascontiguousarray(unproject(uv, frame0.depth.ravel(), k).T)
    colors = frame0.rgb.reshape(-1, 3)

    t = len(path)
    frames = np.empty((t, h, w, 3), dtype=np.uint8)
    coverage = np.empty((t, h, w), dtype=bool)

    def render_one(lam):
        image, cov = splat_zbuffer(apply(path[lam], cols.T), colors, k)
        image[~cov] = BACKGROUND
        frames[lam] = image
        coverage[lam] = cov

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(render_one, range(t)))
    else:
        for lam in range(t):
            render_one(lam)
    return PreviewFrames(frames, coverage)
