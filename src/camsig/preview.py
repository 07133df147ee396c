"""RGBD point-cloud preview: re-render the first frame under a camera path.

Every pixel of the first frame is lifted at its depth, transported by each
frame's rigid motion, projected, and splatted to its nearest pixel with a
z-buffer. No hole filling and no point radius: gaps are informative, and
uncovered pixels show mid-gray with an explicit coverage mask. Each working
array of the splat is an anonymous mapping of its own, outside malloc's heap.
"""

from __future__ import annotations

import math
import mmap
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


def _mapped(dtype, shape) -> np.ndarray:
    """An uninitialised array in an anonymous mapping of its own.

    The memory goes back to the OS when the last view of it is dropped,
    whatever malloc's thresholds: freed heap memory, which worker threads
    leave in their own arenas, is kept by the process. An empty mapping is
    refused, so at least one byte is mapped.
    """
    size = np.dtype(dtype).itemsize * math.prod(shape)
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, max(size, 1)))


def splat_work(n: int, values, k: Intrinsics) -> tuple:
    """The working arrays of splat_zbuffer for n points of this payload, each mapped on its own."""
    pixels = k.height * k.width
    payload = values.shape[1:]
    source = _mapped(np.intp, (n,))  # 0, 1, ..., n - 1, filled once in place: the splat only reads it
    np.cumsum(np.broadcast_to(np.intp(1), n), out=source)
    source -= 1
    return (
        _mapped(float, (2, n)),  # pinhole's u, v; rounded; then the gathered nearest depths
        _mapped(bool, (n,)),  # in front of the camera
        _mapped(bool, (n,)),  # kept
        _mapped(bool, (n,)),  # scratch
        _mapped(np.intp, (n,)),  # pixel index; H·W, the spare pixel, for a dropped point
        source,  # source index
        _mapped(float, (pixels + 1,)),  # nearest depth per pixel, then the spare pixel
        _mapped(np.intp, (pixels + 1,)),  # winning source index per pixel, then the spare pixel
        _mapped(values.dtype, (n + 1,) + payload),  # the payload and a zero row
        _mapped(values.dtype, (pixels,) + payload),  # image
        _mapped(bool, (pixels,)),  # coverage
    )


def splat_zbuffer(points, values, k: Intrinsics, *, buffer=None):
    """Nearest-pixel z-buffer splat of camera-space points.

    values is (N, ...) per-point payload; returns (image (H, W, ...),
    coverage (H, W)). Smaller z wins; on exactly equal z the smaller source
    index wins. Two unbuffered scatter-mins over the flat pixel grid pick
    the winner: the first gives each pixel's nearest depth, the second the
    smallest source index among the points at that depth. A minimum does
    not depend on order, so neither does the result. Both run over all N
    points: a point outside the footprint, and then a point behind its
    pixel's nearest depth, is sent to a spare pixel after the last, so no
    step compresses. The index buffer is the image: one gather from the
    payload extended by a zero row, which index n (an uncovered pixel)
    reads.

    buffer is splat_work(M, values, k), M >= N, of which the splat uses the
    first N point entries. Every step but the read of its source indices
    writes into its arrays; the image and coverage are views of its last
    two, valid until its next use, or of a tuple of its own without one.
    """
    h, w = k.height, k.width
    n, pixels = len(points), h * w
    if len(values) != n:
        raise ValueError(f"payload has {len(values)} rows for {n} points")
    if buffer is None:
        buffer = splat_work(n, values, k)
    cols, front, keep, test, lin, source, zbuf, ibuf, ext, image, coverage = buffer
    cols, front, keep, test, lin, source = cols[:, :n], front[:n], keep[:n], test[:n], lin[:n], source[:n]
    uv, _ = pinhole(points, k, buffer=(cols, front))
    in_image(uv, k, buffer=(keep, test))
    keep &= front
    u, v = cols
    np.floor(np.add(cols, 0.5, out=cols), out=cols)  # round half up, deterministically
    keep &= np.less(u, w, out=test)  # u = W - 0.5 is in the footprint but rounds to column W
    keep &= np.less(v, h, out=test)
    np.logical_not(keep, out=test)
    np.copyto(u, 0.0, where=test)  # dropped points go to the spare pixel, row H, column 0
    np.copyto(v, h, where=test)
    np.add(np.multiply(v, w, out=v), u, out=lin, casting="unsafe")  # exact: whole numbers below 2^53
    z = points[:, 2]

    zbuf.fill(np.inf)
    with np.errstate(invalid="ignore"):  # a NaN z is a dropped point's, and reaches only the spare pixel
        np.minimum.at(zbuf, lin, z)
    # mode="clip" writes into out directly (the default mode buffers it); no index is out of range
    np.not_equal(z, np.take(zbuf, lin, out=u, mode="clip"), out=test)
    np.copyto(lin, pixels, where=test)  # only the points at their pixel's nearest depth stay
    ibuf.fill(n)  # n marks an uncovered pixel
    np.minimum.at(ibuf, lin, source)
    ext[:n] = values
    ext[n] = 0
    np.take(ext, ibuf[:pixels], axis=0, out=image, mode="clip")
    np.less(ibuf[:pixels], n, out=coverage)
    return image.reshape((h, w) + values.shape[1:]), coverage.reshape(h, w)


def render_preview(frame0: RgbdFrame, path: CameraPath, threads: int = 1) -> PreviewFrames:
    """Render the RGBD cloud of frame 0 under every motion of the path.

    Each of min(threads, T) workers renders every frame of its share (every
    workers-th frame) in one set of working arrays, each mapped on its own
    once per call, so no frame allocates memory the size of the image.
    """
    k = frame0.intrinsics
    h, w = k.height, k.width
    n = h * w
    uv = grid_sample_uv(h, w, k)
    p0 = unproject(uv, frame0.depth.ravel(), k)  # coordinate-major, as apply reads fastest
    # One little-endian word per point: its RGB bytes XOR BACKGROUND, then a
    # zero byte. XORing the splat's words with BACKGROUND's word restores the
    # colours, and turns the zero sentinel of an uncovered pixel into BACKGROUND.
    rgbx = np.zeros((n, 4), dtype=np.uint8)
    rgbx[:, :3] = frame0.rgb.reshape(-1, 3) ^ BACKGROUND
    words = rgbx.view("<u4").ravel()
    background = int.from_bytes(BACKGROUND.tobytes(), "little")

    t = len(path)
    frames = np.empty((t, h, w, 3), dtype=np.uint8)
    coverage = np.empty((t, h, w), dtype=bool)
    workers = min(threads, t)
    work = [(_mapped(float, (3, n)), _mapped(float, (n,)), splat_work(n, words, k)) for _ in range(workers)]

    def render_frames(worker):
        cols, term, splat = work[worker]
        for lam in range(worker, t, workers):
            image, cov = splat_zbuffer(apply(path[lam], p0, buffer=(cols, term)), words, k, buffer=splat)
            image ^= background
            for c in range(3):  # one byte plane at a time: faster than one 3-of-4-byte strided copy
                frames[lam, ..., c] = image.view(np.uint8).reshape(h, w, 4)[..., c]
            coverage[lam] = cov

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(render_frames, range(workers)))
    return PreviewFrames(frames, coverage)
