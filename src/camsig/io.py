"""Bit-exact readers and writers for every interchange format.

Binary layouts (all multi-byte values little-endian, also on big-endian
hosts):

  depth  "TCD1": magic, u32 W, u32 H, then H*W float32 meters, row-major
  tracks "TCT1": magic, u32 T, u32 N, then T*N records of
                 (f32 u, f32 v, u8 visible), frame-major then point-major;
                 point order is the row-major first-frame grid
  tensor "TCS1": magic, u32 T, u32 C, u32 H, u32 W, then T*C*H*W float32
                 in (t, c, h, w) order, then H*W validity bytes (1 = valid)
                 for the last frame's frustum mask

Images use binary PPM (P6) and PGM (P5) with maxval 255. Correspondences
are text: one `pair_index src_u src_v dst_u dst_v` line each, pairs in
order.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from camsig.geometry import Intrinsics, Z_MIN, check_depth_size, in_image
from camsig.signal import ControlTensor
from camsig.trajfield import TrajectoryField, grid_sample_uv, hold_last_valid

MAGIC_DEPTH = b"TCD1"
MAGIC_TRACKS = b"TCT1"
MAGIC_TENSOR = b"TCS1"

_TRACK_RECORD = np.dtype([("u", "<f4"), ("v", "<f4"), ("visible", "u1")])

# PNM header after the magic: width, height and maxval as unsigned decimals,
# each after whitespace or '#' comments, then one whitespace byte before
# the raster.
_PNM_HEADER = re.compile(rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


class FormatError(ValueError):
    """A file does not conform to its declared format."""


@dataclass(eq=False)
class Tracks:
    """2D point tracks: (T, N, 2) pixel positions and (T, N) visibility."""

    uv: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        self.uv = np.asarray(self.uv, dtype=float)
        self.visible = np.asarray(self.visible, dtype=bool)
        if self.uv.ndim != 3 or self.uv.shape[2] != 2:
            raise ValueError("tracks must have shape (T, N, 2)")
        if self.visible.shape != self.uv.shape[:2]:
            raise ValueError("visibility shape does not match tracks")

    @property
    def num_frames(self) -> int:
        return self.uv.shape[0]

    @property
    def num_points(self) -> int:
        return self.uv.shape[1]


def _read_binary(file, magic: bytes, header: str, body_size) -> tuple:
    """Header fields and writable body of a magic-tagged file; body_size(*fields) is exact."""
    with open(file, "rb") as fh:  # into an uninitialised array, which readinto fills
        data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)  # 0 for a pipe
        data = data[: fh.readinto(data)]
        rest = fh.read()  # the rest of a pipe, or nothing
    if rest:
        data = np.concatenate([data, np.frombuffer(rest, dtype=np.uint8)])
    start = len(magic) + struct.calcsize(header)
    if len(data) >= len(magic) and data[: len(magic)].tobytes() != magic:
        raise FormatError("unrecognized format")
    if len(data) < start:
        raise FormatError(f"truncated at byte {len(data)}")
    fields = struct.unpack_from(header, data, len(magic))
    _check_size(data, start + body_size(*fields))
    return fields, memoryview(data)[start:]


def _check_size(data: bytes, expected: int):
    if len(data) < expected:
        raise FormatError(f"truncated at byte {len(data)}")
    if len(data) > expected:
        raise FormatError(f"size mismatch: expected {expected} bytes, got {len(data)}")


def _write_parts(file, header: bytes, *arrays) -> None:
    """Write the header, then each array's C-order bytes from its own buffer: no joined copy."""
    with open(file, "wb") as fh:
        fh.write(header)
        for array in arrays:
            fh.write(np.ascontiguousarray(array))


def write_depth(file, depth: np.ndarray) -> None:
    d = np.asarray(depth)
    if d.ndim != 2:
        raise ValueError("depth map must be 2-D")
    h, w = d.shape
    _write_parts(file, MAGIC_DEPTH + struct.pack("<II", w, h), np.asarray(d, dtype="<f4"))


def read_depth(file) -> np.ndarray:
    """Read a depth map as float64; zero entries are hole sentinels."""
    (w, h), body = _read_binary(file, MAGIC_DEPTH, "<II", lambda w, h: 4 * w * h)
    values = np.frombuffer(body, dtype="<f4")
    ok = np.isfinite(values) & (values >= 0.0)
    if not ok.all():
        raise FormatError(f"invalid depth value at sample {int(np.argmin(ok))}")
    return values.astype(float).reshape(h, w)


def write_tracks(file, tracks: Tracks) -> None:
    t, n = tracks.num_frames, tracks.num_points
    records = np.empty(t * n, dtype=_TRACK_RECORD)
    records["u"] = tracks.uv[..., 0].astype("<f4").ravel()
    records["v"] = tracks.uv[..., 1].astype("<f4").ravel()
    records["visible"] = tracks.visible.astype("u1").ravel()
    _write_parts(file, MAGIC_TRACKS + struct.pack("<II", t, n), records)


def read_tracks(file) -> Tracks:
    (t, n), body = _read_binary(
        file, MAGIC_TRACKS, "<II", lambda t, n: _TRACK_RECORD.itemsize * t * n
    )
    records = np.frombuffer(body, dtype=_TRACK_RECORD)
    vis_bytes = records["visible"]
    bad = (vis_bytes > 1).nonzero()[0]
    if bad.size:
        raise FormatError(f"invalid visibility byte at record {int(bad[0])}")
    uv = np.stack([records["u"], records["v"]], axis=1, dtype=float).reshape(t, n, 2)  # no float32 copy
    if not np.isfinite(uv).all():
        raise FormatError("non-finite track coordinate")
    return Tracks(uv, vis_bytes.astype(bool).reshape(t, n))


def write_tensor(file, ct: ControlTensor) -> None:
    t, c, h, w = ct.data.shape
    _write_parts(
        file,
        MAGIC_TENSOR + struct.pack("<IIII", t, c, h, w),
        np.asarray(ct.data, dtype="<f4"),
        np.asarray(ct.last_frame_valid, dtype="u1"),
    )


def read_tensor(file) -> ControlTensor:
    (t, c, h, w), body = _read_binary(
        file, MAGIC_TENSOR, "<IIII", lambda t, c, h, w: 4 * t * c * h * w + h * w
    )
    if c != 3:
        raise FormatError(f"expected 3 channels, got {c}")
    count = t * c * h * w
    values = np.frombuffer(body, dtype="<f4", count=count)
    mask = np.frombuffer(body, dtype="u1", offset=4 * count)
    bad = (mask > 1).nonzero()[0]
    if bad.size:
        raise FormatError(f"invalid validity byte at pixel {int(bad[0])}")
    return ControlTensor(values.reshape(t, c, h, w), mask.astype(bool).reshape(h, w))


def _read_pnm(file, magic: bytes, channels: int) -> np.ndarray:
    data = Path(file).read_bytes()
    if len(data) < 2:
        raise FormatError(f"truncated at byte {len(data)}")
    if data[:2] != magic:
        raise FormatError("unrecognized format")
    header = _PNM_HEADER.match(data, 2)
    if header is None:
        raise FormatError("malformed header: expected width, height and maxval as unsigned decimals")
    w, h, maxval = (int(field) for field in header.groups())
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}")
    _check_size(data, header.end() + w * h * channels)
    raster = np.frombuffer(data, dtype=np.uint8, offset=header.end())
    return raster.reshape((h, w, channels) if channels > 1 else (h, w)).copy()


def read_ppm(file) -> np.ndarray:
    return _read_pnm(file, b"P6", 3)


def write_ppm(file, rgb: np.ndarray) -> None:
    img = np.asarray(rgb, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("ppm image must have shape (H, W, 3)")
    h, w = img.shape[:2]
    _write_parts(file, f"P6\n{w} {h}\n255\n".encode(), img)


def read_pgm(file) -> np.ndarray:
    return _read_pnm(file, b"P5", 1)


def write_pgm(file, gray: np.ndarray) -> None:
    img = np.asarray(gray, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("pgm image must have shape (H, W)")
    h, w = img.shape
    _write_parts(file, f"P5\n{w} {h}\n255\n".encode(), img)


def write_correspondences(file, pairs) -> None:
    lines = []
    for i, (src, dst) in enumerate(pairs):
        s = np.asarray(src, dtype=float)
        d = np.asarray(dst, dtype=float)
        for (su, sv), (du, dv) in zip(s.tolist(), d.tolist()):
            lines.append(f"{i} {su!r} {sv!r} {du!r} {dv!r}")
    Path(file).write_text("\n".join(lines) + "\n")


def read_correspondences(file):
    """Parse correspondence text into one (src, dst) array pair per index."""
    pairs: list[tuple[list, list]] = []
    for ln, line in enumerate(Path(file).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise FormatError(f"line {ln}: expected 5 fields, got {len(tokens)}")
        try:
            idx = int(tokens[0])
            su, sv, du, dv = (float(tok) for tok in tokens[1:])
        except ValueError:
            raise FormatError(f"line {ln}: invalid number") from None
        if not all(math.isfinite(x) for x in (su, sv, du, dv)):
            raise FormatError(f"line {ln}: non-finite coordinate")
        if idx == len(pairs):
            pairs.append(([], []))
        elif not 0 <= idx == len(pairs) - 1:
            raise FormatError(f"line {ln}: pair indices must start at 0, ordered and contiguous")
        pairs[idx][0].append((su, sv))
        pairs[idx][1].append((du, dv))
    return [(np.array(src), np.array(dst)) for src, dst in pairs]


def _bilinear_depth(img: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Bilinear depth samples at clamped positions, with hole detection.

    A sample is invalid if any neighbor that contributes weight is a hole
    (depth below Z_MIN), so hole sentinels never blend into real depths.
    """
    h, w = img.shape
    uc = np.clip(u, 0.0, w - 1.0)
    vc = np.clip(v, 0.0, h - 1.0)
    x0 = np.floor(uc).astype(np.int64)
    y0 = np.floor(vc).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = uc - x0
    fy = vc - y0
    values, holed, flat = 0.0, False, img.ravel()
    for y, wy in ((y0 * w, 1.0 - fy), (y1 * w, fy)):  # row offsets into the flat image
        for x, wx in ((x0, 1.0 - fx), (x1, fx)):
            weight, n = wx * wy, np.take(flat, y + x)
            values += weight * n
            holed |= (weight > 1e-12) & (n < Z_MIN)
    return values, ~holed & (values >= Z_MIN)


def _infer_grid(uv0: np.ndarray) -> tuple[int, int]:
    """Recover (H, W) from row-major frame-0 grid positions."""
    n = uv0.shape[0]
    off_row = np.flatnonzero(np.abs(uv0[:, 1] - uv0[:1, 1]) > 0.25)  # n == 0 gives gw = 0
    gw = int(off_row[0]) if off_row.size else n
    if gw < 1 or n % gw != 0:
        raise ValueError("frame-0 tracks do not form a row-major grid")
    return n // gw, gw


def assemble_field(depths: Sequence[np.ndarray], tracks: Tracks, k: Intrinsics) -> TrajectoryField:
    """The field of 2D tracks and the bilinear depth sample at each track pixel.

    A visible track inside the image footprint samples its frame's depth map
    at its own position (clamped in the half-pixel margin past the outer
    pixel centers); a track outside the footprint, or a hole or non-positive
    sample, marks the entry invisible. Invisible entries carry the last
    visible pixel and depth. Assembly consumes the tracks: the field takes
    over tracks.uv as its pixels and holds them in place.
    """
    t, n = tracks.num_frames, tracks.num_points
    if len(depths) != t:
        raise ValueError("frame count mismatch")
    depths = [check_depth_size(d, k) for d in depths]
    if not tracks.visible[0].all():
        raise ValueError("frame-0 track marked invisible")

    gh, gw = _infer_grid(tracks.uv[0])
    expected = grid_sample_uv(gh, gw, k)
    if np.max(np.abs(tracks.uv[0] - expected)) > 0.5:
        raise ValueError("frame-0 tracks not on the sample grid")

    depth = np.empty((t, n))  # every entry is sampled or held
    visibility = np.zeros((t, n), dtype=bool)
    for lam in range(t):
        tracked = tracks.visible[lam] & in_image(tracks.uv[lam], k)
        uv = tracks.uv[lam][tracked]
        sample, ok = _bilinear_depth(depths[lam], uv[:, 0], uv[:, 1])
        vis = visibility[lam]
        vis[tracked] = ok
        if lam == 0 and not vis.all():
            raise ValueError("frame-0 track has no valid depth")
        depth[lam][vis] = sample[ok]
        window = slice(max(lam - 1, 0), lam + 1)  # frame lam holds from frame lam - 1, once sampled
        hold_last_valid(tracks.uv[window], visibility[window, :, None])
        hold_last_valid(depth[window], visibility[window])
    return TrajectoryField(tracks.uv, depth, visibility, gh, gw, k)
