"""Control-signal construction: motion strength and the control tensor.

The dense control signal is the projected trajectory of the first frame's
points rigidly transported by each frame's motion (two absolute-pixel
channels) plus a per-frame scalar motion strength tiled to a third channel.
`control_tensor` builds it in float32 for training signals (a trajectory
field) and inference signals (a depth map, a camera path, a user strength).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import FLOAT32_MAX, Intrinsics, RigidMotion, in_image, pinhole, transported, unproject
from camsig.geometry import check_first_depth
from camsig.trajfield import ResidualField, TrajectoryField, grid_sample_uv, residual_frames


@dataclass(eq=False)
class MotionStrengthSeries:
    """Per-frame mean residual speed; m[0] is exactly zero.

    `no_overlap` flags frames where no point was valid at both the frame and
    its predecessor; the strength is forced to zero there.
    """

    m: np.ndarray
    no_overlap: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        self.no_overlap = np.asarray(self.no_overlap, dtype=bool)
        if self.m.ndim != 1 or self.no_overlap.shape != self.m.shape:
            raise ValueError("strength series must be 1-D with matching flags")
        if self.m[0] != 0.0:
            raise ValueError("frame-0 motion strength must be zero")
        if not np.isfinite(self.m).all():
            raise ValueError("motion strength must be finite")
        if np.any(self.m < 0.0):
            raise ValueError("motion strength must be non-negative")


@dataclass(eq=False)
class ControlTensor:
    """(T, 3, H, W) float32 control signal: u, v, tiled motion strength.

    `last_frame_valid` carries the frustum mask of the final frame's
    channels, matching what the binary format stores.
    """

    data: np.ndarray
    last_frame_valid: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        self.last_frame_valid = np.asarray(self.last_frame_valid, dtype=bool)
        if self.data.ndim != 4 or self.data.shape[1] != 3:
            raise ValueError("control tensor must have shape (T, 3, H, W)")
        if self.last_frame_valid.shape != self.data.shape[2:]:
            raise ValueError("validity mask shape does not match tensor")

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]


def _transport_channels(p0, motions, k: Intrinsics, out: np.ndarray) -> np.ndarray:
    """Project rigid transports of p0 into out (T, 2, N); return the last frame's (N,) validity.

    An invalid entry holds the previous frame's value before the float64
    frame is cast to out's dtype, so no out-of-image value is ever cast.
    """
    valid = np.empty(p0.shape[0], dtype=bool)  # each frame overwrites the last
    for lam, b, q in transported(p0, motions):
        uv, front = pinhole(q, k)
        valid[b] = ok = front & in_image(uv, k)
        frame = uv.T
        if lam:
            np.copyto(frame, out[lam - 1, :, b], where=~ok)
        out[lam, :, b] = frame
    return valid


def _checked_strength(m) -> np.ndarray:
    """m as float64, once every value is known to fit the float32 strength channel."""
    m = np.asarray(m, dtype=float)
    bad = ~((m >= 0.0) & (m <= FLOAT32_MAX))  # NaN fails too
    if bad.any():
        raise ValueError(f"motion strength must be a float32 value >= 0, got {m[bad][0]}")
    return m


def control_tensor(p0, motions: Sequence[RigidMotion], k: Intrinsics, m, grid) -> ControlTensor:
    """Control tensor of the points p0 (N, 3) under the motions, with strength m.

    m is the (T,) strength series, tiled into channel 2, and grid is the
    (H, W) layout of the N points. The tensor is float32, as TCS1 stores
    it, and is filled frame by frame; m is range-checked before any cast.
    """
    motions = CameraPath(motions).motions
    m = _checked_strength(m)
    if m.shape != (len(motions),):
        raise ValueError("frame count mismatch between motions and strength")
    data = np.empty((len(motions), 3, p0.shape[0]), dtype=np.float32)
    valid = _transport_channels(p0, motions, k, data[:, :2])
    data[:, 2] = m[:, None]
    return ControlTensor(data.reshape(-1, 3, *grid), valid.reshape(grid))


def _strength(frames, valid) -> MotionStrengthSeries:
    """Mean residual speed of the residual frames (lam, g[lam]), yielded in frame order.

    Frame 0 is zero by definition; each later frame averages the residual
    step length over points valid at both the frame and its predecessor;
    each step overwrites the predecessor's array.
    """
    m, no_overlap = np.zeros(len(valid)), np.zeros(len(valid), dtype=bool)
    for lam, g in frames:
        both = valid[lam] & valid[lam - 1]  # frame 0 has no predecessor: unread
        no_overlap[lam] = lam > 0 and not both.any()
        if lam > 0 and not no_overlap[lam]:  # np.linalg.norm's operations, rows gathered after the sum
            step = np.subtract(g, prev, out=prev)
            m[lam] = float(np.sqrt(np.add.reduce(np.multiply(step, step, out=step), axis=1)[both]).mean())
        prev = g
    return MotionStrengthSeries(m, no_overlap)


def motion_strength(g: ResidualField) -> MotionStrengthSeries:
    """Mean residual speed per frame: adjacent-frame residual differences, g left unchanged."""
    return _strength(((lam, frame.copy()) for lam, frame in enumerate(g.g)), g.valid)


def field_strength(field: TrajectoryField, motions: Sequence[RigidMotion]) -> MotionStrengthSeries:
    """motion_strength(residual_g(field, motions)), holding two residual frames at a time."""
    pair = np.empty((2, field.num_points, 3))
    return _strength(residual_frames(field, motions, lambda lam: pair[lam % 2]), field.visibility)


# point_trajectory and pack_tensor are kept only for perfbench: its segment
# workloads call both, and its tracer patches pack_tensor by name. ROADMAP
# item 1's benchmark-only change deletes them.
def point_trajectory(field: TrajectoryField, motions: Sequence[RigidMotion]) -> ControlTensor:
    """The field's control tensor with a zero strength channel."""
    grid = (field.grid_h, field.grid_w)
    return control_tensor(field.points0, motions, field.intrinsics, np.zeros(field.num_frames), grid)


def pack_tensor(ct: ControlTensor, m: MotionStrengthSeries) -> ControlTensor:
    """Fill ct's strength channel with the series, in place, and return ct."""
    ct.data[:, 2] = _checked_strength(m.m)[:, None, None]
    return ct


def build_inference_signal(
    depth0: np.ndarray, k: Intrinsics, path: CameraPath, m_user: float
) -> ControlTensor:
    """Inference-side control tensor from a depth map, path, and strength.

    The point set is every pixel center of depth0 lifted at its depth; the
    user strength is applied uniformly to frames 1..T-1 with frame 0 zero.
    """
    m = np.full(len(path), _checked_strength(m_user))  # checked here: a one-frame path never holds it
    m[0] = 0.0
    depth = check_first_depth(depth0, k)
    h, w = depth.shape
    p0 = unproject(grid_sample_uv(h, w, k), depth.ravel(), k)
    return control_tensor(p0, path.motions, k, m, (h, w))


def normalize_tensor(ct: ControlTensor, k: Intrinsics) -> ControlTensor:
    """Map the pixel-coordinate channels to [-1, 1]; presentation only.

    The map 2·u / (W - 1) - 1 needs an image at least two pixels wide and
    tall.
    """
    if k.width < 2 or k.height < 2:
        raise ValueError(
            f"normalized coordinates need an image at least 2x2, got {k.width}x{k.height}"
        )
    data = ct.data.copy()
    for i, size in enumerate((k.width, k.height)):  # 2·u / (W - 1) - 1 in float32, in place
        c = data[:, i]
        np.subtract(np.divide(np.multiply(2.0, c, out=c), size - 1.0, out=c), 1.0, out=c)
    return ControlTensor(data, ct.last_frame_valid.copy())
