"""Control-signal construction: trajectory channels, motion strength, packing.

The dense control signal is the projected trajectory of the first frame's
points rigidly transported by each frame's motion (two absolute-pixel
channels) plus a per-frame scalar motion strength tiled to a third channel.
Training-side signals come from trajectory fields; inference-side signals
come from a first-frame depth map, a user camera path, and a user strength.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import Intrinsics, RigidMotion, apply, in_image, pinhole, unproject
from camsig.geometry import check_first_depth
from camsig.trajfield import ResidualField, TrajectoryField, grid_sample_uv


@dataclass(eq=False)
class TrajectoryChannels:
    """(T, 2, H, W) projected point positions, channel 0 = u, channel 1 = v.

    Entries whose transported point leaves the view frustum hold the last
    valid frame's value and are flagged invalid in `valid` (T, H, W).
    """

    channels: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.channels.ndim != 4 or self.channels.shape[1] != 2:
            raise ValueError("channels must have shape (T, 2, H, W)")
        t, _, h, w = self.channels.shape
        if self.valid.shape != (t, h, w):
            raise ValueError("validity shape does not match channels")


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
    """(T, 3, H, W) packed control signal: u, v, tiled motion strength.

    `last_frame_valid` carries the frustum mask of the final frame's
    channels, matching what the binary format stores.
    """

    data: np.ndarray
    last_frame_valid: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.dtype != np.float32:
            self.data = self.data.astype(float, copy=False)
        self.last_frame_valid = np.asarray(self.last_frame_valid, dtype=bool)
        if self.data.ndim != 4 or self.data.shape[1] != 3:
            raise ValueError("control tensor must have shape (T, 3, H, W)")
        if self.last_frame_valid.shape != self.data.shape[2:]:
            raise ValueError("validity mask shape does not match tensor")

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]


BLOCK = 16_384  # points per transport step: its temporaries stay in cache


def _transport_channels(p0, motions, k: Intrinsics, out: np.ndarray) -> np.ndarray:
    """Project rigid transports of p0 into out (T, 2, N); return the (T, N) validity.

    An invalid entry holds the previous frame's value before the float64
    frame is cast to out's dtype, so no out-of-image value is ever cast.
    Each frame runs in blocks of BLOCK points; every step is elementwise.
    """
    valid = np.empty((len(motions), p0.shape[0]), dtype=bool)
    for lam, m in enumerate(motions):
        for b in (slice(s, s + BLOCK) for s in range(0, p0.shape[0], BLOCK)):
            uv, front = pinhole(apply(m, p0[b]), k)
            valid[lam, b] = ok = front & in_image(uv, k)
            frame = uv.T
            if lam:
                np.copyto(frame, out[lam - 1, :, b], where=~ok)
            out[lam, :, b] = frame
    return valid


def point_trajectory(field: TrajectoryField, motions: Sequence[RigidMotion]) -> TrajectoryChannels:
    """Trajectory channels of the field's frame-0 grid under the motions."""
    path = CameraPath(motions)
    t, gh, gw = field.num_frames, field.grid_h, field.grid_w
    if len(path) != t:
        raise ValueError("frame count mismatch")
    channels = np.empty((t, 2, gh, gw))
    valid = _transport_channels(field.positions[0], path.motions, field.intrinsics, channels.reshape(t, 2, -1))
    return TrajectoryChannels(channels, valid.reshape(t, gh, gw))


def motion_strength(g: ResidualField) -> MotionStrengthSeries:
    """Mean residual speed per frame: adjacent-frame residual differences.

    Frame 0 is zero by definition; each later frame averages the residual
    step length over points valid at both the frame and its predecessor.
    """
    t = g.num_frames
    m = np.zeros(t)
    no_overlap = np.zeros(t, dtype=bool)
    for lam in range(1, t):
        both = g.valid[lam] & g.valid[lam - 1]
        if not both.any():
            no_overlap[lam] = True
            continue
        step = g.g[lam][both] - g.g[lam - 1][both]
        m[lam] = float(np.linalg.norm(step, axis=1).mean())
    return MotionStrengthSeries(m, no_overlap)


def pack_tensor(traj: TrajectoryChannels, m: MotionStrengthSeries) -> ControlTensor:
    """Concatenate trajectory channels with the tiled strength channel."""
    t = traj.channels.shape[0]
    if m.m.shape[0] != t:
        raise ValueError("frame count mismatch between channels and strength")
    data = np.empty((t, 3) + traj.channels.shape[2:])
    data[:, :2] = traj.channels
    data[:, 2] = m.m[:, None, None]
    return ControlTensor(data, traj.valid[-1].copy())


def unpack_tensor(ct: ControlTensor) -> tuple[np.ndarray, np.ndarray]:
    """Split a packed tensor back into (T, 2, H, W) channels and (T,) strength."""
    strength_channel = ct.data[:, 2]
    m = strength_channel[:, 0, 0].copy()
    if np.any(strength_channel != m[:, None, None]):
        raise ValueError("strength channel is not constant per frame")
    return ct.data[:, :2].copy(), m


def build_inference_signal(
    depth0: np.ndarray, k: Intrinsics, path: CameraPath, m_user: float
) -> ControlTensor:
    """Inference-side control tensor from a depth map, path, and strength.

    The point set is every pixel center of depth0 lifted at its depth; the
    user strength is applied uniformly to frames 1..T-1 with frame 0 zero.
    The tensor is float32, as TCS1 stores it, and is filled frame by frame.
    """
    if not 0.0 <= m_user <= float(np.finfo(np.float32).max):  # NaN fails too
        raise ValueError(f"motion strength must be a float32 value >= 0, got {m_user}")
    depth = check_first_depth(depth0, k)
    h, w = depth.shape
    p0 = unproject(grid_sample_uv(h, w, k), depth.ravel(), k)
    data = np.empty((len(path), 3, h * w), dtype=np.float32)
    valid = _transport_channels(p0, path.motions, k, data[:, :2])
    data[0, 2] = 0.0
    data[1:, 2] = m_user
    return ControlTensor(data.reshape(-1, 3, h, w), valid[-1].reshape(h, w))


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
    for i, size in enumerate((k.width, k.height)):  # 2·u / (W - 1) - 1 in data's dtype, in place
        c = data[:, i]
        np.subtract(np.divide(np.multiply(2.0, c, out=c), size - 1.0, out=c), 1.0, out=c)
    return ControlTensor(data, ct.last_frame_valid.copy())
