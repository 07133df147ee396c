"""Discrete point-trajectory fields over the first-frame pixel grid.

A trajectory field stores, for every point of an H x W grid sampled in the
first frame, its 3D position in each frame's camera coordinate system plus
a per-frame visibility flag. The nonrigid residual of a field against a
sequence of rigid motions is the core quantity behind both the static
region extraction and the motion-strength signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import Intrinsics, RigidMotion, Z_MIN, transported


def grid_sample_uv(grid_h: int, grid_w: int, k: Intrinsics) -> np.ndarray:
    """Row-major (H*W, 2) pixel locations of an evenly spaced sample grid.

    When the grid dimensions equal the image dimensions this is exactly the
    integer pixel centers.
    """
    us = (np.arange(grid_w) + 0.5) * (k.width / grid_w) - 0.5
    vs = (np.arange(grid_h) + 0.5) * (k.height / grid_h) - 0.5
    uu, vv = np.meshgrid(us, vs)
    return np.stack([uu.ravel(), vv.ravel()], axis=1)


def hold_last_valid(values: np.ndarray, valid: np.ndarray) -> None:
    """In place along axis 0: where valid[lam] is False, values[lam] takes values[lam - 1].

    Frames fill in order, so an invalid entry holds its last valid value.
    """
    for lam in range(1, len(values)):
        np.copyto(values[lam], values[lam - 1], where=~valid[lam])


@dataclass(eq=False)
class TrajectoryField:
    """Per-frame 3D positions and visibility for the first-frame grid.

    positions:  (T, H*W, 3) camera-space coordinates, frame-major then
                row-major over the grid. Entries invisible at a frame carry
                their last visible position.
    visibility: (T, H*W) booleans; frame 0 must be fully visible.
    """

    positions: np.ndarray
    visibility: np.ndarray
    grid_h: int
    grid_w: int
    intrinsics: Intrinsics

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.visibility = np.asarray(self.visibility, dtype=bool)
        if self.positions.ndim != 3 or self.positions.shape[2] != 3:
            raise ValueError("positions must have shape (T, H*W, 3)")
        t, n, _ = self.positions.shape
        if t < 1:
            raise ValueError("field needs at least one frame")
        if n != self.grid_h * self.grid_w:
            raise ValueError("point count does not match grid dimensions")
        if self.visibility.shape != (t, n):
            raise ValueError("visibility shape does not match positions")
        if not self.visibility[0].all():
            raise ValueError("all frame-0 points must be visible")
        frames = list(zip(self.positions, self.visibility))  # one frame's visible copy at a time
        if not all(np.isfinite(p[v]).all() for p, v in frames):
            raise ValueError("non-finite visible position")
        if any((p[v, 2] < Z_MIN).any() for p, v in frames):
            raise ValueError("visible position at or behind camera")

    @property
    def num_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def num_points(self) -> int:
        return self.positions.shape[1]


@dataclass(eq=False)
class PixelPartition:
    """Static/dynamic split of the grid: True marks static pixels."""

    static_mask: np.ndarray

    def __post_init__(self):
        self.static_mask = np.asarray(self.static_mask, dtype=bool)
        if self.static_mask.ndim != 2:
            raise ValueError("static mask must be 2-D")

    @property
    def static_fraction(self) -> float:
        return float(self.static_mask.mean())


@dataclass(eq=False)
class ResidualField:
    """Nonrigid residual g of a field against per-frame rigid motions.

    g:     (T, H*W, 3); trajectory minus its rigid transport. Frame 0 is
           exactly zero.
    valid: (T, H*W) booleans mirroring the source field's visibility.
    """

    g: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.g.ndim != 3 or self.g.shape[2] != 3:
            raise ValueError("residual must have shape (T, H*W, 3)")
        if self.valid.shape != self.g.shape[:2]:
            raise ValueError("validity shape does not match residual")
        if self.g[0].any():
            raise ValueError("frame-0 residual must be exactly zero")

    @property
    def num_frames(self) -> int:
        return self.g.shape[0]


def residual_g(field: TrajectoryField, motions: Sequence[RigidMotion]) -> ResidualField:
    """Residual of the field against rigid transports of its frame-0 points.

    g[lam][i] = positions[lam][i] - (R_lam @ positions[0][i] + t_lam); entries
    invisible at a frame are computed but flagged invalid.
    """
    if len(CameraPath(motions)) != field.num_frames:
        raise ValueError("frame count mismatch")
    g = np.empty_like(field.positions)
    for lam, b, q in transported(field.positions[0], motions):
        np.subtract(field.positions[lam, b], q, out=g[lam, b])
    g[0] = 0.0  # guaranteed by the identity check; pinned against rounding
    return ResidualField(g, field.visibility.copy())
