"""Discrete point-trajectory fields over the first-frame pixel grid.

A trajectory field stores, for every point of an H x W grid sampled in the
first frame, its tracked pixel, depth and visibility in each frame, and
lifts them to camera space on request. The nonrigid residual of a field
against a sequence of rigid motions is the core quantity behind both the
static region extraction and the motion-strength signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import Intrinsics, RigidMotion, Z_MIN, transported, unproject


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
    """Per-frame track pixels (T, H*W, 2), depths (T, H*W) and visibility (T, H*W).

    Entries run frame-major, then row-major over the first-frame grid. Frame
    0 is fully visible; an invisible entry holds its last visible pixel and
    depth. Each frame's pixels and depths, held ones too, must be finite with
    depths >= Z_MIN. points0 lifts frame 0 once; `lift` lifts any frame or block.
    """

    pixels: np.ndarray
    depth: np.ndarray
    visibility: np.ndarray
    grid_h: int
    grid_w: int
    intrinsics: Intrinsics

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        self.depth = np.asarray(self.depth, dtype=float)
        self.visibility = np.asarray(self.visibility, dtype=bool)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 2:
            raise ValueError("pixels must have shape (T, H*W, 2)")
        t, n, _ = self.pixels.shape
        if t < 1:
            raise ValueError("field needs at least one frame")
        if n != self.grid_h * self.grid_w:
            raise ValueError("point count does not match grid dimensions")
        if self.depth.shape != (t, n) or self.visibility.shape != (t, n):
            raise ValueError("depth or visibility shape does not match pixels")
        if not self.visibility[0].all():
            raise ValueError("all frame-0 points must be visible")
        if not all(np.isfinite(uv).all() and np.isfinite(d).all() for uv, d in zip(self.pixels, self.depth)):
            raise ValueError("non-finite pixel or depth")
        if any((d < Z_MIN).any() for d in self.depth):  # one frame at a time: no field-sized mask
            raise ValueError("depth at or behind camera")
        self.points0 = self.lift(0)

    def lift(self, lam: int, block=slice(None)) -> np.ndarray:
        """Camera-space points of frame lam's entries in block, unprojected at their depths."""
        return unproject(self.pixels[lam, block], self.depth[lam, block], self.intrinsics)

    @cached_property
    def positions(self) -> np.ndarray:
        """(T, H*W, 3) every frame lifted at once, for export and tests."""
        return unproject(self.pixels, self.depth, self.intrinsics)

    @property
    def num_frames(self) -> int:
        return self.pixels.shape[0]

    @property
    def num_points(self) -> int:
        return self.pixels.shape[1]


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


def residual_frames(field: TrajectoryField, motions: Sequence[RigidMotion], out):
    """Yield (lam, out(lam)) in frame order, once the (N, 3) array out(lam) holds frame lam's residual.

    g[lam][i] = p[lam][i] - (R_lam @ p[0][i] + t_lam), with p the lifted
    positions, invisible entries included, in one walk of transported.
    """
    if len(CameraPath(motions)) != field.num_frames:
        raise ValueError("frame count mismatch")
    for lam, b, q in transported(field.points0, motions):
        out(lam)[b] = field.lift(lam, b) - q if lam else 0.0  # frame 0 is exactly zero by the identity check
        if b.stop == field.num_points:
            yield lam, out(lam)


def residual_g(field: TrajectoryField, motions: Sequence[RigidMotion]) -> ResidualField:
    """The residual_frames of the field, filled into one (T, N, 3) array, with its visibility."""
    g = np.empty((field.num_frames, field.num_points, 3))
    for _ in residual_frames(field, motions, g.__getitem__):
        pass
    return ResidualField(g, field.visibility.copy())
