"""Camera-space geometry: rotations, rigid motions, pinhole projection.

It owns the package's one rigid transport (`apply`), pinhole model with
camera-front test (`pinhole`) and image-footprint test (`in_image`); only
the rigid fit projects on its own, to reuse x/z in its Jacobian.

Conventions used throughout the package:
  - camera axes: x right, y down, z forward (optical axis)
  - pixel axes: u rightward, v downward; integer coordinates are pixel centers
  - rotation matrices are 3x3 row-major and act on column vectors (R @ p)
  - points are float arrays of shape (..., 3), pixels of shape (..., 2);
    apply and pinhole compute them column by column and return views of
    coordinate-major (3, ...) or (2, ...) buffers
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Points with z below this cannot be projected; near-camera points are
# treated as invalid data rather than allowed to blow up the division.
Z_MIN = 1e-6

# Below this angle the closed-form Rodrigues coefficients are replaced by
# their Taylor expansions (error < 1e-24 relative at the crossover).
_SMALL_ANGLE = 1e-4

_INTRINSICS_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0.0 < self.fx < math.inf and 0.0 < self.fy < math.inf):
            raise ValueError(f"focal lengths must be finite and positive, got {self.fx}, {self.fy}")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image dimensions must be positive")
        if not (0.0 <= self.cx < self.width and 0.0 <= self.cy < self.height):
            raise ValueError("principal point outside image")

    @classmethod
    def from_dict(cls, d: dict) -> "Intrinsics":
        """Parse the canonical JSON object; unknown keys are rejected."""
        unknown = sorted(set(d) - set(_INTRINSICS_KEYS))
        if unknown:
            raise ValueError(f"unknown intrinsics keys: {unknown}")
        missing = sorted(set(_INTRINSICS_KEYS) - set(d))
        if missing:
            raise ValueError(f"missing intrinsics keys: {missing}")
        for dim in ("width", "height"):
            if d[dim] != int(d[dim]):
                raise ValueError(f"{dim} must be an integer")
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=int(d["width"]),
            height=int(d["height"]),
        )

    def to_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
        }


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """Rotation + translation applied to first-frame points: p -> R @ p + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rigid motion needs a 3x3 rotation and a 3-vector translation")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("non-finite rigid motion")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(np.eye(3), np.zeros(3))

    def is_identity(self) -> bool:
        return np.array_equal(self.rotation, np.eye(3)) and not self.translation.any()


def hat(w) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: hat(w) @ p == cross(w, p)."""
    wx, wy, wz = (float(c) for c in w)
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def so3_exp(axis_angle) -> np.ndarray:
    """Rodrigues rotation from an axis-angle vector (angle = vector norm)."""
    w = np.asarray(axis_angle, dtype=float)
    if w.shape != (3,):
        raise ValueError("axis-angle must be a 3-vector")
    theta_sq = float(w @ w)
    theta = math.sqrt(theta_sq)
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta_sq / 6.0 + theta_sq * theta_sq / 120.0
        b = 0.5 - theta_sq / 24.0 + theta_sq * theta_sq / 720.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta_sq
    k = hat(w)
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (inverse of so3_exp below pi)."""
    r = np.asarray(r, dtype=float)
    trace = float(np.trace(r))
    if trace <= -1.0 + 1e-12:
        raise ValueError("log undefined at angle pi")
    skew = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    s = 0.5 * float(np.linalg.norm(skew))  # sin(theta), >= 0 for theta in [0, pi)
    c = 0.5 * (trace - 1.0)                # cos(theta)
    theta = math.atan2(s, c)
    if theta < _SMALL_ANGLE:
        # theta / (2 sin theta) expanded around 0
        return (0.5 + theta * theta / 12.0) * skew
    if c > -0.9:
        return (theta / (2.0 * s)) * skew
    # Near pi the skew part degrades; recover the axis from the symmetric
    # part (1 - cos) * n n^T and take its sign from the skew part.
    outer = 0.5 * (r + r.T) - c * np.eye(3)
    nn = outer / (1.0 - c)
    j = int(np.argmax(np.diag(nn)))
    axis = nn[:, j] / math.sqrt(nn[j, j])
    if float(axis @ skew) < 0.0:
        axis = -axis
    return theta * axis


def so3_right_jacobian(axis_angle) -> np.ndarray:
    """Right Jacobian of so3_exp: exp(w + d) ~ exp(w) exp(J_r(w) d)."""
    w = np.asarray(axis_angle, dtype=float)
    theta_sq = float(w @ w)
    theta = math.sqrt(theta_sq)
    if theta < _SMALL_ANGLE:
        b = 0.5 - theta_sq / 24.0 + theta_sq * theta_sq / 720.0
        c = 1.0 / 6.0 - theta_sq / 120.0 + theta_sq * theta_sq / 5040.0
    else:
        b = (1.0 - math.cos(theta)) / theta_sq
        c = (theta - math.sin(theta)) / (theta_sq * theta)
    k = hat(w)
    return np.eye(3) - b * k + c * (k @ k)


def is_rotation(r: np.ndarray, atol: float = 1e-9) -> bool:
    """Orthonormality and unit determinant within an entrywise tolerance."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.isfinite(r).all():
        return False
    if not np.allclose(r.T @ r, np.eye(3), rtol=0.0, atol=atol):
        return False
    return abs(float(np.linalg.det(r)) - 1.0) <= atol


def pinhole(points, k: Intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection without raising: (uv, front) over (..., 3) points.

    front is z >= Z_MIN; uv is undefined (possibly inf or nan) where front
    is False. uv is computed as fx·x / z + cx (and fy·y / z + cy) from whole
    columns and returned as a view of a (2, ...) buffer.
    """
    p = np.asarray(points, dtype=float)
    z = p[..., 2]
    cols = np.empty((2,) + z.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (f, c) in enumerate(((k.fx, k.cx), (k.fy, k.cy))):
            col = cols[i, ...]  # a writable view even for a single point
            np.multiply(f, p[..., i], out=col)
            col /= z
            col += c
    return np.moveaxis(cols, 0, -1), z >= Z_MIN


def project(points, k: Intrinsics) -> np.ndarray:
    """Pinhole projection of camera-space points to pixel coordinates."""
    p = np.asarray(points, dtype=float)
    if np.any(p[..., 2] < Z_MIN):
        raise ValueError("point at or behind camera")
    return pinhole(p, k)[0]


def in_image(uv, k: Intrinsics) -> np.ndarray:
    """Image-footprint test; pixel areas reach half a pixel past the centers."""
    u = uv[..., 0]
    v = uv[..., 1]
    return (u >= -0.5) & (u <= k.width - 0.5) & (v >= -0.5) & (v <= k.height - 0.5)


def unproject(px, depth, k: Intrinsics) -> np.ndarray:
    """Lift pixel coordinates at the given depth back to camera space."""
    uv = np.asarray(px, dtype=float)
    d = np.asarray(depth, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("non-positive depth")
    out = np.empty(uv.shape[:-1] + (3,))
    out[..., 0] = (uv[..., 0] - k.cx) / k.fx * d
    out[..., 1] = (uv[..., 1] - k.cy) / k.fy * d
    out[..., 2] = d
    return out


def apply(m: RigidMotion, points) -> np.ndarray:
    """Transform points by a rigid motion: R @ p + t, vectorized over (..., 3).

    Each output coordinate is computed from whole coordinate columns as
    ((r[i,0]·x + r[i,2]·z) + r[i,1]·y) + t[i], rounding after every
    operation. That is the order in which numpy's einsum sums a contiguous
    (x, y, z) triple (its SIMD kernel adds lanes 0 and 2 before lane 1), so
    the result equals, bit for bit, the einsum transport of row-major points
    that the recorded output files were made with, whatever the layout of
    `points`. (einsum itself sums strided triples in another order.) Matmul
    stays out: BLAS fuses multiply-adds, which changes the last bits.
    Columns are read fastest when contiguous, as in the transpose of a
    (3, N) array. The result is a view of a (3, ...) buffer.
    """
    p = np.asarray(points, dtype=float)
    r, t = m.rotation, m.translation
    cols = np.empty((3,) + p.shape[:-1])
    term = np.empty(p.shape[:-1])
    for i in range(3):
        col = cols[i, ...]  # a writable view even for a single point
        np.multiply(r[i, 0], p[..., 0], out=col)
        col += np.multiply(r[i, 2], p[..., 2], out=term)
        col += np.multiply(r[i, 1], p[..., 1], out=term)
        col += t[i] + 0.0  # einsum's sum is never -0.0, so a -0.0 shift acts as +0.0
    return np.moveaxis(cols, 0, -1)


def compose(outer: RigidMotion, inner: RigidMotion) -> RigidMotion:
    """Motion equal to applying `inner` first, then `outer`."""
    return RigidMotion(
        outer.rotation @ inner.rotation,
        outer.rotation @ inner.translation + outer.translation,
    )


def geodesic_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Rotation-manifold distance: arccos((trace(a^T b) - 1) / 2), in [0, pi]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = 0.5 * (float(np.trace(a.T @ b)) - 1.0)
    return math.acos(min(1.0, max(-1.0, c)))
