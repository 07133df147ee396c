"""Camera-space geometry: rotations, rigid motions, pinhole projection.

It owns the package's one rigid transport (`apply`; `transported` walks it
over frames and point blocks), pinhole model with camera-front test
(`pinhole`) and image-footprint test (`in_image`); only the rigid fit
projects on its own, to reuse x/z in its Jacobian. It also owns the JSON
file reader and writer (`read_json`, `write_json`), the typed JSON reader
(`json_object`, `json_list`, `json_number`) that every JSON input is parsed
with, and the depth-map checks against the intrinsics (`check_depth_size`,
and `check_first_depth` for the first frame).

Conventions used throughout the package:
  - camera axes: x right, y down, z forward (optical axis)
  - pixel axes: u rightward, v downward; integer coordinates are pixel centers
  - rotation matrices are 3x3 row-major and act on column vectors (R @ p)
  - points are float arrays of shape (..., 3), pixels of shape (..., 2);
    apply, pinhole and unproject compute them column by column and return
    views of coordinate-major (3, ...) or (2, ...) buffers
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Points with z below this cannot be projected; near-camera points are
# treated as invalid data rather than allowed to blow up the division.
Z_MIN = 1e-6
BLOCK = 16_384  # points per vectorized step, which bounds the size of its temporaries
FLOAT32_MAX = float(np.finfo(np.float32).max)  # the largest value the binary formats store

# Below this angle the closed-form Rodrigues coefficients are replaced by
# their Taylor expansions (error < 1e-24 relative at the crossover).
_SMALL_ANGLE = 1e-4

_INTRINSICS_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


def _got(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def read_json(file):
    """Parse a JSON file; a malformed or too deeply nested document is a ValueError."""
    try:
        return json.loads(Path(file).read_text())
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def write_json(file, doc) -> None:
    """Write a JSON document: sorted keys, two-space indent, no NaN or inf."""
    Path(file).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def json_object(doc, what: str, required, optional=()) -> dict:
    """Check that a JSON value is an object with exactly the allowed keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected an object, got {_got(doc)}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")
    return doc


def json_list(doc: dict, key: str, default=None) -> list:
    """The list doc[key], or `default` if the key is absent."""
    if key not in doc:
        return default
    if not isinstance(doc[key], list):
        raise ValueError(f"{key}: expected a list, got {_got(doc[key])}")
    return doc[key]


def _has_shape(value, shape) -> bool:
    if not shape:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return (
        isinstance(value, (list, tuple))
        and len(value) == shape[0]
        and all(_has_shape(v, shape[1:]) for v in value)
    )


def json_number(doc: dict, key: str, shape=(), integer=False, default=None):
    """Read doc[key] as a number, or as nested lists of numbers of one shape.

    JSON null and booleans are not numbers; ragged arrays are rejected. A
    float field gives a float (array); an integer field must be integral
    (16.0 reads as 16, 2.5 is rejected) and gives an int (a flat list of
    ints). Non-finite floats pass, for the caller's range checks to name.
    An absent key gives `default`; json_object checks the required keys.
    """
    if key not in doc:
        return default
    value = doc[key]
    try:
        a = np.array(value, dtype=float) if _has_shape(value, shape) else None
    except OverflowError:  # a JSON integer beyond the float range
        a = None
    if a is not None and not integer:
        return a if shape else float(a)
    if a is not None and np.isfinite(a).all() and (a == np.round(a)).all():
        return [int(x) for x in a.flat] if shape else int(a)
    one, many = ("an integer", "integers") if integer else ("a number", "numbers")
    expected = f"{'x'.join(map(str, shape))} {many}" if shape else one
    raise ValueError(f"{key}: expected {expected}, got {_got(value)}")


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
        json_object(d, "intrinsics", _INTRINSICS_KEYS)
        return cls(**{
            key: json_number(d, key, integer=key in ("width", "height"))
            for key in _INTRINSICS_KEYS
        })

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _INTRINSICS_KEYS}


def check_depth_size(depth, k: Intrinsics) -> np.ndarray:
    """A depth map as float64, checked to have the image size of k."""
    d = np.asarray(depth, dtype=float)
    if d.shape != (k.height, k.width):
        raise ValueError("depth map dimensions do not match intrinsics")
    return d


def check_first_depth(depth, k: Intrinsics) -> np.ndarray:
    """A first-frame depth map as float64: the image size of k, and no holes.

    Every pixel is lifted to a point, so every depth must be finite and
    positive; the first pixel that is not is named.
    """
    d = check_depth_size(depth, k)
    bad = np.argwhere(~((d > 0.0) & np.isfinite(d)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"depth must be finite and positive, got {d[i, j]} at pixel (row {i}, col {j})")
    return d


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


def _rodrigues(theta_sq: float) -> tuple[float, float, float]:
    """a, b, c of exp(K) = I + aK + bK² and J_r = I - bK + cK², K = [w]×, |w|² = theta_sq."""
    theta = math.sqrt(theta_sq)
    if theta < _SMALL_ANGLE:
        return (
            1.0 - theta_sq / 6.0 + theta_sq * theta_sq / 120.0,
            0.5 - theta_sq / 24.0 + theta_sq * theta_sq / 720.0,
            1.0 / 6.0 - theta_sq / 120.0 + theta_sq * theta_sq / 5040.0,
        )
    s = math.sin(theta)
    return s / theta, (1.0 - math.cos(theta)) / theta_sq, (theta - s) / (theta_sq * theta)


def so3_exp(axis_angle) -> np.ndarray:
    """Rodrigues rotation from an axis-angle vector (angle = vector norm)."""
    w = np.asarray(axis_angle, dtype=float)
    if w.shape != (3,):
        raise ValueError("axis-angle must be a 3-vector")
    return so3_exp_batch(w)[0][0]


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


def so3_exp_batch(axis_angles) -> tuple[np.ndarray, np.ndarray]:
    """Rotations and right Jacobians of (F, 3) axis-angle rows, each (F, 3, 3).

    The one Rodrigues map (so3_exp is a batch of one), with the right
    Jacobian J_r(w) of exp(w + d) ~ exp(w) exp(J_r(w) d).
    """
    w = np.asarray(axis_angles, dtype=float).reshape(-1, 3)
    a, b, c = np.array([_rodrigues(float(wi @ wi)) for wi in w]).T[:, :, None, None]
    k = np.zeros((len(w), 3, 3))
    k[:, 2, 1], k[:, 0, 2], k[:, 1, 0] = w.T
    k -= k.transpose(0, 2, 1).copy()  # [w]× per row
    kk = k @ k
    return np.eye(3) + a * k + b * kk, np.eye(3) - b * k + c * kk


def is_rotation(r: np.ndarray, atol: float = 1e-9) -> bool:
    """Orthonormality and unit determinant within an entrywise tolerance."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.isfinite(r).all():
        return False
    if not np.allclose(r.T @ r, np.eye(3), rtol=0.0, atol=atol):
        return False
    return abs(float(np.linalg.det(r)) - 1.0) <= atol


def pinhole(points, k: Intrinsics, *, buffer=None) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection without raising: (uv, front) over (..., 3) points.

    front is z >= Z_MIN; uv is undefined where front is False and ±inf
    where it overflows, which is never inside the image. uv = fx·x / z + cx
    (and fy·y / z + cy) from whole columns, as a view of a (2, ...) buffer.
    buffer is an optional (cols, front) pair, a float64 (2, ...) and a bool
    (...) array, that receives the results in place of new arrays.
    """
    p = np.asarray(points, dtype=float)
    z = p[..., 2]
    cols, front = buffer if buffer is not None else (np.empty((2,) + z.shape), None)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, (f, c) in enumerate(((k.fx, k.cx), (k.fy, k.cy))):
            col = cols[i, ...]  # a writable view even for a single point
            np.multiply(f, p[..., i], out=col)
            col /= z
            col += c
    return np.moveaxis(cols, 0, -1), np.greater_equal(z, Z_MIN, out=front)


def project(points, k: Intrinsics) -> np.ndarray:
    """Pinhole projection of camera-space points to pixel coordinates."""
    p = np.asarray(points, dtype=float)
    if np.any(p[..., 2] < Z_MIN):
        raise ValueError("point at or behind camera")
    return pinhole(p, k)[0]


def in_image(uv, k: Intrinsics, *, buffer=None) -> np.ndarray:
    """Image-footprint test; pixel areas reach half a pixel past the centers.

    buffer is an optional (ok, scratch) pair of bool arrays of uv's leading
    shape: the result is written into ok.
    """
    u = uv[..., 0]
    v = uv[..., 1]
    ok, test = buffer if buffer is not None else (np.empty(u.shape, bool), np.empty(u.shape, bool))
    np.greater_equal(u, -0.5, out=ok)
    ok &= np.less_equal(u, k.width - 0.5, out=test)
    ok &= np.greater_equal(v, -0.5, out=test)
    ok &= np.less_equal(v, k.height - 0.5, out=test)
    return ok


def unproject(px, depth, k: Intrinsics) -> np.ndarray:
    """Lift pixel coordinates at the given depth back to camera space."""
    uv = np.asarray(px, dtype=float)
    d = np.asarray(depth, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("non-positive depth")
    cols = np.empty((3,) + uv.shape[:-1])
    cols[0] = (uv[..., 0] - k.cx) / k.fx * d
    cols[1] = (uv[..., 1] - k.cy) / k.fy * d
    cols[2] = d
    return np.moveaxis(cols, 0, -1)


def apply(m: RigidMotion, points, *, buffer=None) -> np.ndarray:
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
    (3, N) array. The result is a view of a (3, ...) buffer. buffer is an
    optional (cols, term) pair of float64 arrays, (3, ...) and (...): the
    result is written into cols, and term is scratch.
    """
    p = np.asarray(points, dtype=float)
    r, t = m.rotation, m.translation
    cols, term = buffer if buffer is not None else (np.empty((3,) + p.shape[:-1]), np.empty(p.shape[:-1]))
    for i in range(3):
        col = cols[i, ...]  # a writable view even for a single point
        np.multiply(r[i, 0], p[..., 0], out=col)
        col += np.multiply(r[i, 2], p[..., 2], out=term)
        col += np.multiply(r[i, 1], p[..., 1], out=term)
        col += t[i] + 0.0  # einsum's sum is never -0.0, so a -0.0 shift acts as +0.0
    return np.moveaxis(cols, 0, -1)


def transported(p0, motions):
    """Yield (lam, block, apply(motions[lam], p0[block])) in blocks of at most BLOCK points.

    The points are a view of one buffer pair reused for the whole walk, valid
    until the next step. Every step is elementwise, so blocks change no bit.
    An empty p0 gives each frame one empty block.
    """
    n = len(p0)
    cols, term = np.empty((3, min(n, BLOCK))), np.empty(min(n, BLOCK))
    for lam, m in enumerate(motions):
        for s in range(0, max(n, 1), BLOCK):
            w = min(BLOCK, n - s)
            yield lam, slice(s, s + w), apply(m, p0[s : s + w], buffer=(cols[:, :w], term[:w]))


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
