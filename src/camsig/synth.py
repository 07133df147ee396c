"""Deterministic synthetic dynamic scenes: the ground-truth test oracle.

A scene is a fronto-parallel background plane (one tracked point per image
pixel, optional per-pixel depth jitter) plus circular clusters of pixels
that move with their own camera-space motion before the camera motion is
applied. The generator returns the exact trajectory field, the true
static/dynamic partition, the analytic motion-strength series, and a
procedural first-frame texture. All randomness flows from a counter-based
Philox generator keyed by the scene seed, so identical seeds produce
bitwise-identical scenes across platforms.

Occlusion between a moving cluster and the background is not modeled in
the visibility flags: a point is visible while it stays in front of the
camera, with exact coordinates even outside the image rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import Intrinsics, RigidMotion, apply, pinhole, unproject
from camsig.trajfield import PixelPartition, TrajectoryField, grid_sample_uv


@dataclass
class DynamicObject:
    """Circular pixel cluster with an independent camera-space motion.

    Exactly one of `velocity` (constant displacement per frame) or
    `motions` (a per-frame rigid motion applied to the cluster's points)
    must be given.
    """

    center: tuple  # (u, v) pixel coordinates in frame 0
    radius: float  # pixels
    velocity: np.ndarray | None = None
    motions: list | None = None

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"object radius must be finite and positive, got {self.radius}")
        if (self.velocity is None) == (self.motions is None):
            raise ValueError("object needs exactly one of velocity or motions")
        if self.velocity is not None:
            self.velocity = np.asarray(self.velocity, dtype=float)
            if self.velocity.shape != (3,) or not np.isfinite(self.velocity).all():
                raise ValueError(f"velocity must be a finite 3-vector, got {self.velocity}")


@dataclass
class SceneSpec:
    """Scene description; grid dimensions must equal the image dimensions."""

    frames: int
    grid_h: int
    grid_w: int
    intrinsics: Intrinsics
    z_near: float
    z_far: float
    depth_jitter: float = 0.0
    objects: list = dc_field(default_factory=list)
    track_noise: float = 0.0  # pixels, i.i.d. Gaussian on observed tracks
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("scene needs at least one frame")
        if not (0.0 < self.z_near <= self.z_far < math.inf):
            raise ValueError(f"need finite 0 < z_near <= z_far, got {self.z_near}, {self.z_far}")
        for name in ("depth_jitter", "track_noise"):
            value = getattr(self, name)
            if not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.grid_h != self.intrinsics.height or self.grid_w != self.intrinsics.width:
            raise ValueError("grid dimensions must equal image dimensions")


@dataclass(eq=False)
class GroundTruth:
    field: TrajectoryField
    partition: PixelPartition
    path: CameraPath
    depth0: np.ndarray  # (H, W)
    rgb0: np.ndarray    # (H, W, 3) uint8
    true_m: np.ndarray  # (T,) analytic motion strength


def _object_masks(spec: SceneSpec, uv0: np.ndarray) -> list:
    """Pixel masks per object, first come first claimed on overlap."""
    k = spec.intrinsics
    unclaimed = np.ones(uv0.shape[0], dtype=bool)
    masks = []
    for obj in spec.objects:
        cu, cv = float(obj.center[0]), float(obj.center[1])
        if not (0.0 <= cu <= k.width - 1.0 and 0.0 <= cv <= k.height - 1.0):
            raise ValueError("object not visible in frame 0")
        d2 = (uv0[:, 0] - cu) ** 2 + (uv0[:, 1] - cv) ** 2
        m = (d2 <= obj.radius**2) & unclaimed
        if not m.any():
            raise ValueError("object not visible in frame 0")
        unclaimed &= ~m
        masks.append(m)
    return masks


def _procedural_texture(spec: SceneSpec, static: np.ndarray) -> np.ndarray:
    h, w = spec.grid_h, spec.grid_w
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[..., 0] = (255 * jj / max(w - 1, 1)).astype(np.uint8)
    rgb[..., 1] = (255 * ii / max(h - 1, 1)).astype(np.uint8)
    rgb[..., 2] = 160
    dynamic = ~static.reshape(h, w)
    rgb[dynamic] = (230, 40, 40)
    return rgb


def generate_scene(spec: SceneSpec, path: CameraPath) -> GroundTruth:
    """Build the exact field, partition, and analytic strength for a scene."""
    if len(path) != spec.frames:
        raise ValueError("path length does not match scene frame count")
    k = spec.intrinsics
    t = spec.frames
    h, w = spec.grid_h, spec.grid_w
    n = h * w
    rng = np.random.Generator(np.random.Philox(spec.seed))

    uv0 = grid_sample_uv(h, w, k)
    depth = np.full(n, 0.5 * (spec.z_near + spec.z_far))
    if spec.depth_jitter > 0.0:
        depth = depth + spec.depth_jitter * rng.uniform(-1.0, 1.0, size=n)
        np.clip(depth, spec.z_near, spec.z_far, out=depth)
    p0 = unproject(uv0, depth, k)

    masks = _object_masks(spec, uv0)
    static = np.ones(n, dtype=bool)
    for m in masks:
        static &= ~m

    # Object displacement in first-frame coordinates, applied before the
    # camera motion.
    disp = np.zeros((t, n, 3))
    for obj, m in zip(spec.objects, masks):
        if obj.velocity is not None:
            disp[:, m, :] = np.arange(t)[:, None, None] * obj.velocity
        else:
            if len(obj.motions) != t:
                raise ValueError("object motion count does not match frame count")
            for lam in range(t):
                disp[lam][m] = apply(obj.motions[lam], p0[m]) - p0[m]

    exact = np.stack([apply(m, p0 + d) for m, d in zip(path.motions, disp)])

    # A point stays visible while it is in front of the camera; points that
    # drift outside the image keep exact coordinates, like a tracker that
    # reports off-screen positions. File export narrows this to the image
    # footprint where depth maps exist.
    uv, visible = pinhole(exact, k)
    if not visible[0].all():
        raise ValueError("object not visible in frame 0")

    positions = exact.copy()
    for lam in range(1, t):
        if spec.track_noise > 0.0:
            eta = rng.normal(0.0, spec.track_noise, size=(n, 2))
            vis = visible[lam]
            positions[lam][vis] = unproject((uv[lam] + eta)[vis], exact[lam][vis, 2], k)
        bad = ~visible[lam]
        positions[lam][bad] = positions[lam - 1][bad]

    field = TrajectoryField(positions, visible, h, w, k)

    # Analytic strength from the camera-rotated object displacements; the
    # static background contributes exactly zero.
    residual = np.einsum("tij,tnj->tni", path.rotations(), disp)
    true_m = np.zeros(t)
    for lam in range(1, t):
        both = visible[lam] & visible[lam - 1]
        if both.any():
            step = residual[lam][both] - residual[lam - 1][both]
            true_m[lam] = float(np.linalg.norm(step, axis=1).mean())

    return GroundTruth(
        field=field,
        partition=PixelPartition(static.reshape(h, w)),
        path=path,
        depth0=depth.reshape(h, w),
        rgb0=_procedural_texture(spec, static),
        true_m=true_m,
    )


def scene_from_dict(doc: dict) -> SceneSpec:
    """Parse the scene JSON used by the command-line interface."""
    known = {
        "frames",
        "grid",
        "intrinsics",
        "depth_range",
        "depth_jitter",
        "objects",
        "track_noise",
        "seed",
    }
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown scene keys: {unknown}")
    for key in ("frames", "grid", "intrinsics", "depth_range"):
        if key not in doc:
            raise ValueError(f"missing scene key: {key}")
    objects = []
    for entry in doc.get("objects", []):
        obj_known = {"center", "radius", "velocity", "motions"}
        bad = sorted(set(entry) - obj_known)
        if bad:
            raise ValueError(f"unknown object keys: {bad}")
        motions = None
        if "motions" in entry:
            motions = [
                RigidMotion(np.asarray(m["R"], dtype=float), np.asarray(m["t"], dtype=float))
                for m in entry["motions"]
            ]
        objects.append(
            DynamicObject(
                center=tuple(entry["center"]),
                radius=float(entry["radius"]),
                velocity=entry.get("velocity"),
                motions=motions,
            )
        )
    grid_h, grid_w = int(doc["grid"][0]), int(doc["grid"][1])
    z_near, z_far = float(doc["depth_range"][0]), float(doc["depth_range"][1])
    return SceneSpec(
        frames=int(doc["frames"]),
        grid_h=grid_h,
        grid_w=grid_w,
        intrinsics=Intrinsics.from_dict(doc["intrinsics"]),
        z_near=z_near,
        z_far=z_far,
        depth_jitter=float(doc.get("depth_jitter", 0.0)),
        objects=objects,
        track_noise=float(doc.get("track_noise", 0.0)),
        seed=int(doc.get("seed", 0)),
    )


def scene_to_dict(spec: SceneSpec) -> dict:
    objects = []
    for obj in spec.objects:
        entry = {"center": list(obj.center), "radius": obj.radius}
        if obj.velocity is not None:
            entry["velocity"] = obj.velocity.tolist()
        else:
            entry["motions"] = [
                {"R": m.rotation.tolist(), "t": m.translation.tolist()} for m in obj.motions
            ]
        objects.append(entry)
    return {
        "frames": spec.frames,
        "grid": [spec.grid_h, spec.grid_w],
        "intrinsics": spec.intrinsics.to_dict(),
        "depth_range": [spec.z_near, spec.z_far],
        "depth_jitter": spec.depth_jitter,
        "objects": objects,
        "track_noise": spec.track_noise,
        "seed": spec.seed,
    }
