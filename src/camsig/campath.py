"""Camera paths: per-frame rigid motions, basic primitives, JSON files.

Motions are point transforms in the first frame's camera coordinates (the
map applied to first-frame points), not world-to-camera extrinsics. Sign
conventions follow the on-screen scene reactions under the y-down camera
frame: a pan-right camera move shifts the scene left, a downward camera
move makes the scene ascend, and a counterclockwise camera roll rotates
the scene clockwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from camsig.geometry import RigidMotion, compose, is_rotation, so3_exp

PRIMITIVE_KINDS = (
    "pan_left",
    "pan_right",
    "pan_up",
    "pan_down",
    "zoom_in",
    "zoom_out",
    "rot_acw",
    "rot_cw",
)

# Point-transform direction per unit magnitude: pans/zooms translate along
# a fixed axis, rolls rotate about the optical axis (x toward y).
_PAN_AXES = {
    "pan_left": np.array([1.0, 0.0, 0.0]),
    "pan_right": np.array([-1.0, 0.0, 0.0]),
    "pan_up": np.array([0.0, 1.0, 0.0]),
    "pan_down": np.array([0.0, -1.0, 0.0]),
    "zoom_in": np.array([0.0, 0.0, -1.0]),
    "zoom_out": np.array([0.0, 0.0, 1.0]),
}
_ROLL_SIGNS = {"rot_acw": 1.0, "rot_cw": -1.0}


@dataclass(eq=False)
class CameraPath:
    """Sequence of per-frame rigid motions; frame 0 is the identity."""

    motions: list

    def __post_init__(self):
        self.motions = list(self.motions)
        if not self.motions:
            raise ValueError("camera path must contain at least one frame")
        if not self.motions[0].is_identity():
            raise ValueError("frame-0 motion must be identity")

    def __len__(self) -> int:
        return len(self.motions)

    def __getitem__(self, idx) -> RigidMotion:
        return self.motions[idx]

    def rotations(self) -> np.ndarray:
        return np.stack([m.rotation for m in self.motions])

    def translations(self) -> np.ndarray:
        return np.stack([m.translation for m in self.motions])


@dataclass
class PrimitiveSpec:
    """One of the eight basic camera movements over a fixed frame count."""

    kind: str
    magnitude: float  # camera-space units for pans/zooms, radians for rolls
    frames: int

    def __post_init__(self):
        if self.kind not in PRIMITIVE_KINDS:
            raise ValueError(f"unknown primitive kind: {self.kind!r}")
        if self.magnitude < 0.0:
            raise ValueError("magnitude must be non-negative")
        if self.frames < 2:
            raise ValueError("primitive needs at least two frames")


def generate_primitive(spec: PrimitiveSpec) -> CameraPath:
    """Linear-in-time primitive path: progress alpha = frame / (frames - 1)."""
    motions = []
    for lam in range(spec.frames):
        alpha = lam / (spec.frames - 1)
        if spec.kind in _PAN_AXES:
            motions.append(RigidMotion(np.eye(3), spec.magnitude * alpha * _PAN_AXES[spec.kind]))
        else:
            angle = _ROLL_SIGNS[spec.kind] * spec.magnitude * alpha
            motions.append(RigidMotion(so3_exp(np.array([0.0, 0.0, angle])), np.zeros(3)))
    return CameraPath(motions)


def compose_paths(outer: CameraPath, inner: CameraPath) -> CameraPath:
    """Frame-wise composition: inner motion applied first, then outer."""
    if len(outer) != len(inner):
        raise ValueError("frame count mismatch")
    return CameraPath([compose(a, b) for a, b in zip(outer.motions, inner.motions)])


def save_path(path: CameraPath, file) -> None:
    """Write the canonical path JSON: {"frames": [{"R": ..., "t": ...}, ...]}."""
    doc = {
        "frames": [
            {"R": m.rotation.tolist(), "t": m.translation.tolist()} for m in path.motions
        ]
    }
    Path(file).write_text(json.dumps(doc, indent=2) + "\n")


def load_path(file) -> CameraPath:
    """Read a path JSON, validating rotations and the frame-0 identity."""
    doc = json.loads(Path(file).read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("frames"), list):
        raise ValueError("path file must be an object with a 'frames' list")
    motions = []
    for lam, entry in enumerate(doc["frames"]):
        if not (isinstance(entry, dict) and "R" in entry and "t" in entry):
            raise ValueError(f"frame {lam} must be an object with 'R' and 't'")
        try:
            r = np.asarray(entry["R"], dtype=float)
            t = np.asarray(entry["t"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"non-numeric motion at frame {lam}") from exc
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError(f"invalid motion shape at frame {lam}")
        if not is_rotation(r, atol=1e-6):
            raise ValueError(f"invalid rotation at frame {lam}")
        motions.append(RigidMotion(r, t))
    if not motions:
        raise ValueError("path file contains no frames")
    if not motions[0].is_identity():
        raise ValueError("frame-0 motion must be identity")
    return CameraPath(motions)
