"""Camera-control accuracy metrics: RotErr, TransErr, and MSC.

RotErr sums the per-frame rotation geodesic angles between two paths;
TransErr sums per-frame translation L2 distances after scaling both
sequences by the ground truth's largest translation norm. MSC removes the
camera-induced part of 2D correspondences with a closed-form rigid
alignment per adjacent frame pair and averages the remaining point errors.
These are toolkit definitions: reports must flag them as such.
"""

from __future__ import annotations

import math

import numpy as np

from camsig.campath import CameraPath
from camsig.geometry import geodesic_angle


def rot_err(gt: CameraPath, est: CameraPath) -> float:
    """Summed per-frame geodesic rotation error, radians."""
    if len(gt) != len(est):
        raise ValueError("path length mismatch")
    return sum(
        geodesic_angle(gt[lam].rotation, est[lam].rotation) for lam in range(1, len(gt))
    )


def trans_err(gt: CameraPath, est: CameraPath) -> float:
    """Summed per-frame translation error after max-norm scale normalization.

    Both translation sequences are scaled by 1 / max_lam ||t_gt,lam||; with an
    all-zero ground truth the raw L2 distances are summed instead.
    """
    if len(gt) != len(est):
        raise ValueError("path length mismatch")
    t_gt = gt.translations()
    t_est = est.translations()
    # Translations near the float limit overflow; that result is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.linalg.norm(t_gt, axis=1).max())
        if scale > 0.0:
            t_gt = t_gt / scale
            t_est = t_est / scale
        value = float(np.linalg.norm(t_est[1:] - t_gt[1:], axis=1).sum())
    if not math.isfinite(value):
        raise ValueError("translations too large for a finite error")
    return value


def procrustes_2d(src, dst) -> tuple[float, np.ndarray]:
    """Closed-form least-squares 2D rigid alignment (rotation + translation).

    Returns (angle, translation) such that R(angle) @ s + translation best
    matches dst in the squared-error sense. No scale.
    """
    s = np.asarray(src, dtype=float).reshape(-1, 2)
    d = np.asarray(dst, dtype=float).reshape(-1, 2)
    if s.shape != d.shape:
        raise ValueError("correspondence length mismatch")
    if s.shape[0] < 2:
        raise ValueError("need at least two correspondences")
    sc = s - s.mean(axis=0)
    dc = d - d.mean(axis=0)
    cross = float(np.sum(sc[:, 0] * dc[:, 1] - sc[:, 1] * dc[:, 0]))
    dot = float(np.sum(sc[:, 0] * dc[:, 0] + sc[:, 1] * dc[:, 1]))
    angle = math.atan2(cross, dot)
    c, sn = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -sn], [sn, c]])
    translation = d.mean(axis=0) - rot @ s.mean(axis=0)
    return angle, translation


def align_2d(src, angle: float, translation) -> np.ndarray:
    """Apply a 2D rigid alignment to points."""
    s = np.asarray(src, dtype=float).reshape(-1, 2)
    c, sn = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -sn], [sn, c]])
    return s @ rot.T + np.asarray(translation, dtype=float)


def msc(correspondences) -> float:
    """Mean residual after per-pair rigid alignment, pixels.

    `correspondences` is one (src, dst) point-array pair per adjacent frame
    pair, in order. Each pair is aligned independently; the metric is the
    mean over pairs of the mean point-wise L2 residual.
    """
    if not correspondences:
        raise ValueError("no correspondence pairs")
    per_pair = []
    # Coordinates near the float limit overflow in the alignment sums and
    # the norms; the result then is not finite and is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (src, dst) in enumerate(correspondences):
            s = np.asarray(src, dtype=float).reshape(-1, 2)
            d = np.asarray(dst, dtype=float).reshape(-1, 2)
            if s.shape[0] < 2 or s.shape != d.shape:
                raise ValueError(f"pair {i} needs at least two matched correspondences")
            angle, translation = procrustes_2d(s, d)
            residual = d - align_2d(s, angle, translation)
            per_pair.append(float(np.linalg.norm(residual, axis=1).mean()))
        value = float(np.mean(per_pair))
    if not math.isfinite(value):
        raise ValueError("coordinates too large for a finite residual")
    return value
