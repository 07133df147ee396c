"""Iterative static/dynamic region extraction from a trajectory field.

Starting from the full grid, each iteration fits one rigid motion per frame
to the current static set by reprojection least squares, measures every
point's summed squared reprojection error under those motions, and
re-thresholds the static set over the whole grid (points may re-enter).
The loop stops when the worst static-point error drops below the tolerable
error, when the static set covers the whole grid, or when iterations run
out. Only points visible in a frame enter that frame's fit and error sums;
per-point sums are rescaled to the full frame count before thresholding so
occlusion does not bias the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from camsig.geometry import RigidMotion, Z_MIN, so3_log
from camsig.rigidfit import FitConfig, UnderdeterminedFitError, fit_rigid
from camsig.trajfield import PixelPartition, TrajectoryField

STATUS_CONVERGED_EPS = "converged_eps"
STATUS_CONVERGED_FULL = "converged_full"
STATUS_MAX_ITERS = "max_iters"
STATUS_DEGENERATE = "degenerate"


@dataclass
class SegmentationConfig:
    """Extraction thresholds; epsilon defaults to 4.0 * num_frames px^2.

    The per-point error is summed over frames, so the tolerable error scales
    with the frame count (4.0 * T is about 2 px RMS per frame).
    """

    epsilon: float | None = None
    alpha: float = 0.15
    max_iterations: int = 10
    min_static_fraction: float = 0.10
    fit: FitConfig = dc_field(default_factory=FitConfig)

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (0.0 < self.min_static_fraction < 1.0):
            raise ValueError("min_static_fraction must lie in (0, 1)")


@dataclass(eq=False)
class SegmentationResult:
    partition: PixelPartition
    motions: list  # RigidMotion per frame, frame 0 = identity
    per_point_error: np.ndarray  # (H, W) summed squared reprojection error
    iterations_used: int
    status: str
    eps_max_trace: list
    diagnostics: list


def _observed_projections(field: TrajectoryField) -> np.ndarray:
    """Pixel observations of the tracked points (undefined where invisible)."""
    k = field.intrinsics
    pos = field.positions
    uv = np.zeros(pos.shape[:2] + (2,))
    vis = field.visibility
    z = pos[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv[..., 0] = k.fx * pos[..., 0] / z + k.cx
        uv[..., 1] = k.fy * pos[..., 1] / z + k.cy
    uv[~vis] = 0.0
    return uv


def _per_point_errors(field, motions, obs, vis_count) -> np.ndarray:
    """Summed squared reprojection error per point, rescaled to T frames.

    A point driven behind the camera by a motion cannot be explained by it
    and scores +inf for that frame.
    """
    k = field.intrinsics
    t = field.num_frames
    rot = np.stack([m.rotation for m in motions])
    tr = np.stack([m.translation for m in motions])
    q = np.einsum("tij,nj->tni", rot, field.positions[0]) + tr[:, None, :]
    z = q[..., 2]
    front = z >= Z_MIN
    with np.errstate(divide="ignore", invalid="ignore"):
        du = k.fx * q[..., 0] / z + k.cx - obs[..., 0]
        dv = k.fy * q[..., 1] / z + k.cy - obs[..., 1]
    sq = du * du + dv * dv
    sq[front & ~field.visibility] = 0.0
    sq[~front & field.visibility] = math.inf
    sq[~front & ~field.visibility] = 0.0
    return sq.sum(axis=0) * (t / vis_count)


def extract_static(
    field: TrajectoryField,
    config: SegmentationConfig | None = None,
    initial_static: np.ndarray | None = None,
) -> SegmentationResult:
    """Split the grid into static and dynamic points with per-frame fits.

    `initial_static` overrides the all-static starting set (flat or (H, W)
    boolean array); the default is the whole grid.
    """
    cfg = config or SegmentationConfig()
    t = field.num_frames
    n = field.num_points
    if t < 2:
        raise ValueError("extraction needs at least two frames")
    eps = 4.0 * t if cfg.epsilon is None else cfg.epsilon

    if initial_static is None:
        static = np.ones(n, dtype=bool)
    else:
        static = np.asarray(initial_static, dtype=bool).reshape(n).copy()

    k = field.intrinsics
    vis = field.visibility
    vis_count = vis.sum(axis=0)
    obs = _observed_projections(field)
    min_count = max(int(math.ceil(cfg.min_static_fraction * n)), 6)

    motions = [RigidMotion.identity() for _ in range(t)]
    eps_max_trace: list[float] = []
    diagnostics: list[str] = []
    status = STATUS_MAX_ITERS
    iterations_used = 0
    err = np.zeros(n)

    for iteration in range(1, cfg.max_iterations + 1):
        # Per-frame fits on the current static set. Frame 0 is pinned to the
        # identity (zero residual by construction); each later frame warm
        # starts from the previous frame's solution.
        prev_motions = list(motions)
        prev_params = np.zeros(6)
        try:
            for lam in range(1, t):
                sel = static & vis[lam]
                result = fit_rigid(field.positions[0], obs[lam], sel, k, prev_params, cfg.fit)
                motions[lam] = result.motion
                prev_params = np.concatenate(
                    [so3_log(result.motion.rotation), result.motion.translation]
                )
                if not result.converged:
                    diagnostics.append(
                        f"rigid fit of frame {lam} did not converge in segmentation "
                        f"iteration {iteration} ({result.iterations} solver iterations)"
                    )
        except UnderdeterminedFitError:
            # Too few visible static points in some frame: same failure mode
            # as the collapse guard below.
            motions = prev_motions
            status = STATUS_DEGENERATE
            diagnostics.append(
                f"fewer than 3 visible static points in frame {lam}; "
                "keeping previous iteration"
            )
            break
        iterations_used += 1

        err = _per_point_errors(field, motions, obs, vis_count)
        eps_max = float(err[static].max())
        eps_max_trace.append(eps_max)

        if eps_max < eps:
            status = STATUS_CONVERGED_EPS
            break

        new_static = err < cfg.alpha * (eps_max + eps)
        if new_static.all():
            static = new_static
            status = STATUS_CONVERGED_FULL
            break
        if int(new_static.sum()) < min_count:
            status = STATUS_DEGENERATE
            diagnostics.append(
                f"static set collapsed to {int(new_static.sum())} points "
                f"(minimum {min_count}); keeping previous iteration"
            )
            break
        static = new_static

    for i in range(1, len(eps_max_trace)):
        if eps_max_trace[i] > eps_max_trace[i - 1]:
            diagnostics.append(
                f"eps_max increased at iteration {i + 1} "
                f"({eps_max_trace[i - 1]:.6g} -> {eps_max_trace[i]:.6g})"
            )

    return SegmentationResult(
        partition=PixelPartition(static.reshape(field.grid_h, field.grid_w)),
        motions=list(motions),
        per_point_error=err.reshape(field.grid_h, field.grid_w),
        iterations_used=iterations_used,
        status=status,
        eps_max_trace=eps_max_trace,
        diagnostics=diagnostics,
    )
