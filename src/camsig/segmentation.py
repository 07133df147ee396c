"""Iterative static/dynamic region extraction from a trajectory field.

Starting from the full grid, each iteration fits one rigid motion per frame
to the current static set by reprojection least squares, all frames in one
batched solve that starts each from its own previous fit, then measures
every point's summed squared reprojection error under those motions and
re-thresholds the static set over the whole grid (points may re-enter).
The loop stops when the worst static-point error drops below the tolerable
error, when the static set covers the whole grid, or when iterations run
out. Only visible points enter a frame's fit and error sums; per-point sums
are rescaled to the full frame count so occlusion does not bias the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from camsig.geometry import RigidMotion, apply, pinhole
from camsig.rigidfit import FitConfig, fit_rigid_frames
from camsig.rigidfit import fit_rigid  # noqa: F401  perfbench/tracer.py patches this name
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
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (self.max_iterations % 1 == 0 and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be a positive integer, got {self.max_iterations}")
        self.max_iterations = int(self.max_iterations)
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
    uv, _ = pinhole(field.positions, field.intrinsics)
    uv[~field.visibility] = 0.0
    return uv


def _per_point_errors(field, motions, obs, vis_count) -> np.ndarray:
    """Summed squared reprojection error per point, rescaled to T frames.

    A point driven behind the camera by a motion cannot be explained by it
    and scores +inf for that frame.
    """
    t = field.num_frames
    p0 = field.positions[0]
    sq = np.empty((t, field.num_points))
    for lam, m in enumerate(motions):
        uv, front = pinhole(apply(m, p0), field.intrinsics)
        du = uv[:, 0] - obs[lam, :, 0]
        dv = uv[:, 1] - obs[lam, :, 1]
        sq[lam] = du * du + dv * dv
        sq[lam][~front] = math.inf
    sq[~field.visibility] = 0.0
    return sq.sum(axis=0) * (t / vis_count)


def extract_static(
    field: TrajectoryField,
    config: SegmentationConfig | None = None,
    initial_static: np.ndarray | None = None,
) -> SegmentationResult:
    """Split the grid into static and dynamic points with per-frame rigid fits.

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
    params = np.zeros((t - 1, 6))
    eps_max_trace: list[float] = []
    diagnostics: list[str] = []
    status = STATUS_MAX_ITERS
    iterations_used = 0
    err = np.zeros(n)

    for iteration in range(1, cfg.max_iterations + 1):
        # One batched fit of frames 1..T-1 on the current static set; frame 0
        # is pinned to the identity. Each frame warm starts from its own
        # parameters of the previous iteration (zero at the first).
        sel = static & vis[1:]
        short = np.flatnonzero(sel.sum(axis=1) < 3)
        if short.size:
            status = STATUS_DEGENERATE
            diagnostics.append(
                f"fewer than 3 visible static points in frame {short[0] + 1}; "
                "keeping previous iteration"
            )
            break
        params, fits = fit_rigid_frames(field.positions[0], obs[1:], sel, k, params, cfg.fit)
        motions = [RigidMotion.identity()] + [result.motion for result in fits]
        for lam, result in enumerate(fits, start=1):
            if not result.converged:
                diagnostics.append(
                    f"rigid fit of frame {lam} did not converge in segmentation "
                    f"iteration {iteration} ({result.iterations} solver iterations)"
                )
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
