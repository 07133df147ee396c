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
from dataclasses import dataclass

import numpy as np

from camsig.geometry import RigidMotion, pinhole, transported
from camsig.rigidfit import fit_rigid_frames
from camsig.rigidfit import fit_rigid  # noqa: F401  perfbench/tracer.py patches this name
from camsig.trajfield import PixelPartition, TrajectoryField

STATUS_CONVERGED_EPS = "converged_eps"
STATUS_CONVERGED_FULL = "converged_full"
STATUS_MAX_ITERS = "max_iters"
STATUS_DEGENERATE = "degenerate"

# A re-thresholded static set smaller than this share of the grid (and than
# 6 points) ends the loop as degenerate, keeping the previous iteration.
_MIN_STATIC_FRACTION = 0.10
# Relative cost change at which an iteration's fits stop before the loop's
# last iteration is known; fit_rigid_frames reports such stops as "coarse".
_COARSE = 1e-6
# Iteration 1, and each iteration whose predecessor's eps_max exceeds
# _THIN_GUARD·ε, fits a frame of more than _THIN_CAP static visible points on
# every ⌈n/_THIN_CAP⌉-th of them in index order; such a fit counts as coarse.
_THIN_CAP = 2048
_THIN_GUARD = 100.0


@dataclass
class SegmentationConfig:
    """Extraction thresholds; epsilon defaults to 4.0 * num_frames px^2.

    The per-point error is summed over frames, so the tolerable error scales
    with the frame count (4.0 * T is about 2 px RMS per frame).
    """

    epsilon: float | None = None
    alpha: float = 0.15
    max_iterations: int = 10

    def __post_init__(self):
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (self.max_iterations % 1 == 0 and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be a positive integer, got {self.max_iterations}")
        self.max_iterations = int(self.max_iterations)


@dataclass(eq=False)
class SegmentationResult:
    partition: PixelPartition
    motions: list  # RigidMotion per frame, frame 0 = identity
    per_point_error: np.ndarray  # (H, W) summed squared reprojection error
    iterations_used: int
    status: str
    eps_max_trace: list
    diagnostics: list


def _per_point_errors(field, motions, vis_count) -> np.ndarray:
    """Summed squared reprojection error against the track pixels, rescaled to T frames.

    A point driven behind the camera by a motion cannot be explained by it
    and scores +inf for that frame; an invisible entry scores 0. Each
    point's frames add into one running (N,) sum in frame order.
    """
    total = np.zeros(field.num_points)
    for lam, b, q in transported(field.points0, motions):
        uv, front = pinhole(q, field.intrinsics)
        du = uv[:, 0] - field.pixels[lam, b, 0]
        dv = uv[:, 1] - field.pixels[lam, b, 1]
        sq = du * du + dv * dv
        sq[~front] = math.inf
        sq[~field.visibility[lam, b]] = 0.0
        total[b] += sq
    return total * (field.num_frames / vis_count)


def _short_frame(static, vis) -> str | None:
    """The diagnostic for the first frame of a static set too small to fit."""
    short = np.flatnonzero((static & vis[1:]).sum(axis=1) < 3)
    if not short.size:
        return None
    return f"fewer than 3 visible static points in frame {short[0] + 1}; keeping previous iteration"


def extract_static(field: TrajectoryField, config: SegmentationConfig | None = None) -> SegmentationResult:
    """Split the grid into static and dynamic points with per-frame rigid fits.

    Each iteration fits coarsely, to a relative cost change of 1e-6, and
    re-thresholds on that fit. Iteration 1, and each iteration whose
    predecessor's eps_max exceeds 100·ε, also thins: a frame whose static
    and visible set has more than 2,048 points fits only every
    ⌈n/2,048⌉-th of them in index order, while errors and thresholds still
    use every point. An iteration that would end the loop first refits its
    coarsely stopped and thinned frames on all their points at full
    precision (see fit_rigid_frames) and decides again, so the returned
    motions and per-point errors always come from full-precision fits.
    """
    cfg = config or SegmentationConfig()
    t = field.num_frames
    n = field.num_points
    if t < 2:
        raise ValueError("extraction needs at least two frames")
    eps = 4.0 * t if cfg.epsilon is None else cfg.epsilon

    k = field.intrinsics
    vis = field.visibility
    vis_count = vis.sum(axis=0)
    p0, obs = field.points0, field.pixels[1:]
    min_count = max(int(math.ceil(_MIN_STATIC_FRACTION * n)), 6)

    def decide(err, static, eps_max, last):
        """(status, diagnostic, next static set); status None goes on."""
        if eps_max < eps:
            return STATUS_CONVERGED_EPS, None, static
        new_static = err < cfg.alpha * (eps_max + eps)
        if new_static.all():
            return STATUS_CONVERGED_FULL, None, new_static
        if int(new_static.sum()) < min_count:
            note = (
                f"static set collapsed to {int(new_static.sum())} points "
                f"(minimum {min_count}); keeping previous iteration"
            )
            return STATUS_DEGENERATE, note, static
        if last:
            return STATUS_MAX_ITERS, None, new_static
        note = _short_frame(new_static, vis)
        return (STATUS_DEGENERATE if note else None), note, new_static

    static = np.ones(n, dtype=bool)
    motions = [RigidMotion.identity() for _ in range(t)]
    params = np.zeros((t - 1, 6))
    eps_max_trace: list[float] = []
    diagnostics: list[str] = []
    err = np.zeros(n)
    note = _short_frame(static, vis)
    status = STATUS_DEGENERATE if note else None
    iterations_used = 0

    while status is None:
        # One batched fit of frames 1..T-1 on the current static set; frame 0
        # is pinned to the identity. Each frame warm starts from its own
        # parameters of the previous iteration (zero at the first).
        iterations_used += 1
        sel = static & vis[1:]
        counts = sel.sum(axis=1)
        thin = (counts > _THIN_CAP) & (not eps_max_trace or eps_max_trace[-1] > _THIN_GUARD * eps)
        fit_sel = sel.copy() if thin.any() else sel
        for i in np.flatnonzero(thin):
            fit_sel[i] = False
            fit_sel[i, np.flatnonzero(sel[i])[:: -(-counts[i] // _THIN_CAP)]] = True
        params, fits = fit_rigid_frames(p0, obs, fit_sel, k, params, coarse=_COARSE)
        redo = [i for i, result in enumerate(fits) if thin[i] or result.stop not in ("gradient", "floor")]
        while True:
            motions = [RigidMotion.identity()] + [result.motion for result in fits]
            err = _per_point_errors(field, motions, vis_count)
            eps_max = float(err[static].max())
            status, note, next_static = decide(err, static, eps_max, iterations_used == cfg.max_iterations)
            if status is None or not redo:
                break
            params[redo], refits = fit_rigid_frames(p0, obs[redo], sel[redo], k, params[redo])
            for i, result in zip(redo, refits):
                fits[i] = result
            redo = []
        for lam, result in enumerate(fits, start=1):
            if not result.converged:
                diagnostics.append(
                    f"rigid fit of frame {lam} did not converge in segmentation "
                    f"iteration {iterations_used} ({result.iterations} solver iterations)"
                )
        eps_max_trace.append(eps_max)
        static = next_static
    if note:
        diagnostics.append(note)

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
