"""Per-frame rigid motion estimation by reprojection least squares.

The objective is the mean squared pixel error between observed projections
and the projections of rigidly transported first-frame points. Rotations
are parameterized in axis-angle coordinates so the solver runs
unconstrained; minimization uses damped Gauss-Newton (Levenberg–Marquardt)
on the 6×6 normal equations. All reductions run in fixed index order, so
results are bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from camsig.geometry import (
    Intrinsics,
    RigidMotion,
    Z_MIN,
    so3_exp,
    so3_right_jacobian,
)

# Levenberg–Marquardt damping schedule, relative to diag(JᵀJ). A step that
# lowers the cost divides the damping by _MU_FACTOR, a rejected step
# multiplies it. Past _MU_MAX no step along the damped direction lowers the
# cost at double precision.
_MU_INIT = 1e-3
_MU_FACTOR = 10.0
_MU_MAX = 1e16
# A trial step that changes the cost by at most this fraction, either way,
# ends the fit as converged: the cost has reached its rounding floor.
_REL_CHANGE = 1e-15


class NumericalError(RuntimeError):
    """Optimization produced a non-finite cost or gradient."""


class UnderdeterminedFitError(ValueError):
    """Fewer than three points are selected, so the motion is not determined."""


@dataclass
class FitConfig:
    max_iterations: int = 200
    gradient_tolerance: float = 1e-10  # infinity norm of the 6-vector gradient

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("iteration count must be positive")
        if self.gradient_tolerance <= 0.0:
            raise ValueError("gradient tolerance must be positive")


@dataclass(eq=False)
class FitResult:
    motion: RigidMotion
    final_cost: float  # mean squared reprojection error, px^2
    iterations: int
    converged: bool
    cost_trace: np.ndarray


def _normal_equations(p, ov, k, params):
    """Cost, JᵀJ, Jᵀr and point count of the pixel residuals r at params.

    p (3×n) holds the first-frame points and ov (2×n) their observed
    pixels, one column per point. r holds every point's u and v residual
    and J is its 2n×6 Jacobian, built as its u and v halves; the mean
    squared error has gradient 2/n·Jᵀr. Transformed points that fall behind
    the camera (z < Z_MIN) are dropped for this evaluation; with no
    survivors the cost is +inf so the solver rejects such parameters.
    """
    w = params[:3]
    r_mat = so3_exp(w)
    s = r_mat @ p
    q = s + params[3:, None]
    front = q[2] >= Z_MIN
    if not front.all():
        s, q, ov = s[:, front], q[:, front], ov[:, front]
    n = q.shape[1]
    if n == 0:
        return math.inf, np.zeros((6, 6)), np.zeros(6), 0
    inv_z = 1.0 / q[2]
    u = q[0] * inv_z
    v = q[1] * inv_z
    ru = k.fx * u + k.cx - ov[0]
    rv = k.fy * v + k.cy - ov[1]

    # Jacobian over (phi, t), where phi rotates on the left:
    # exp(phi) R p + t + dt moves q by phi x (R p) + dt. The pinhole
    # derivative of the u residual is fx/qz (1, 0, -u), giving the row
    # fx/qz ((R p) x (1, 0, -u), 1, 0, -u); likewise for v.
    sx, sy, sz = s
    zero = np.zeros(n)
    one = np.ones(n)
    ju = np.stack([-u * sy, sz + u * sx, -sy, one, zero, -u]) * (k.fx * inv_z)
    jv = np.stack([-(sz + v * sy), v * sx, sx, zero, one, -v]) * (k.fy * inv_z)
    # exp(w + dw) = exp(R J_r(w) dw) exp(w) to first order, so phi = R J_r(w) dw.
    chain = np.eye(6)
    chain[:3, :3] = r_mat @ so3_right_jacobian(w)
    jtj = chain.T @ (ju @ ju.T + jv @ jv.T) @ chain
    jtr = chain.T @ (ju @ ru + jv @ rv)
    return (float(ru @ ru) + float(rv @ rv)) / n, jtj, jtr, n


def _validate_inputs(points0, observed, mask):
    p0 = np.asarray(points0, dtype=float).reshape(-1, 3)
    obs = np.asarray(observed, dtype=float).reshape(-1, 2)
    sel = np.asarray(mask, dtype=bool).reshape(-1)
    if not (p0.shape[0] == obs.shape[0] == sel.shape[0]):
        raise ValueError("points, observations and mask must have equal length")
    if int(sel.sum()) < 3:
        raise UnderdeterminedFitError("underdetermined fit")
    return p0, obs, sel


def reproj_cost_grad(points0, observed, mask, k: Intrinsics, params):
    """Mean squared reprojection error and its analytic 6-vector gradient.

    params is (wx, wy, wz, tx, ty, tz): axis-angle rotation then translation.
    """
    p0, obs, sel = _validate_inputs(points0, observed, mask)
    x = np.asarray(params, dtype=float).reshape(6)
    cost, _, jtr, n = _normal_equations(p0[sel].T, obs[sel].T, k, x)
    return cost, (2.0 / max(n, 1)) * jtr


def fit_rigid(points0, observed, mask, k: Intrinsics, init, config: FitConfig | None = None) -> FitResult:
    """Fit one frame's rigid motion to observed projections.

    Each iteration solves the damped normal equations
    (JᵀJ + μ·diag(JᵀJ)) δ = −Jᵀr and tries x + δ; the step is accepted only
    if the cost does not rise, so the cost trace (the initial cost, then one
    entry per iteration) is non-increasing. μ shrinks after an accepted step and grows after a
    rejected one. The fit stops, converged, when the gradient infinity norm
    reaches the configured tolerance or a trial step changes the cost by a
    relative 1e-15 or less in either direction (its rounding floor). It
    stops unconverged when the damping passes 1e16, which includes a
    rank-deficient JᵀJ with a zero row, or when max_iterations is reached.
    """
    cfg = config or FitConfig()
    p0, obs, sel = _validate_inputs(points0, observed, mask)
    p, ov = p0[sel].T.copy(), obs[sel].T.copy()
    x = np.asarray(init, dtype=float).reshape(6).copy()

    def evaluate(params):
        cost, jtj, jtr, n = _normal_equations(p, ov, k, params)
        if math.isnan(cost) or np.isnan(jtr).any():
            raise NumericalError(
                f"numerical failure: non-finite cost at params {params.tolist()}"
            )
        small = n > 0 and (2.0 / n) * float(np.max(np.abs(jtr))) <= cfg.gradient_tolerance
        return cost, jtj, jtr, small

    f, h, g, converged = evaluate(x)
    if not math.isfinite(f):
        raise NumericalError(
            f"numerical failure: no point projects in front of the camera at init {x.tolist()}"
        )
    trace = [f]
    mu = _MU_INIT
    n_iter = 0
    while not converged and n_iter < cfg.max_iterations:
        n_iter += 1
        try:
            step = np.linalg.solve(h + np.diag(mu * np.diag(h)), -g)
        except np.linalg.LinAlgError:  # JᵀJ has a zero row: rank deficient
            step = None
        accepted = False
        if step is not None and np.isfinite(step).all():
            x_new = x + step
            f_new, h_new, g_new, small = evaluate(x_new)
            accepted = f_new <= f
            converged = abs(f_new - f) <= _REL_CHANGE * f
        if accepted:
            converged = converged or small
            x, f, h, g = x_new, f_new, h_new, g_new
            mu /= _MU_FACTOR
        else:
            mu *= _MU_FACTOR
        trace.append(f)
        if mu > _MU_MAX:
            break

    trace_arr = np.array(trace)
    assert np.all(np.diff(trace_arr) <= 0.0), "solver admitted an ascent step"
    return FitResult(
        motion=RigidMotion(so3_exp(x[:3]), x[3:]),
        final_cost=f,
        iterations=n_iter,
        converged=converged,
        cost_trace=trace_arr,
    )
