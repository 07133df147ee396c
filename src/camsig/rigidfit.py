"""Per-frame rigid motion estimation by reprojection least squares.

The objective is the mean squared pixel error between observed projections
and the projections of rigidly transported first-frame points. Rotations
are parameterized in axis-angle coordinates so the solver runs
unconstrained; minimization uses damped Gauss-Newton (Levenberg–Marquardt)
on the 6×6 normal equations, stacked over a batch of frames that share
their first-frame points (a single frame is a batch of one). All reductions
run in fixed index order, so results are bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from camsig.geometry import BLOCK, Intrinsics, RigidMotion, Z_MIN, so3_exp_batch

# Levenberg–Marquardt damping schedule, relative to diag(JᵀJ). A step that
# lowers the cost divides the damping by _MU_FACTOR, a rejected step
# multiplies it. Past _MU_MAX no step along the damped direction lowers the
# cost at double precision.
_MU_INIT = 1e-3
_MU_FACTOR = 10.0
_MU_MAX = 1e16
# A trial step that changes the cost f by at most n·_U·f, either way, ends
# the fit as converged: the rounding error of a mean over n squared
# residuals grows like n·u, so past that change the cost no longer moves.
_U = float(np.finfo(float).eps)
# A fit also ends as converged when the gradient's largest entry, per unit
# that moves the points 1 px RMS, is at most _GRADIENT_TOLERANCE, and ends
# unconverged after _MAX_ITERATIONS iterations.
_GRADIENT_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200
_FLIP = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, -1.0])  # Jacobian column signs as stored


# Why a fit stopped. The first three are converged: "gradient" and "floor"
# at full precision, "coarse" at the caller's looser relative cost change.
STOPS = ("gradient", "floor", "coarse", "mu_limit", "max_iterations")


@dataclass(eq=False)
class FitResult:
    motion: RigidMotion
    final_cost: float  # mean squared reprojection error, px^2
    iterations: int
    stop: str  # one of STOPS
    cost_trace: np.ndarray

    @property
    def converged(self) -> bool:
        return self.stop in STOPS[:3]


def _normal_equations(p, ov, wt, k, x):
    """Cost, JᵀJ, Jᵀr and point count of each frame f's pixel residuals r.

    p[f] (3×M) holds its first-frame points, ov[f] (2×M) their observed
    pixels, wt[f] their 0/1 weights and x[f] its parameters. A zero weight
    zeroes a point's residuals and, through fx/z and fy/z, its Jacobian
    rows; points moved behind the camera (z < Z_MIN) weigh zero, and with
    no survivors the cost is +inf so the solver rejects such parameters.
    """
    r_mat, jr = so3_exp_batch(x[:, :3])
    s = r_mat @ p
    z = s[:, 2] + x[:, 5, None]
    w = wt * (z >= Z_MIN)
    n = w.sum(axis=1)
    inv_z = w / np.where(w > 0.0, z, 1.0)
    u = (s[:, 0] + x[:, 3, None]) * inv_z
    v = (s[:, 1] + x[:, 4, None]) * inv_z

    # Jacobian over (phi, t), where phi rotates on the left:
    # exp(phi) R p + t + dt moves q by phi x (R p) + dt. The pinhole
    # derivative of the u residual is fx/qz (1, 0, -u), giving the row
    # fx/qz ((R p) x (1, 0, -u), 1, 0, -u); likewise for v. e holds J's
    # columns, times _FLIP, then r, so one product gives JᵀJ and Jᵀr.
    sx, sy, sz = s[:, 0], s[:, 1], s[:, 2]
    e = np.empty((len(x), 7, 2, p.shape[2]))
    eu, ev = e[:, :, 0], e[:, :, 1]
    fu, fv = np.multiply(k.fx, inv_z, out=eu[:, 3]), np.multiply(k.fy, inv_z, out=ev[:, 4])
    ufu, vfv = np.multiply(u, fu, out=eu[:, 5]), np.multiply(v, fv, out=ev[:, 5])
    eu[:, 0], eu[:, 1], eu[:, 2], eu[:, 4] = ufu * sy, sz * fu + ufu * sx, -sy * fu, 0.0
    ev[:, 0], ev[:, 1], ev[:, 2], ev[:, 3] = sz * fv + vfv * sy, vfv * sx, sx * fv, 0.0
    eu[:, 6], ev[:, 6] = k.fx * u + k.cx - ov[:, 0], k.fy * v + k.cy - ov[:, 1]
    e[:, 6] *= w[:, None]
    e = e.reshape(len(x), 7, -1)
    # 6×7, not 6×6: numpy sends a square J @ J.T to BLAS syrk, 3× slower here.
    jtj_jtr = e[:, :6] @ e.transpose(0, 2, 1)
    # exp(w + dw) = exp(R J_r(w) dw) exp(w) to first order, so phi = R J_r(w) dw.
    chain = np.tile(np.diag(_FLIP), (len(x), 1, 1))
    chain[:, :3, :3] = _FLIP[:3, None] * (r_mat @ jr)
    chain_t = chain.transpose(0, 2, 1)
    jtj = chain_t @ jtj_jtr[:, :, :6] @ chain
    jtr = (chain_t @ jtj_jtr[:, :, 6:])[..., 0]
    cost = np.where(n > 0.0, np.einsum("fi,fi->f", e[:, 6], e[:, 6]) / np.maximum(n, 1.0), math.inf)
    return cost, jtj, jtr, n


def _validate_inputs(points0, observed, masks):
    p0 = np.asarray(points0, dtype=float).reshape(-1, 3)
    obs = np.asarray(observed, dtype=float)
    sel = np.asarray(masks, dtype=bool)
    if obs.shape != sel.shape + (2,) or sel.shape[1:] != p0.shape[:1]:
        raise ValueError("points, observations and mask must have equal length")
    if (sel.sum(axis=1) < 3).any():
        raise ValueError("underdetermined fit: fewer than 3 points selected")
    return p0, obs, sel


def reproj_cost_grad(points0, observed, mask, k: Intrinsics, params):
    """Mean squared reprojection error and its analytic 6-vector gradient.

    params is (wx, wy, wz, tx, ty, tz): axis-angle rotation then translation.
    """
    p0, obs, sel = _validate_inputs(points0, [observed], [mask])
    x = np.asarray(params, dtype=float).reshape(1, 6)
    p, ov, wt = p0[sel[0]].T[None], obs[0, sel[0]].T[None], np.ones((1, int(sel.sum())))
    cost, _, jtr, n = _normal_equations(p, ov, wt, k, x)
    return float(cost[0]), (2.0 / max(n[0], 1.0)) * jtr[0]


def _lm_chunk(p, ov, wt, k: Intrinsics, x, coarse: float) -> list:
    """Levenberg–Marquardt on one chunk of frames; x (F×6) is updated in place.

    Each frame keeps its own damping, stop reason, iteration count and cost
    trace. A round makes one stacked solve and one evaluation of the running
    frames; a frame that stops drops out of later rounds.
    """

    def evaluate(p, ov, wt, params):
        cost, jtj, jtr, n = _normal_equations(p, ov, wt, k, params)
        cost[np.isnan(cost) | np.isnan(jtr).any(axis=1)] = math.inf  # rejected as a trial
        scale = np.sqrt(n[:, None] * np.diagonal(jtj, axis1=1, axis2=2))  # px RMS per unit
        grad = 2.0 * np.abs(jtr) / np.where(scale > 0.0, scale, 1.0)
        return cost, jtj, jtr, n, (n > 0.0) & (grad.max(axis=1) <= _GRADIENT_TOLERANCE)

    nf = len(x)
    f, h, g, _, small = evaluate(p, ov, wt, x)
    history = [f.copy()]  # every cost after each round: a stopped frame's stays put
    stop = np.where(small, "gradient", "").astype(object)  # "" while running
    mu = np.full(nf, _MU_INIT)
    iterations = np.zeros(nf, dtype=int)
    diag = np.arange(6)
    rows = np.arange(nf)  # the running frames, whose blocks p, ov and wt hold
    running = stop == ""
    while running.any():
        if not running[rows].all():
            keep = np.flatnonzero(running[rows])
            rows = rows[keep]
            for a in (p, ov, wt):  # in place: no second copy of the blocks
                a[: len(keep)] = a[keep]
            p, ov, wt = p[: len(keep)], ov[: len(keep)], wt[: len(keep)]
        iterations[rows] += 1
        # A frame the solver cannot advance takes no step this round, so its
        # μ grows as after a rejected step. That holds for a zero diagonal
        # entry of JᵀJ (as when no point lies in front of the camera), for a
        # damped matrix with an exact zero LU pivot (the case where solve
        # raises), and for a non-finite step. The rest solve where JᵀJ has a
        # unit diagonal, so μ·diag(JᵀJ) is μ·I and the pivots do not depend
        # on the units of the translation. That matrix is positive definite
        # in exact arithmetic, but rounding can still make it singular when
        # the entries span many orders of magnitude. slogdet's sign, unlike
        # det, cannot underflow to zero.
        h_r, g_r = h[rows], g[rows]
        dg = h_r[:, diag, diag]
        ok = (dg > 0.0).all(axis=1)
        d = np.sqrt(np.where(ok[:, None], dg, 1.0))
        c = np.where(ok[:, None, None], h_r / d[:, :, None] / d[:, None, :], np.eye(6))
        c[:, diag, diag] += mu[rows, None]
        ok &= np.linalg.slogdet(c)[0] != 0.0
        c[~ok] = np.eye(6)
        step = np.linalg.solve(c, -(g_r / d)[..., None])[..., 0] / d
        ok &= np.isfinite(step).all(axis=1)
        accepted = np.zeros(nf, dtype=bool)
        if ok.any():
            sub = slice(None) if ok.all() else ok
            tried, x_new = rows[sub], x[rows[sub]] + step[sub]
            f_new, h_new, g_new, n_new, small = evaluate(p[sub], ov[sub], wt[sub], x_new)
            won = f_new <= f[tried]
            change = np.abs(f_new - f[tried])
            stop[tried] = np.where(
                change <= n_new * _U * f[tried], "floor", np.where(change <= coarse * f[tried], "coarse", "")
            )
            stop[tried[won & small]] = "gradient"
            accepted[tried[won]] = True
            x[tried[won]], f[tried[won]], h[tried[won]], g[tried[won]] = (
                x_new[won], f_new[won], h_new[won], g_new[won]
            )
        mu[rows] *= np.where(accepted[rows], 1.0 / _MU_FACTOR, _MU_FACTOR)
        history.append(f.copy())
        running = (stop == "") & (iterations < _MAX_ITERATIONS) & (mu <= _MU_MAX)
    stop[(stop == "") & (iterations >= _MAX_ITERATIONS)] = "max_iterations"
    stop[stop == ""] = "mu_limit"

    history = np.array(history)
    assert (history[1:] <= history[:-1]).all(), "solver admitted an ascent step"
    rotations = so3_exp_batch(x[:, :3])[0]
    return [
        FitResult(RigidMotion(r, xi[3:].copy()), float(fi), int(it), str(why), history[: it + 1, i])
        for i, (r, xi, fi, it, why) in enumerate(zip(rotations, x, f, iterations, stop))
    ]


def fit_rigid_frames(points0, observed, masks, k: Intrinsics, init, *, coarse: float = 0.0):
    """Fit each frame's rigid motion to its observed projections of points0.

    points0 is (N, 3). Frame f fits the points selected by masks[f] (N) to
    observed[f] (N×2), starting from init[f], the 6-vector (wx, wy, wz, tx,
    ty, tz) of axis-angle rotation then translation. Returns the (F, 6)
    final parameters and one FitResult per frame.

    Each iteration solves (JᵀJ + μ·diag(JᵀJ)) δ = −Jᵀr and accepts x + δ
    only if the cost does not rise, so the cost trace (the initial cost,
    then one entry per iteration) is non-increasing; μ shrinks after an
    accepted step and grows after a rejected one. A fit stops, converged,
    when the gradient reaches 1e-10 per unit that moves the points 1 px RMS
    (stop "gradient") or a trial step changes the cost f by at most n·u·f
    either way, with n the frame's point count and u = 2.2e-16 (stop
    "floor": the cost's rounding error). A positive `coarse` also stops a
    fit, converged, at a relative change of at most `coarse` (stop
    "coarse"). A frame the solver cannot advance takes no step that
    iteration and its μ grows: JᵀJ has a zero diagonal entry (as when no
    point lies in front of the camera, a cost of +inf), the damped matrix
    is singular, or the step is not finite. A NaN cost counts as +inf. So
    no frame raises, and no frame changes the others of its batch. A fit
    stops unconverged when μ passes 1e16, as with a rank-deficient JᵀJ
    (stop "mu_limit"), or after 200 iterations (stop "max_iterations").
    Frames run in chunks of at most BLOCK padded points.
    """
    p0, obs, sel = _validate_inputs(points0, observed, masks)
    x = np.array(init, dtype=float).reshape(len(sel), 6)
    m = int(sel.sum(axis=1).max(initial=3))
    per = max(1, BLOCK // m)
    results = []
    for c in (slice(lo, lo + per) for lo in range(0, len(x), per)):
        # Each frame's selected points first, in index order, padded to m
        # columns with its first selected point at weight 0.
        order = np.argsort(~sel[c], axis=1, kind="stable")[:, :m]
        wt = np.arange(m) < sel[c].sum(axis=1, keepdims=True)
        col = np.where(wt, order, order[:, :1])
        ov = np.take(obs[c].reshape(-1, 2), col + sel.shape[1] * np.arange(len(col))[:, None], axis=0)
        p = np.take(p0.T, col, axis=1).transpose(1, 0, 2)
        results += _lm_chunk(p, ov.transpose(0, 2, 1), wt.astype(float), k, x[c], coarse)
    return x, results


def fit_rigid(points0, observed, mask, k: Intrinsics, init) -> FitResult:
    """Fit one frame's rigid motion: fit_rigid_frames on a batch of one."""
    return fit_rigid_frames(points0, [observed], [mask], k, [init])[1][0]
