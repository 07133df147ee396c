"""Per-frame rigid motion estimation by reprojection least squares.

The objective is the mean squared pixel error between observed projections
and the projections of rigidly transported first-frame points. Rotations
are parameterized in axis-angle coordinates so the solver runs
unconstrained; minimization uses damped Gauss-Newton (Levenberg–Marquardt)
on the 6×6 normal equations, stacked over a batch of frames that share
their first-frame points (a single frame is a batch of one). All reductions
run in fixed index order over each frame's own selected points, so results
are bitwise deterministic and a frame's fit does not depend on its batch.
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


def _normal_equations(p, ov, spans, k, x):
    """Cost, JᵀJ, Jᵀr and point count of each frame f's pixel residuals r.

    Frame f's first-frame points are the rows spans[f] of p (P×3), their
    observed pixels those of ov (P×2), and x[f] its parameters; its sums run
    over its own rows only. Points moved behind the camera (z < Z_MIN) have
    zero residuals and, through fx/z and fy/z, zero Jacobian rows; with no
    survivors the cost is +inf so the solver rejects such parameters.
    """
    r_mat, jr = so3_exp_batch(x[:, :3])
    s = np.empty((3, len(p)))
    for r, c in zip(r_mat, spans):
        np.matmul(r, p[c].T, out=s[:, c])
    t = np.repeat(x[:, 3:].T, [c.stop - c.start for c in spans], axis=1)
    z = s[2] + t[2]
    w = z >= Z_MIN
    inv_z = w / np.where(w, z, 1.0)
    u = (s[0] + t[0]) * inv_z
    v = (s[1] + t[1]) * inv_z

    # Jacobian over (phi, t), where phi rotates on the left:
    # exp(phi) R p + t + dt moves q by phi x (R p) + dt. The pinhole
    # derivative of the u residual is fx/qz (1, 0, -u), giving the row
    # fx/qz ((R p) x (1, 0, -u), 1, 0, -u); likewise for v. e holds J's
    # columns, times _FLIP, then r. One product over a frame's u columns
    # then its v columns, copied side by side, gives its JᵀJ and Jᵀr.
    sx, sy, sz = s
    e = np.empty((7, 2, len(p)))
    eu, ev = e[:, 0], e[:, 1]
    fu, fv = np.multiply(k.fx, inv_z, out=eu[3]), np.multiply(k.fy, inv_z, out=ev[4])
    ufu, vfv = np.multiply(u, fu, out=eu[5]), np.multiply(v, fv, out=ev[5])
    eu[0], eu[1], eu[2], eu[4] = ufu * sy, sz * fu + ufu * sx, -sy * fu, 0.0
    ev[0], ev[1], ev[2], ev[3] = sz * fv + vfv * sy, vfv * sx, sx * fv, 0.0
    eu[6], ev[6] = k.fx * u + k.cx - ov[:, 0], k.fy * v + k.cy - ov[:, 1]
    e[6] *= w
    jtj_jtr, block = np.empty((len(x), 6, 7)), np.empty(14 * max(len(p[c]) for c in spans))
    for f, c in enumerate(spans):
        ef = block[: 14 * len(p[c])].reshape(7, 2, -1)
        ef[...] = e[:, :, c]
        ef = ef.reshape(7, -1)
        # 6×7, not 6×6: numpy sends a square J @ J.T to BLAS syrk, 3× slower here.
        np.matmul(ef[:6], ef.T, out=jtj_jtr[f])
    # exp(w + dw) = exp(R J_r(w) dw) exp(w) to first order, so phi = R J_r(w) dw.
    chain = np.tile(np.diag(_FLIP), (len(x), 1, 1))
    chain[:, :3, :3] = _FLIP[:3, None] * (r_mat @ jr)
    chain_t = chain.transpose(0, 2, 1)
    jtj = chain_t @ jtj_jtr[:, :, :6] @ chain
    jtr = (chain_t @ jtj_jtr[:, :, 6:])[..., 0]
    starts = [c.start for c in spans]
    n = np.add.reduceat(w, starts, dtype=float)
    rr = np.add.reduceat(np.square(e[6]), starts, axis=1).sum(axis=0)  # each frame's u, plus its v, residuals
    cost = np.where(n > 0.0, rr / np.maximum(n, 1.0), math.inf)
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
    cost, _, jtr, n = _normal_equations(p0[sel[0]], obs[0, sel[0]], _spans(sel.sum(axis=1)), k, x)
    return float(cost[0]), (2.0 / max(n[0], 1.0)) * jtr[0]


def _spans(counts) -> list:
    """Consecutive row slices of these lengths, from row 0."""
    return [slice(int(b - c), int(b)) for c, b in zip(counts, np.cumsum(counts))]


def _lm_chunk(p, ov, spans, k: Intrinsics, x, coarse: float) -> list:
    """Levenberg–Marquardt on one chunk of frames; x (F×6) is updated in place.

    Frame f's points are the rows spans[f] of p and ov; it keeps its own
    damping, stop reason, iteration count and cost trace. A round makes one
    stacked solve and one evaluation of the running frames; a stopped frame
    drops out.
    """

    def evaluate(params):
        cost, jtj, jtr, n = _normal_equations(p, ov, spans, k, params)
        cost[np.isnan(cost) | np.isnan(jtr).any(axis=1)] = math.inf  # rejected as a trial
        scale = np.sqrt(n[:, None] * np.diagonal(jtj, axis1=1, axis2=2))  # px RMS per unit
        grad = 2.0 * np.abs(jtr) / np.where(scale > 0.0, scale, 1.0)
        return cost, jtj, jtr, n, (n > 0.0) & (grad.max(axis=1) <= _GRADIENT_TOLERANCE)

    nf = len(x)
    f, h, g, _, small = evaluate(x)
    history = [f.copy()]  # every cost after each round: a stopped frame's stays put
    stop = np.where(small, "gradient", "").astype(object)  # "" while running
    mu = np.full(nf, _MU_INIT)
    iterations = np.zeros(nf, dtype=int)
    diag = np.arange(6)
    rows = np.arange(nf)  # the running frames, whose points p and ov hold
    running = stop == ""
    while running.any():
        if not running[rows].all():
            kept = [c for c, r in zip(spans, rows) if running[r]]
            spans = _spans([len(p[c]) for c in kept])
            for old, new in zip(kept, spans):  # in place, frame by frame: no second copy of the points
                p[new], ov[new] = p[old], ov[old]
            p, ov, rows = p[: spans[-1].stop], ov[: spans[-1].stop], rows[running[rows]]
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
        # det, cannot underflow to zero. Such a frame is evaluated where it
        # stands, which changes no other frame's bits, and is not updated.
        h_r, g_r, f_r = h[rows], g[rows], f[rows]
        dg = h_r[:, diag, diag]
        ok = (dg > 0.0).all(axis=1)
        d = np.sqrt(np.where(ok[:, None], dg, 1.0))
        c = np.where(ok[:, None, None], h_r / d[:, :, None] / d[:, None, :], np.eye(6))
        c[:, diag, diag] += mu[rows, None]
        ok &= np.linalg.slogdet(c)[0] != 0.0
        c[~ok] = np.eye(6)
        step = np.linalg.solve(c, -(g_r / d)[..., None])[..., 0] / d
        ok &= np.isfinite(step).all(axis=1)
        x_new = x[rows] + np.where(ok[:, None], step, 0.0)
        f_new, h_new, g_new, n_new, small = evaluate(x_new)
        f_old, won = f_r[ok], ok & (f_new <= f_r)
        change = np.abs(f_new[ok] - f_old)
        stop[rows[ok]] = np.where(
            change <= n_new[ok] * _U * f_old, "floor", np.where(change <= coarse * f_old, "coarse", "")
        )
        stop[rows[won & small]] = "gradient"
        acc = rows[won]
        x[acc], f[acc], h[acc], g[acc] = x_new[won], f_new[won], h_new[won], g_new[won]
        mu[rows] *= np.where(won, 1.0 / _MU_FACTOR, _MU_FACTOR)
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
    no frame raises. A fit stops unconverged when μ passes 1e16, as with a
    rank-deficient JᵀJ (stop "mu_limit"), or after 200 iterations (stop
    "max_iterations"). A frame's fit reads only its own selected points, so
    it gives the same bits in any batch. Chunks of whole frames run in turn,
    each of at most BLOCK points unless it holds a single frame.
    """
    p0, obs, sel = _validate_inputs(points0, observed, masks)
    x = np.array(init, dtype=float).reshape(len(sel), 6)
    counts = sel.sum(axis=1)
    ends = np.cumsum(counts)
    results, lo = [], 0
    while lo < len(x):  # a chunk: whole frames, at most BLOCK points unless it holds one
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + BLOCK, side="right")))
        at = np.flatnonzero(sel[lo:hi])  # the chunk's selected points, frame by frame, in index order
        p, ov = np.take(p0, at % len(p0), axis=0), np.take(obs[lo:hi].reshape(-1, 2), at, axis=0)
        results += _lm_chunk(p, ov, _spans(counts[lo:hi]), k, x[lo:hi], coarse)
        lo = hi
    return x, results


def fit_rigid(points0, observed, mask, k: Intrinsics, init) -> FitResult:
    """Fit one frame's rigid motion: fit_rigid_frames on a batch of one."""
    return fit_rigid_frames(points0, [observed], [mask], k, [init])[1][0]
