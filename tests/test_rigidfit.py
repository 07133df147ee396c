import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from camsig.geometry import Intrinsics, geodesic_angle, project, so3_exp, so3_log
from camsig import rigidfit
from camsig.rigidfit import fit_rigid, fit_rigid_frames, reproj_cost_grad
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from test_segmentation import KWIDE
from util import K64, pan_roll_path, random_points, rng

# Keep Hypothesis's constant cache out of the working tree.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "camsig-hypothesis")


def make_frame(gen, n=400, w_scale=0.2, t_scale=0.3, noise=0.0, k=K64):
    """One synthetic frame: points, their observed projections, true params."""
    p0 = random_points(gen, n, z_range=(1.5, 4.0), spread=1.0)
    w = gen.normal(size=3)
    w *= w_scale / np.linalg.norm(w)
    t = gen.normal(size=3)
    t *= t_scale / np.linalg.norm(t)
    q = p0 @ so3_exp(w).T + t
    observed = project(q, k)
    if noise > 0.0:
        observed = observed + gen.normal(0.0, noise, size=observed.shape)
    return p0, observed, np.ones(n, dtype=bool), np.concatenate([w, t])


def finite_difference_grad(points0, observed, mask, k, params, h=1e-6):
    grad = np.zeros(6)
    for i in range(6):
        delta = np.zeros(6)
        delta[i] = h
        f_plus, _ = reproj_cost_grad(points0, observed, mask, k, params + delta)
        f_minus, _ = reproj_cost_grad(points0, observed, mask, k, params - delta)
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


class TestCostGrad:
    def test_zero_at_generating_params(self):
        gen = rng(20)
        p0, obs, mask, true_params = make_frame(gen)
        cost, grad = reproj_cost_grad(p0, obs, mask, K64, true_params)
        assert cost < 1e-18
        assert np.linalg.norm(grad) < 1e-9

    def test_gradient_matches_finite_differences_200_configs(self):
        gen = rng(21)
        for _ in range(200):
            n = int(gen.integers(5, 40))
            p0 = random_points(gen, n, z_range=(1.0, 5.0), spread=1.5)
            obs = project(p0, K64) + gen.normal(0.0, 2.0, size=(n, 2))
            params = np.concatenate(
                [gen.normal(size=3) * 0.15, gen.normal(size=3) * 0.1]
            )
            mask = np.ones(n, dtype=bool)
            _, grad = reproj_cost_grad(p0, obs, mask, K64, params)
            fd = finite_difference_grad(p0, obs, mask, K64, params)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5

    def test_single_point_hand_value(self):
        k = Intrinsics(100.0, 100.0, 50.0, 60.0, 200, 200)
        p0 = np.array([[0.0, 0.0, 2.0], [0.5, 0.0, 2.0], [0.0, 0.5, 2.0]])
        obs = project(p0, k)
        mask = np.array([True, False, False])
        # mask needs >= 3 entries total but only the first point is used:
        # translation (0.1, 0, 0) shifts its projection by fx * 0.1 / 2.
        with pytest.raises(ValueError, match="underdetermined"):
            reproj_cost_grad(p0, obs, mask, k, np.zeros(6))
        mask = np.ones(3, dtype=bool)
        params = np.array([0.0, 0.0, 0.0, 0.1, 0.0, 0.0])
        cost, _ = reproj_cost_grad(p0[:1].repeat(3, axis=0), obs[:1].repeat(3, axis=0), mask, k, params)
        assert abs(cost - (k.fx * 0.05) ** 2) < 1e-12

    def test_behind_camera_points_dropped(self):
        gen = rng(22)
        p0, obs, mask, _ = make_frame(gen, n=50)
        params = np.zeros(6)
        params[5] = -10.0  # pushes every point behind the camera
        cost, _ = reproj_cost_grad(p0, obs, mask, K64, params)
        assert np.isinf(cost)
        params[5] = -1.4  # drops only the nearest points
        cost, grad = reproj_cost_grad(p0, obs, mask, K64, params)
        assert np.isfinite(cost) and np.isfinite(grad).all()

    def test_underdetermined_rejected(self):
        p0 = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
        obs = project(p0, K64)
        with pytest.raises(ValueError, match="underdetermined fit"):
            reproj_cost_grad(p0, obs, [True, True, False], K64, np.zeros(6))


class TestFitRigid:
    def test_identity_on_untransformed_points(self):
        gen = rng(23)
        p0 = random_points(gen, 200, z_range=(1.5, 4.0))
        obs = project(p0, K64)
        result = fit_rigid(p0, obs, np.ones(200, dtype=bool), K64, np.zeros(6))
        assert result.final_cost < 1e-18
        assert result.converged
        assert geodesic_angle(result.motion.rotation, np.eye(3)) < 1e-9
        assert np.linalg.norm(result.motion.translation) < 1e-9

    def test_noise_free_recovery(self):
        gen = rng(24)
        p0, obs, mask, true_params = make_frame(gen, w_scale=0.2, t_scale=0.3)
        result = fit_rigid(p0, obs, mask, K64, np.zeros(6))
        assert result.converged
        assert geodesic_angle(result.motion.rotation, so3_exp(true_params[:3])) < 1e-6
        assert np.max(np.abs(result.motion.translation - true_params[3:])) < 1e-6

    def test_noisy_recovery_monte_carlo(self):
        sigma = 0.5
        costs = []
        for seed in range(50):
            gen = rng(1000 + seed)
            p0, obs, mask, true_params = make_frame(gen, noise=sigma)
            result = fit_rigid(p0, obs, mask, K64, np.zeros(6))
            angle = geodesic_angle(result.motion.rotation, so3_exp(true_params[:3]))
            assert np.degrees(angle) < 0.5
            costs.append(result.final_cost)
        expected = 2.0 * sigma**2
        assert abs(np.mean(costs) - expected) / expected < 0.30

    def test_cost_trace_monotone(self):
        gen = rng(25)
        p0, obs, mask, _ = make_frame(gen, noise=1.0)
        result = fit_rigid(p0, obs, mask, K64, np.zeros(6))
        assert np.all(np.diff(result.cost_trace) <= 0.0)

    def test_warm_equals_cold_on_noise_free_data(self):
        gen = rng(26)
        p0, obs, mask, true_params = make_frame(gen)
        cold = fit_rigid(p0, obs, mask, K64, np.zeros(6))
        warm = fit_rigid(p0, obs, mask, K64, true_params + 1e-3)
        assert geodesic_angle(cold.motion.rotation, warm.motion.rotation) < 1e-6
        assert np.max(np.abs(cold.motion.translation - warm.motion.translation)) < 1e-6

    def test_pixel_shift_equivariance_on_plane(self):
        # Constant-depth plane: a uniform pixel shift is exactly a camera
        # translation, so the shifted problem still reaches zero cost.
        gen = rng(27)
        n = 300
        p0 = random_points(gen, n, z_range=(2.0, 2.0), spread=1.0)
        obs = project(p0, K64)
        base = fit_rigid(p0, obs, np.ones(n, dtype=bool), K64, np.zeros(6))
        shifted = obs + np.array([3.0, -2.0])
        moved = fit_rigid(p0, shifted, np.ones(n, dtype=bool), K64, np.zeros(6))
        assert abs(moved.final_cost - base.final_cost) < 1e-9

    def test_iteration_limit_stops_unconverged(self, monkeypatch):
        monkeypatch.setattr(rigidfit, "_MAX_ITERATIONS", 1)
        gen = rng(28)
        p0, obs, mask, _ = make_frame(gen, w_scale=0.3, t_scale=0.5)
        result = fit_rigid(p0, obs, mask, K64, np.zeros(6))
        assert result.iterations == 1
        assert result.converged is False
        assert len(result.cost_trace) == 2

    def test_rank_deficient_normal_equations(self):
        # Three coincident points on the optical axis: the columns of the
        # Jacobian for rotation about and translation along the axis vanish,
        # so the damped normal equations stay singular at every damping.
        p0 = np.tile([0.0, 0.0, 2.0], (3, 1))
        obs = project(p0, K64) + np.array([3.0, -2.0])
        result = fit_rigid(p0, obs, np.ones(3, dtype=bool), K64, np.zeros(6))
        assert result.converged is False
        assert np.isfinite(result.motion.rotation).all()
        assert np.isfinite(result.motion.translation).all()
        assert np.isfinite(result.final_cost)


class TestBatch:
    def batch(self):
        """Three frames over shared points: normal, rank deficient, far from optimum.

        Frame 0 sees 400 points from near its true motion; frame 1 sees only
        three coincident points on the optical axis, so JᵀJ has zero rows;
        frame 2 sees the same 400 points, noisy, under a large motion.
        """
        gen = rng(29)
        p_rand = random_points(gen, 400, z_range=(1.5, 4.0), spread=1.0)
        points0 = np.concatenate([p_rand, np.tile([0.0, 0.0, 2.0], (3, 1))])
        masks = np.zeros((3, 403), dtype=bool)
        masks[[0, 2], :400] = True
        masks[1, 400:] = True
        near = np.array([0.05, -0.1, 0.08, 0.2, -0.1, 0.1])
        far = np.array([0.5, -0.6, 0.4, 0.3, 0.2, 0.4])
        observed = np.zeros((3, 403, 2))
        observed[0, :400] = project(p_rand @ so3_exp(near[:3]).T + near[3:], K64)
        observed[1, 400:] = project(points0[400:], K64) + np.array([3.0, -2.0])
        observed[2, :400] = project(p_rand @ so3_exp(far[:3]).T + far[3:], K64)
        observed[2, :400] += gen.normal(0.0, 1.0, size=(400, 2))
        init = np.array([near + 1e-3, np.zeros(6), np.zeros(6)])
        return points0, observed, masks, init

    def test_rank_deficient_and_capped_frames_in_one_batch(self, monkeypatch):
        points0, observed, masks, init = self.batch()
        cap = 6
        uncapped = fit_rigid_frames(points0, observed, masks, K64, init)[1]
        assert uncapped[0].converged and uncapped[2].converged
        assert uncapped[0].iterations < cap < uncapped[2].iterations
        assert uncapped[1].iterations == 20  # μ passes 1e16 after 20 rejected steps

        monkeypatch.setattr(rigidfit, "_MAX_ITERATIONS", cap)
        params, fits = fit_rigid_frames(points0, observed, masks, K64, init)
        normal, deficient, capped = fits
        assert normal.converged and normal.iterations == uncapped[0].iterations
        alone_params, (alone,) = fit_rigid_frames(points0, observed[:1], masks[:1], K64, init[:1])
        assert abs(normal.final_cost - alone.final_cost) <= 1e-9 * alone.final_cost
        assert np.allclose(params[0], alone_params[0], rtol=1e-9, atol=0.0)
        assert deficient.converged is False and deficient.iterations == cap
        assert np.array_equal(params[1], init[1]) and np.isfinite(deficient.final_cost)
        assert np.isfinite(deficient.motion.rotation).all() and np.isfinite(deficient.motion.translation).all()
        assert capped.converged is False and capped.iterations == cap
        assert [len(f.cost_trace) for f in fits] == [f.iterations + 1 for f in fits]

    def test_single_frame_fit_is_a_batch_of_one(self):
        points0, observed, masks, init = self.batch()
        params, (batched,) = fit_rigid_frames(points0, observed[2:], masks[2:], K64, init[2:])
        single = fit_rigid(points0, observed[2], masks[2], K64, init[2])
        assert single.final_cost == batched.final_cost and single.iterations == batched.iterations
        assert np.array_equal(single.motion.translation, params[0, 3:])
        assert np.array_equal(single.motion.rotation, so3_exp(params[0, :3]))

    def test_frames_beyond_one_chunk_match_their_own_fits(self):
        # About 7,400 selected points per frame, so each chunk holds two frames.
        gen = rng(30)
        points0 = random_points(gen, 8192, z_range=(1.5, 4.0), spread=1.0)
        motions = [gen.normal(size=6) * 0.1 for _ in range(5)]
        observed = np.stack([project(points0 @ so3_exp(m[:3]).T + m[3:], K64) for m in motions])
        observed += gen.normal(0.0, 0.5, size=observed.shape)
        masks = gen.random((5, 8192)) < 0.9
        params, fits = fit_rigid_frames(points0, observed, masks, K64, np.zeros((5, 6)))
        for f, fit in enumerate(fits):
            alone = fit_rigid(points0, observed[f], masks[f], K64, np.zeros(6))
            assert fit.converged
            assert (fit.final_cost, fit.iterations, fit.stop) == (alone.final_cost, alone.iterations, alone.stop)
            assert fit.cost_trace.tobytes() == alone.cost_trace.tobytes()
            assert np.array_equal(alone.motion.translation, params[f, 3:])
            assert np.array_equal(alone.motion.rotation, so3_exp(params[f, :3]))

    def test_shape_and_selection_checks(self):
        points0, observed, masks, init = self.batch()
        with pytest.raises(ValueError, match="equal length"):
            fit_rigid_frames(points0[:-1], observed, masks, K64, init)
        masks[2, 2:] = False  # two points left in frame 2
        with pytest.raises(ValueError, match="underdetermined"):
            fit_rigid_frames(points0, observed, masks, K64, init)


def test_each_stop_reason_is_reached(monkeypatch):
    exact = make_frame(rng(24))[:3]
    assert fit_rigid(*exact, K64, np.zeros(6)).stop == "gradient"
    noisy = make_frame(rng(25), noise=1.0)[:3]
    full = fit_rigid(*noisy, K64, np.zeros(6))
    assert full.stop == "floor" and full.converged
    _, (coarse,) = fit_rigid_frames(noisy[0], [noisy[1]], [noisy[2]], K64, [np.zeros(6)], coarse=1e-6)
    assert coarse.stop == "coarse" and coarse.converged
    assert coarse.iterations < full.iterations and coarse.final_cost >= full.final_cost
    points0, observed, masks, init = TestBatch().batch()
    deficient = fit_rigid_frames(points0, observed, masks, K64, init)[1][1]
    assert deficient.stop == "mu_limit" and not deficient.converged
    monkeypatch.setattr(rigidfit, "_MAX_ITERATIONS", 1)
    capped = fit_rigid(*noisy, K64, np.zeros(6))
    assert capped.stop == "max_iterations" and not capped.converged


def criterion2_frames(seed):
    """Per-frame fit problems of a criterion-2 scene under its true static mask."""
    objects = [
        DynamicObject(center=(8.0, 8.0), radius=4.6, velocity=(0.08, 0.0, 0.0)),
        DynamicObject(center=(23.0, 8.0), radius=4.6, velocity=(-0.08, 0.0, 0.0)),
        DynamicObject(center=(8.0, 23.0), radius=4.6, velocity=(0.0, 0.08, 0.0)),
        DynamicObject(center=(23.0, 23.0), radius=4.6, velocity=(0.0, -0.08, 0.0)),
    ]
    spec = SceneSpec(
        frames=12, grid_h=32, grid_w=32, intrinsics=KWIDE,
        z_near=1.5, z_far=2.5, depth_jitter=0.5, objects=objects,
        track_noise=0.5, seed=seed,
    )
    gt = generate_scene(spec, pan_roll_path(12, pan=0.2, roll=0.1))
    field = gt.field
    static = gt.partition.static_mask.ravel()
    for lam in range(1, field.num_frames):
        sel = static & field.visibility[lam]
        obs = np.zeros((field.num_points, 2))
        obs[sel] = project(field.positions[lam][sel], KWIDE)
        yield field.positions[0], obs, sel, KWIDE


def reference_cost(p0, obs, mask, k):
    """Optimal mean squared reprojection error from scipy's MINPACK LM."""
    from scipy.optimize import least_squares  # test extra; only this oracle needs it

    p, o = p0[mask], obs[mask]

    def residuals(x):
        q = p @ so3_exp(x[:3]).T + x[3:]
        return (project(q, k) - o).ravel()

    ref = least_squares(residuals, np.zeros(6), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return 2.0 * ref.cost / p.shape[0]


def test_final_cost_matches_reference_optimum():
    problems = [make_frame(rng(2000 + seed), noise=0.5)[:3] + (K64,) for seed in range(10)]
    for seed in (5000, 5001):
        problems.extend(criterion2_frames(seed))
    for p0, obs, mask, k in problems:
        result = fit_rigid(p0, obs, mask, k, np.zeros(6))
        assert result.converged
        assert result.final_cost <= reference_cost(p0, obs, mask, k) * (1.0 + 1e-12) + 1e-20


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    line_frames=st.integers(1, 3),
    line_points=st.integers(3, 12),
    noise=st.floats(5.0, 50.0),
    healthy_at=st.integers(0, 4),
)
def test_frames_the_solver_cannot_advance_take_no_step(seed, line_frames, line_points, noise, healthy_at):
    # A batch over one shared cloud: a healthy frame that sees every point,
    # frames that see only a line of points at one depth under 5-50 px
    # noise (rank-deficient JᵀJ, whose damped matrix rounding can make
    # singular), and a frame whose init puts every point behind the camera.
    gen = rng(seed)
    line = np.zeros((line_points, 3))
    line[:, 1] = np.linspace(-0.75, 0.75, line_points)
    line[:, 2] = 2.0
    points0 = np.concatenate([random_points(gen, 40, z_range=(1.5, 2.5), spread=1.0), line])
    n = len(points0)
    truth = np.concatenate([gen.normal(0.0, 0.05, 3), gen.normal(0.0, 0.1, 3)])
    healthy = project(points0 @ so3_exp(truth[:3]).T + truth[3:], KWIDE) + gen.normal(0.0, 0.5, (n, 2))
    observed = [healthy]
    masks = [np.ones(n, dtype=bool)]
    init = [np.zeros(6)]
    for _ in range(line_frames):
        observed.append(project(points0, KWIDE) + gen.normal(0.0, noise, (n, 2)))
        masks.append(np.arange(n) >= 40)
        init.append(gen.normal(0.0, 0.05, 6))
    observed.append(project(points0, KWIDE))
    masks.append(np.ones(n, dtype=bool))
    init.append(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -5.0]))
    order = np.roll(np.arange(len(init)), healthy_at)  # where the healthy frame sits
    at = int(np.flatnonzero(order == 0)[0])
    params, fits = fit_rigid_frames(
        points0, np.array(observed)[order], np.array(masks)[order], KWIDE, np.array(init)[order]
    )
    assert np.isfinite(params).all()
    for fit in fits:
        assert np.all(fit.cost_trace[1:] <= fit.cost_trace[:-1])
        assert np.isfinite(fit.motion.rotation).all() and np.isfinite(fit.motion.translation).all()
    behind = fits[int(np.flatnonzero(order == len(init) - 1)[0])]
    assert behind.stop == "mu_limit" and behind.iterations == 20 and behind.final_cost == np.inf
    alone_params, (alone,) = fit_rigid_frames(points0, [healthy], masks[:1], KWIDE, init[:1])
    assert np.array_equal(params[at], alone_params[0]) and fits[at].final_cost == alone.final_cost
    assert fits[at].converged and (fits[at].iterations, fits[at].stop) == (alone.iterations, alone.stop)
