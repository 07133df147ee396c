import numpy as np
import pytest

from camsig.geometry import Intrinsics, geodesic_angle, project, so3_exp, so3_log
from camsig.rigidfit import FitConfig, fit_rigid, reproj_cost_grad
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from test_segmentation import KWIDE
from util import K64, pan_roll_path, random_points, rng


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        for tol in (0.0, -1e-10):
            with pytest.raises(ValueError):
                FitConfig(gradient_tolerance=tol)

    def test_iteration_limit_stops_unconverged(self):
        gen = rng(28)
        p0, obs, mask, _ = make_frame(gen, w_scale=0.3, t_scale=0.5)
        result = fit_rigid(p0, obs, mask, K64, np.zeros(6), FitConfig(max_iterations=1))
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
        assert result.final_cost <= reference_cost(p0, obs, mask, k) * (1.0 + 1e-9) + 1e-20
