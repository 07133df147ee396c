import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from camsig.geometry import (
    Intrinsics,
    RigidMotion,
    Z_MIN,
    apply,
    compose,
    geodesic_angle,
    in_image,
    is_rotation,
    json_list,
    json_number,
    json_object,
    pinhole,
    project,
    so3_exp,
    so3_exp_batch,
    so3_log,
    unproject,
)
from util import K64, random_motion, random_rotation, random_points, rng


class TestSo3:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))

    def test_exp_quarter_turn_about_x(self):
        r = so3_exp(np.array([np.pi / 2, 0.0, 0.0]))
        assert np.allclose(r @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_log_identity(self):
        assert np.allclose(so3_log(np.eye(3)), 0.0, atol=1e-15)

    def test_log_quarter_turn_about_z(self):
        r = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        assert np.allclose(so3_log(r), [0.0, 0.0, np.pi / 2], atol=1e-12)

    def test_log_exp_roundtrip_1000_samples(self):
        gen = rng(101)
        for _ in range(1000):
            w = gen.normal(size=3)
            w *= gen.uniform(0.0, 3.0) / np.linalg.norm(w)
            assert np.max(np.abs(so3_log(so3_exp(w)) - w)) < 1e-10

    def test_exp_matches_scipy(self):
        gen = rng(102)
        for _ in range(200):
            w = gen.normal(size=3)
            w *= gen.uniform(0.0, 3.1) / np.linalg.norm(w)
            assert np.allclose(so3_exp(w), Rotation.from_rotvec(w).as_matrix(), atol=1e-12)

    def test_exp_output_is_rotation(self):
        gen = rng(103)
        for _ in range(300):
            w = gen.normal(size=3)
            w *= gen.uniform(0.0, np.pi - 1e-3) / np.linalg.norm(w)
            assert is_rotation(so3_exp(w), atol=1e-9)

    def test_log_near_pi_branch(self):
        gen = rng(104)
        for _ in range(100):
            axis = gen.normal(size=3)
            axis /= np.linalg.norm(axis)
            w = axis * gen.uniform(2.9, np.pi - 1e-5)
            r = so3_exp(w)
            assert np.allclose(so3_exp(so3_log(r)), r, atol=1e-9)

    def test_log_at_pi_rejected(self):
        r = np.diag([1.0, -1.0, -1.0])  # rotation by pi about x
        with pytest.raises(ValueError, match="angle pi"):
            so3_log(r)

    def test_small_angle_roundtrip(self):
        for scale in (1e-12, 1e-9, 1e-6, 1e-4):
            w = np.array([scale, -scale / 2, scale / 3])
            assert np.max(np.abs(so3_log(so3_exp(w)) - w)) < 1e-16 + 1e-10 * scale

    def test_right_jacobian_matches_finite_difference(self):
        gen = rng(105)
        h = 1e-7
        for _ in range(50):
            w = gen.normal(size=3) * 0.8
            jr = so3_exp_batch(w[None])[1][0]
            # exp(w + d) ~ exp(w) exp(J_r d)
            for axis in range(3):
                d = np.zeros(3)
                d[axis] = h
                lhs = so3_exp(w + d)
                rhs = so3_exp(w) @ so3_exp(jr @ d)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


    def test_batch_matches_single_rotations_on_both_branches(self):
        # Rows on either side of the small-angle crossover, zero included.
        gen = rng(106)
        w = gen.normal(size=(40, 3))
        w *= np.geomspace(1e-9, 3.0, 40)[:, None] / np.linalg.norm(w, axis=1, keepdims=True)
        w[0] = 0.0
        rotations, jacobians = so3_exp_batch(w)
        assert rotations.shape == jacobians.shape == (40, 3, 3)
        for wi, r in zip(w, rotations):
            assert np.max(np.abs(r - so3_exp(wi))) < 1e-15
        assert np.array_equal(rotations[0], np.eye(3)) and np.array_equal(jacobians[0], np.eye(3))

class TestProjection:
    def test_optical_axis(self):
        k = Intrinsics(1.0, 1.0, 0.0, 0.0, 10, 10)
        assert np.allclose(project(np.array([0.0, 0.0, 1.0]), k), [0.0, 0.0])

    def test_direct_formula(self):
        k = Intrinsics(100.0, 100.0, 50.0, 60.0, 200, 200)
        assert np.allclose(project(np.array([1.0, 2.0, 2.0]), k), [100.0, 160.0])

    def test_behind_camera_rejected(self):
        k = Intrinsics(100.0, 100.0, 50.0, 60.0, 200, 200)
        with pytest.raises(ValueError, match="behind camera"):
            project(np.array([0.0, 0.0, -1.0]), k)

    def test_pinhole_flags_points_behind_camera(self):
        gen = rng(107)
        p = random_points(gen, 200, z_range=(-1.0, 3.0))
        p[:3, 2] = [Z_MIN, np.nextafter(Z_MIN, 0.0), 0.0]
        uv, front = pinhole(p, K64)
        assert np.array_equal(front, p[:, 2] >= Z_MIN)
        assert front[0] and not front[1] and not front[2]
        assert np.array_equal(uv[front], project(p[front], K64))
        with pytest.raises(ValueError, match="behind camera"):
            project(p, K64)

    def test_in_image_edges(self):
        k = Intrinsics(10.0, 10.0, 4.0, 3.0, 8, 6)
        edge = np.nextafter
        uv = np.array([
            [-0.5, -0.5],
            [7.5, 5.5],
            [-0.5, 5.5],
            [7.5, -0.5],
            [edge(-0.5, -1.0), 0.0],
            [edge(7.5, 8.0), 0.0],
            [0.0, edge(-0.5, -1.0)],
            [0.0, edge(5.5, 6.0)],
        ])
        assert in_image(uv, k).tolist() == [True] * 4 + [False] * 4

    def test_unproject_principal_point(self):
        k = Intrinsics(100.0, 100.0, 50.0, 60.0, 200, 200)
        assert np.allclose(unproject(np.array([50.0, 60.0]), 2.0, k), [0.0, 0.0, 2.0])

    def test_unproject_inverse_of_projection_example(self):
        k = Intrinsics(100.0, 100.0, 50.0, 60.0, 200, 200)
        assert np.allclose(unproject(np.array([100.0, 160.0]), 2.0, k), [1.0, 2.0, 2.0])

    def test_unproject_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="non-positive depth"):
            unproject(np.array([1.0, 1.0]), 0.0, K64)

    def test_roundtrip_1000_samples(self):
        gen = rng(106)
        p = random_points(gen, 1000, z_range=(0.1, 100.0), spread=50.0)
        uv = project(p, K64)
        back = unproject(uv, p[:, 2], K64)
        assert np.max(np.abs(back - p)) < 1e-9
        forward = project(unproject(uv, p[:, 2], K64), K64)
        assert np.max(np.abs(forward - uv)) < 1e-9


class TestRigidMotion:
    def test_identity_leaves_points(self):
        p = np.array([0.3, -0.2, 1.5])
        assert np.array_equal(apply(RigidMotion.identity(), p), p)

    def test_translation(self):
        m = RigidMotion(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(apply(m, np.array([0.0, 0.0, 1.0])), [1.0, 0.0, 1.0])

    def test_compose_matches_matrix_algebra(self):
        gen = rng(107)
        for _ in range(100):
            a = RigidMotion(random_rotation(gen), gen.normal(size=3))
            b = RigidMotion(random_rotation(gen), gen.normal(size=3))
            p = gen.normal(size=(5, 3))
            assert np.allclose(apply(compose(a, b), p), apply(a, apply(b, p)), atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            RigidMotion(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            RigidMotion(np.full((3, 3), np.nan), np.zeros(3))


class TestGeodesic:
    def test_zero_on_equal(self):
        gen = rng(108)
        r = random_rotation(gen)
        assert geodesic_angle(r, r) < 1e-7

    def test_quarter_turn(self):
        r = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        assert abs(geodesic_angle(np.eye(3), r) - np.pi / 2) < 1e-12

    def test_symmetric(self):
        gen = rng(109)
        for _ in range(50):
            a, b = random_rotation(gen), random_rotation(gen)
            assert abs(geodesic_angle(a, b) - geodesic_angle(b, a)) < 1e-12

    def test_triangle_inequality(self):
        gen = rng(110)
        for _ in range(200):
            a, b, c = (random_rotation(gen) for _ in range(3))
            assert geodesic_angle(a, c) <= geodesic_angle(a, b) + geodesic_angle(b, c) + 1e-12


class TestIntrinsics:
    def test_from_dict_roundtrip(self):
        d = {"fx": 64.0, "fy": 64.0, "cx": 31.5, "cy": 31.5, "width": 64, "height": 64}
        assert Intrinsics.from_dict(d).to_dict() == d

    def test_unknown_key_rejected(self):
        d = {"fx": 1.0, "fy": 1.0, "cx": 0.0, "cy": 0.0, "width": 2, "height": 2, "skew": 0.0}
        with pytest.raises(ValueError, match="unknown intrinsics keys"):
            Intrinsics.from_dict(d)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing intrinsics keys"):
            Intrinsics.from_dict({"fx": 1.0})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            Intrinsics(-1.0, 1.0, 0.0, 0.0, 2, 2)
        with pytest.raises(ValueError):
            Intrinsics(1.0, 1.0, 5.0, 0.0, 2, 2)

    def test_infinite_focal_length_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            Intrinsics(np.inf, 1.0, 0.0, 0.0, 2, 2)
        with pytest.raises(ValueError, match="finite and positive"):
            Intrinsics(1.0, np.nan, 0.0, 0.0, 2, 2)
        d = {"fx": 64.0, "fy": float("inf"), "cx": 31.5, "cy": 31.5, "width": 64, "height": 64}
        with pytest.raises(ValueError, match="finite and positive"):
            Intrinsics.from_dict(d)


class TestJsonReader:
    def test_integral_values_read_as_ints(self):
        assert json_number({"n": 16.0}, "n", integer=True) == 16
        assert type(json_number({"n": 16.0}, "n", integer=True)) is int
        assert json_number({"g": [4.0, 8]}, "g", (2,), integer=True) == [4, 8]
        assert type(json_number({"x": 3}, "x")) is float

    @pytest.mark.parametrize("value", [None, True, "16", [16], 2.5, float("nan"), float("inf"), 10**400])
    def test_integer_field_rejects(self, value):
        with pytest.raises(ValueError, match="^n: expected an integer, got "):
            json_number({"n": value}, "n", integer=True)

    @pytest.mark.parametrize(
        "value", [None, False, 3.0, [1.0], [1.0, None], [1.0, [2.0]], [[1.0], [2.0]], {"a": 1}, [1.0, 10**400]]
    )
    def test_array_field_rejects(self, value):
        with pytest.raises(ValueError, match="^v: expected 2 numbers, got "):
            json_number({"v": value}, "v", (2,))

    def test_matrix_field_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="^R: expected 3x3 numbers, got "):
            json_number({"R": [[1, 0, 0], [0, 1], [0, 0, 1]]}, "R", (3, 3))
        assert np.array_equal(json_number({"R": np.eye(3).tolist()}, "R", (3, 3)), np.eye(3))

    def test_non_finite_floats_pass_through(self):
        assert np.isnan(json_number({"x": float("nan")}, "x"))
        assert json_number({"x": [float("inf"), 1.0]}, "x", (2,))[0] == np.inf

    def test_default_only_for_absent_keys(self):
        assert json_number({}, "x", default=0.5) == 0.5
        assert json_list({}, "xs", default=[]) == []
        with pytest.raises(ValueError, match="^x: expected a number, got null"):
            json_number({"x": None}, "x", default=0.5)
        with pytest.raises(ValueError, match="^xs: expected a list, got 3"):
            json_list({"xs": 3}, "xs", default=[])

    def test_object_keys(self):
        assert json_object({"a": 1, "b": 2}, "thing", ("a",), ("b", "c")) == {"a": 1, "b": 2}
        with pytest.raises(ValueError, match=r"^thing: expected an object, got \[1, 2\]"):
            json_object([1, 2], "thing", ("a",))
        with pytest.raises(ValueError, match=r"^unknown thing keys: \['z'\]"):
            json_object({"a": 1, "z": 0}, "thing", ("a",))
        with pytest.raises(ValueError, match=r"^missing thing keys: \['a'\]"):
            json_object({"b": 1}, "thing", ("a",), ("b",))

    def test_long_values_are_shortened_in_messages(self):
        with pytest.raises(ValueError) as info:
            json_number({"x": list(range(1000))}, "x")
        assert len(str(info.value)) < 100 and str(info.value).endswith("...")


def reference_apply(m, points):
    """The transport the recorded outputs were made with: einsum over
    row-major (x, y, z) triples. einsum sums a strided triple in another
    order, so the reference always gets a C-ordered copy."""
    p = np.ascontiguousarray(points, dtype=float)
    return np.einsum("ij,...j->...i", m.rotation, p) + m.translation


def reference_pinhole(points, k):
    p = np.asarray(points, dtype=float)
    z = p[..., 2]
    uv = np.empty(p.shape[:-1] + (2,))
    with np.errstate(divide="ignore", invalid="ignore"):
        uv[..., 0] = k.fx * p[..., 0] / z + k.cx
        uv[..., 1] = k.fy * p[..., 1] / z + k.cy
    return uv, z >= Z_MIN


def reference_unproject(px, depth, k):
    uv = np.asarray(px, dtype=float)
    out = np.empty(uv.shape[:-1] + (3,))
    out[..., 0] = (uv[..., 0] - k.cx) / k.fx * depth
    out[..., 1] = (uv[..., 1] - k.cy) / k.fy * depth
    out[..., 2] = depth
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def layouts(a):
    """The same array C-ordered, Fortran-ordered, strided and coordinate-major."""
    wide = np.zeros(a.shape[:-1] + (3 * a.shape[-1],))
    wide[..., 1::3] = a
    return {
        "C": np.ascontiguousarray(a),
        "F": np.asfortranarray(a),
        "strided": wide[..., 1::3],
        "columns": np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1),
    }


def kernel_points():
    """(T, N, 3) points in front of, at and behind the camera plane."""
    gen = rng(108)
    p = random_points(gen, 4 * 60, z_range=(-1.0, 4.0)).reshape(4, 60, 3)
    p[0, :5, 2] = [Z_MIN, np.nextafter(Z_MIN, 0.0), 0.0, -Z_MIN, -0.0]
    p[1, :2, :2] = 0.0  # on the optical axis
    p[1, 2] = [-0.0, 0.5, 2.0]
    return p


def kernel_motions():
    gen = rng(109)
    signed_zeros = RigidMotion(
        np.array([[1.0, -0.0, -0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, 1.0]]), np.array([-0.0, 0.0, -0.0])
    )
    motions = [RigidMotion.identity(), signed_zeros]
    motions += [random_motion(gen, max_angle=2.5, max_shift=2.0) for _ in range(4)]
    return motions


def by_shape(a):
    """(T, N, k) data as one (T, N, k), one (N, k) and several (k,) arrays."""
    return [a, a[1]] + list(a[2, :6]) + list(a[0, :5])


class TestColumnKernel:
    """apply, pinhole and unproject against the arithmetic of the recorded outputs."""

    def test_data_tells_summation_orders_apart(self):
        # Left-to-right sums differ from the reference in the last bits on
        # this data, so a change of order cannot pass the tests below.
        p = kernel_points()
        m = kernel_motions()[2]
        r, t = m.rotation, m.translation
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        left = np.stack([((r[i, 0] * x + r[i, 1] * y) + r[i, 2] * z) + t[i] for i in range(3)], -1)
        assert not np.array_equal(left, reference_apply(m, p))

    def test_apply_matches_einsum_reference(self):
        for m in kernel_motions():
            for p in by_shape(kernel_points()):
                want = reference_apply(m, p)
                for name, q in layouts(p).items():
                    got = apply(m, q)
                    assert got.shape == p.shape and got.dtype == np.float64, name
                    assert np.array_equal(bits(got), bits(want)), name

    def test_pinhole_matches_inline_arithmetic(self):
        k = Intrinsics(48.0, 52.5, 15.5, 14.25, 32, 30)
        for p in by_shape(kernel_points()):
            want_uv, want_front = reference_pinhole(p, k)
            for name, q in layouts(p).items():
                uv, front = pinhole(q, k)
                assert uv.shape == p.shape[:-1] + (2,) and np.shape(front) == p.shape[:-1], name
                assert np.array_equal(front, want_front), name
                assert np.array_equal(bits(uv), bits(want_uv)), name

    def test_buffered_calls_match_allocating_calls(self):
        # Written into NaN-filled rows of a larger buffer, apply and pinhole
        # give the allocating calls' bits, for a single point and for
        # (N, 3) and (T, N, 3) points.
        k = Intrinsics(48.0, 52.5, 15.5, 14.25, 32, 30)
        for m in kernel_motions():
            for p in by_shape(kernel_points()):
                shape = p.shape[:-1]
                for name, q in layouts(p).items():
                    big = np.full((8,) + shape, np.nan)
                    got = apply(m, q, buffer=(big[1:4], big[4, ...]))
                    assert np.shares_memory(got, big[1:4]), name
                    assert got.shape == p.shape and np.array_equal(bits(got), bits(apply(m, q))), name
                    front = np.zeros(shape, dtype=bool)
                    uv, got_front = pinhole(got, k, buffer=(big[5:7], front))
                    want_uv, want_front = pinhole(got, k)
                    assert np.shares_memory(uv, big[5:7]) and got_front is front, name
                    assert np.array_equal(bits(uv), bits(want_uv)), name
                    assert np.array_equal(front, want_front), name
                    ok = in_image(uv, k, buffer=(np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)))
                    assert np.array_equal(ok, in_image(uv, k)), name

    def test_pinhole_of_transport_is_coordinate_major(self):
        # Each coordinate of the results is one contiguous column.
        p = kernel_points()[1]
        q = apply(kernel_motions()[3], p)
        uv, _ = pinhole(q, K64)
        assert np.moveaxis(q, -1, 0).flags.c_contiguous
        assert np.moveaxis(uv, -1, 0).flags.c_contiguous

    def test_unproject_matches_inline_arithmetic(self):
        gen = rng(110)
        px = gen.uniform(-10.0, 70.0, size=(3, 40, 2))
        depth = gen.uniform(0.1, 50.0, size=(3, 40))
        depth[0, :2] = [Z_MIN, np.finfo(float).tiny]
        for px_s, d_s in zip(by_shape(px), by_shape(depth[..., None])):
            d = d_s[..., 0]
            want = reference_unproject(px_s, d, K64)
            for name, q in layouts(px_s).items():
                got = unproject(q, d, K64)
                assert got.shape == px_s.shape[:-1] + (3,), name
                assert np.array_equal(bits(got), bits(want)), name
