"""Shared construction helpers for the test suite."""

import numpy as np

from camsig.campath import CameraPath, PrimitiveSpec, compose_paths, generate_primitive
from camsig.geometry import Intrinsics, RigidMotion, pinhole, so3_exp, unproject
from camsig.trajfield import TrajectoryField, grid_sample_uv

K64 = Intrinsics(fx=64.0, fy=64.0, cx=31.5, cy=31.5, width=64, height=64)
K32 = Intrinsics(fx=48.0, fy=48.0, cx=15.5, cy=15.5, width=32, height=32)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def random_rotation(gen, max_angle=np.pi * 0.9):
    w = gen.normal(size=3)
    w *= gen.uniform(0.0, max_angle) / np.linalg.norm(w)
    return so3_exp(w)


def random_motion(gen, max_angle=0.4, max_shift=0.5):
    w = gen.normal(size=3)
    w *= gen.uniform(0.0, max_angle) / np.linalg.norm(w)
    return RigidMotion(so3_exp(w), gen.uniform(-max_shift, max_shift, size=3))


def random_points(gen, n, z_range=(1.0, 5.0), spread=2.0):
    p = np.empty((n, 3))
    p[:, 0] = gen.uniform(-spread, spread, n)
    p[:, 1] = gen.uniform(-spread, spread, n)
    p[:, 2] = gen.uniform(*z_range, n)
    return p


def grid_points(k, z_base=2.0, jitter=0.0, gen=None):
    """One point per pixel of k's image, at z_base plus optional jitter."""
    uv = grid_sample_uv(k.height, k.width, k)
    depth = np.full(uv.shape[0], z_base)
    if jitter > 0.0:
        depth = depth + jitter * gen.uniform(-1.0, 1.0, uv.shape[0])
    return unproject(uv, depth, k)


def transported_field(k, motions, p0=None, z_base=2.0, jitter=0.0, gen=None):
    """Field whose every point follows the motions exactly (fully static)."""
    if p0 is None:
        p0 = grid_points(k, z_base=z_base, jitter=jitter, gen=gen)
    t = len(motions)
    positions = np.stack([p0 @ m.rotation.T + m.translation for m in motions])
    visibility = np.ones((t, p0.shape[0]), dtype=bool)
    return field_at(positions, visibility, k)


def field_at(positions, visibility, k, grid=None):
    """The field whose entries lie at the given (T, N, 3) camera-space positions.

    It holds their pinhole pixels and their depths, so its lifted positions
    equal the given ones up to rounding. grid defaults to k's image.
    """
    uv, _ = pinhole(positions, k)
    return TrajectoryField(uv, positions[..., 2], visibility, *(grid or (k.height, k.width)), k)


def identity_motions(t):
    return [RigidMotion.identity() for _ in range(t)]


def pan_roll_path(frames, pan=0.25, roll=0.15):
    pan_path = generate_primitive(PrimitiveSpec("pan_right", pan, frames))
    roll_path = generate_primitive(PrimitiveSpec("rot_cw", roll, frames))
    return compose_paths(pan_path, roll_path)


def smooth_motions(t, gen, max_angle=0.2, max_shift=0.3):
    """Identity-prefixed motion list with angles/shifts growing over time."""
    axis = gen.normal(size=3)
    axis /= np.linalg.norm(axis)
    shift = gen.uniform(-1.0, 1.0, size=3)
    shift *= max_shift / np.linalg.norm(shift)
    motions = [RigidMotion.identity()]
    for lam in range(1, t):
        a = lam / (t - 1)
        motions.append(RigidMotion(so3_exp(axis * (max_angle * a)), shift * a))
    return motions
