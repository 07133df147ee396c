"""Exact metamorphic relations: the static/dynamic split is scale-equivariant.

Scaling every field position by s = 2^k changes no pixel coordinate: every
product, quotient and sum in the pipeline scales exactly by a power of two
or cancels the scale. So `extract_static` on the scaled field must return
the same mask, status, per-point errors and rotations, bit for bit, and
translations exactly s times as large. The relation needs no recorded
bytes, so it survives changes that move outputs at the rounding floor.

The runs are deterministic (derandomized, no example database): synthetic
32x32 scenes of 12 frames with moving discs, without and with track noise.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from camsig.segmentation import extract_static
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from camsig.trajfield import TrajectoryField
from test_segmentation import KWIDE
from util import pan_roll_path

configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "camsig-hypothesis")

EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=24)


def disc_scene(seed, noise, speed):
    objects = [
        DynamicObject(center=(8.0, 8.0), radius=4.6, velocity=(speed, 0.0, 0.0)),
        DynamicObject(center=(23.0, 23.0), radius=4.6, velocity=(0.0, -speed, 0.0)),
    ]
    spec = SceneSpec(
        frames=12, grid_h=32, grid_w=32, intrinsics=KWIDE,
        z_near=1.5, z_far=2.5, depth_jitter=0.5, objects=objects,
        track_noise=noise, seed=seed,
    )
    return generate_scene(spec, pan_roll_path(12, pan=0.2, roll=0.1)).field


def scaled(field, s):
    return TrajectoryField(field.positions * s, field.visibility, field.grid_h, field.grid_w, field.intrinsics)


@EXACT
@given(
    seed=st.integers(0, 2**31 - 1),
    noise=st.sampled_from([0.0, 0.5]),
    speed=st.sampled_from([0.05, 0.08]),
    k=st.integers(-8, 8),
)
def test_extract_static_is_exactly_scale_equivariant(seed, noise, speed, k):
    field = disc_scene(seed, noise, speed)
    s = 2.0**k
    base = extract_static(field)
    got = extract_static(scaled(field, s))
    assert got.status == base.status
    assert got.iterations_used == base.iterations_used
    assert np.array_equal(got.partition.static_mask, base.partition.static_mask)
    assert np.array_equal(got.per_point_error, base.per_point_error)
    assert got.eps_max_trace == base.eps_max_trace
    for m_got, m_base in zip(got.motions, base.motions, strict=True):
        assert np.array_equal(m_got.rotation, m_base.rotation)
        assert np.array_equal(m_got.translation, m_base.translation * s)


def test_scale_relation_holds_at_the_range_ends():
    field = disc_scene(11, 0.5, 0.08)
    base = extract_static(field)
    for k in (-8, 8):
        got = extract_static(scaled(field, 2.0**k))
        assert np.array_equal(got.per_point_error, base.per_point_error)
        assert all(
            np.array_equal(a.translation, b.translation * 2.0**k)
            for a, b in zip(got.motions, base.motions, strict=True)
        )
