import math
from dataclasses import replace

import numpy as np
import pytest

from camsig import rigidfit, segmentation
from camsig.geometry import BLOCK, Intrinsics, geodesic_angle, project
from camsig.segmentation import (
    STATUS_CONVERGED_EPS,
    STATUS_CONVERGED_FULL,
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    SegmentationConfig,
    extract_static,
)
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from util import K32, K64, field_at, pan_roll_path, rng, smooth_motions, transported_field

KWIDE = Intrinsics(fx=20.0, fy=20.0, cx=15.5, cy=15.5, width=32, height=32)


def quad_object_scene(frames=8, speed=0.06, noise=0.0, seed=11, k=K32):
    objects = [
        DynamicObject(center=(8.0, 8.0), radius=4.6, velocity=(speed, 0.0, 0.0)),
        DynamicObject(center=(23.0, 8.0), radius=4.6, velocity=(-speed, 0.0, 0.0)),
        DynamicObject(center=(8.0, 23.0), radius=4.6, velocity=(0.0, speed, 0.0)),
        DynamicObject(center=(23.0, 23.0), radius=4.6, velocity=(0.0, -speed, 0.0)),
    ]
    spec = SceneSpec(
        frames=frames, grid_h=32, grid_w=32, intrinsics=k,
        z_near=1.5, z_far=2.5, depth_jitter=0.4, objects=objects,
        track_noise=noise, seed=seed,
    )
    path = pan_roll_path(frames, pan=0.2, roll=0.1)
    return generate_scene(spec, path), path


def test_fully_static_converges_first_iteration():
    gen = rng(30)
    motions = smooth_motions(8, gen)
    field = transported_field(K32, motions, jitter=0.3, gen=gen)
    result = extract_static(field)
    assert result.status == STATUS_CONVERGED_EPS
    assert result.iterations_used == 1
    assert result.partition.static_mask.all()
    for lam in range(8):
        assert geodesic_angle(result.motions[lam].rotation, motions[lam].rotation) < 1e-6
        assert np.max(np.abs(result.motions[lam].translation - motions[lam].translation)) < 1e-6


def test_quarter_dynamic_exact_partition():
    gt, path = quad_object_scene()
    result = extract_static(gt.field)
    assert np.array_equal(result.partition.static_mask, gt.partition.static_mask)
    for lam in range(len(path)):
        assert geodesic_angle(result.motions[lam].rotation, path[lam].rotation) < 1e-4
        assert np.max(np.abs(result.motions[lam].translation - path[lam].translation)) < 1e-4


def test_noisy_partition_f1():
    for seed in range(3):
        gt, path = quad_object_scene(frames=8, speed=0.08, noise=0.5, seed=700 + seed, k=KWIDE)
        result = extract_static(gt.field)
        pred_dyn = ~result.partition.static_mask.ravel()
        true_dyn = ~gt.partition.static_mask.ravel()
        tp = (pred_dyn & true_dyn).sum()
        fp = (pred_dyn & ~true_dyn).sum()
        fn = (~pred_dyn & true_dyn).sum()
        assert 2 * tp / (2 * tp + fp + fn) >= 0.95
        geo = np.mean(
            [geodesic_angle(result.motions[i].rotation, path[i].rotation) for i in range(1, 8)]
        )
        assert np.degrees(geo) < 0.5


def test_frame0_motion_pinned_identity():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field)
    assert result.motions[0].is_identity()


def test_eps_trace_monotone_noise_free():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field)
    trace = result.eps_max_trace
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    assert result.diagnostics == []


def test_degenerate_guard(monkeypatch):
    # Over half the grid is dynamic; with a 60% floor the re-threshold
    # cannot keep enough points and the previous partition is returned.
    monkeypatch.setattr(segmentation, "_MIN_STATIC_FRACTION", 0.6)
    objects = [DynamicObject(center=(15.5, 15.5), radius=14.0, velocity=(0.08, 0.0, 0.0))]
    spec = SceneSpec(
        frames=6, grid_h=32, grid_w=32, intrinsics=K32,
        z_near=1.5, z_far=2.5, depth_jitter=0.4, objects=objects, seed=3,
    )
    path = pan_roll_path(6, pan=0.1, roll=0.05)
    gt = generate_scene(spec, path)
    result = extract_static(gt.field)
    assert result.status == STATUS_DEGENERATE
    assert result.partition.static_mask.all()  # last valid iteration started from all
    assert result.diagnostics


def test_underdetermined_initial_set_is_degenerate():
    gt, _ = quad_object_scene()
    vis = gt.field.visibility.copy()
    vis[1, 2:] = False  # frame 1 sees two points of the all-static start
    field = replace(gt.field, visibility=vis)
    result = extract_static(field)
    assert result.status == STATUS_DEGENERATE
    assert result.iterations_used == 0
    assert result.diagnostics == [
        "fewer than 3 visible static points in frame 1; keeping previous iteration"
    ]


def test_unconverged_fit_reported(monkeypatch):
    monkeypatch.setattr(rigidfit, "_MAX_ITERATIONS", 1)
    gt, _ = quad_object_scene(frames=3)
    result = extract_static(gt.field, SegmentationConfig(max_iterations=1))
    assert result.diagnostics == [
        "rigid fit of frame 1 did not converge in segmentation iteration 1 (1 solver iterations)",
        "rigid fit of frame 2 did not converge in segmentation iteration 1 (1 solver iterations)",
    ]



def test_unconverged_fits_reported_in_frame_order_with_own_counts(monkeypatch):
    gt, _ = quad_object_scene(frames=8)
    monkeypatch.setattr(rigidfit, "_MAX_ITERATIONS", 1)
    result = extract_static(gt.field, SegmentationConfig(max_iterations=2))
    reported = [d for d in result.diagnostics if d.startswith("rigid fit")]
    assert reported[:7] == [
        f"rigid fit of frame {lam} did not converge in segmentation iteration 1 (1 solver iterations)"
        for lam in range(1, 8)
    ]
    later = [int(d.split()[4]) for d in reported[7:]]
    assert later == sorted(later) and all("iteration 2 (1 solver iterations)" in d for d in reported[7:])

    # With a cap some frames reach, each unconverged frame reports its own
    # count, from the pass whose fit it returns: the last iteration refits
    # the frames its coarse pass did not stop at the gradient or the floor.
    passes = record_passes(monkeypatch)
    monkeypatch.setattr(rigidfit, "_MAX_ITERATIONS", 4)
    result = extract_static(gt.field, SegmentationConfig(max_iterations=1))
    assert [coarse for coarse, _ in passes] == [segmentation._COARSE, 0.0]
    reported = final_fits(passes)
    assert {fit.converged for fit in reported} == {True, False}
    assert result.diagnostics == [
        f"rigid fit of frame {lam} did not converge in segmentation iteration 1 ({fit.iterations} solver iterations)"
        for lam, fit in enumerate(reported, start=1) if not fit.converged
    ]


def test_underdetermined_names_the_first_short_frame():
    gen = rng(33)
    field = transported_field(K32, smooth_motions(6, gen), gen=gen)
    vis = field.visibility.copy()
    vis[3:, :] = False  # frames 3-5 see four points; frames 3 and 5 then lose two
    vis[3:, [40, 200, 500, 700]] = True
    vis[3, [200, 500]] = False
    vis[5, [40, 700]] = False
    field = replace(field, visibility=vis)
    result = extract_static(field)
    assert result.status == STATUS_DEGENERATE and result.iterations_used == 0
    assert result.diagnostics == [
        "fewer than 3 visible static points in frame 3; keeping previous iteration"
    ]


def record_chunks(monkeypatch) -> list:
    """Per fit_rigid_frames call: its points, observations, masks, coarse and solver chunks.

    A chunk is a copy of the (points, observations) the solver received, its
    frame spans and frame count. Every evaluation must cover exactly the
    points of its frames' spans.
    """
    calls = []
    fit, solve, evaluate = segmentation.fit_rigid_frames, rigidfit._lm_chunk, rigidfit._normal_equations

    def fitting(points0, observed, masks, k, init, coarse=0.0):
        calls.append((points0, np.asarray(observed), np.asarray(masks), coarse, []))
        return fit(points0, observed, masks, k, init, coarse=coarse)

    def solving(p, ov, spans, k, x, coarse):
        calls[-1][4].append((p.copy(), ov.copy(), spans, len(x)))
        return solve(p, ov, spans, k, x, coarse)

    def evaluating(p, ov, spans, k, x):
        assert len(p) == len(ov) == spans[-1].stop == sum(c.stop - c.start for c in spans)
        assert [c.start for c in spans[1:]] == [c.stop for c in spans[:-1]] and spans[0].start == 0
        return evaluate(p, ov, spans, k, x)

    monkeypatch.setattr(segmentation, "fit_rigid_frames", fitting)
    monkeypatch.setattr(rigidfit, "_lm_chunk", solving)
    monkeypatch.setattr(rigidfit, "_normal_equations", evaluating)
    return calls


def chunk_shapes(calls) -> list:
    """(coarse, frames per chunk) of every call, after checking that each
    chunk holds whole frames' selected points, in frame order and nothing
    else, at most BLOCK of them unless the chunk is a single frame."""
    shapes = []
    for points0, observed, masks, coarse, chunks in calls:
        frame = 0
        for p, ov, spans, frames in chunks:
            assert len(spans) == frames and (len(p) <= BLOCK or frames == 1)
            for span in spans:
                assert np.array_equal(p[span], points0[masks[frame]])
                assert np.array_equal(ov[span], observed[frame][masks[frame]])
                frame += 1
        assert frame == len(masks)
        shapes.append((coarse, [frames for *_, frames in chunks]))
    return shapes


def one_disc_64():
    """13 frames of a 64×64 grid with one moving disc: 2 iterations, eps_max 1,674 then 5.7."""
    spec = SceneSpec(
        frames=13, grid_h=64, grid_w=64, intrinsics=K64, z_near=1.8, z_far=2.2,
        depth_jitter=0.2, track_noise=0.3, seed=5,
        objects=[DynamicObject(center=(16.0, 16.0), radius=9.0, velocity=(0.05, 0.0, 0.0))],
    )
    return generate_scene(spec, pan_roll_path(13, pan=0.25, roll=0.15)).field


def static_64(frames, seed=31):
    gen = rng(seed)
    return transported_field(K64, smooth_motions(frames, gen), jitter=0.2, gen=gen)


def lattice(sel):
    """Thinned fit masks by definition: a row of n > 2,048 selected points
    keeps every ⌈n/2,048⌉-th of them in index order, starting at the first."""
    thinned = sel.copy()
    for row, keep in zip(sel, thinned):
        at = np.flatnonzero(row)
        if len(at) > 2048:
            keep[:] = False
            keep[at[:: math.ceil(len(at) / 2048)]] = True
    return thinned


def test_one_solver_call_per_chunk_never_per_frame(monkeypatch):
    # Each iteration makes one coarse pass over frames 1..T-1; the last then
    # refits the frames that pass stopped coarsely. Both passes solve whole
    # frames in chunks, and the solver evaluates exactly the selected points.
    calls = record_chunks(monkeypatch)
    gt, _ = quad_object_scene(frames=12, noise=0.3)
    result = extract_static(gt.field)
    assert result.iterations_used == 2
    coarse = segmentation._COARSE
    assert chunk_shapes(calls) == [(coarse, [11]), (coarse, [11]), (0.0, [11])]  # 11 x 1,024 points: one chunk

    calls.clear()
    result = extract_static(one_disc_64())
    assert result.iterations_used == 2
    # Iteration 1 thins each 4,096-point frame to 2,048, so 8 frames fill a chunk;
    # iteration 2 (eps_max 1,674 <= 100·ε) and the refit pack 4 frames of 3,843.
    assert chunk_shapes(calls) == [(coarse, [8, 4]), (coarse, [4, 4, 4]), (0.0, [4, 4, 3])]


def test_fits_observe_the_track_pixels(monkeypatch):
    # Every fit sees the frame-0 points and the field's own pixels: each
    # iteration's coarse pass gets field.pixels[1:] itself, and a refit its
    # frames' rows of it.
    calls = []
    fit = segmentation.fit_rigid_frames

    def spy(points0, observed, masks, k, init, coarse=0.0):
        calls.append((points0, observed, coarse))
        return fit(points0, observed, masks, k, init, coarse=coarse)

    monkeypatch.setattr(segmentation, "fit_rigid_frames", spy)
    gt, _ = quad_object_scene(frames=6, noise=0.3)
    field = gt.field
    extract_static(field)
    assert [c for _, _, c in calls].count(0.0) == 1 and len(calls) >= 3
    frames = field.pixels[1:]
    for points0, observed, coarse in calls:
        assert points0 is field.points0
        if coarse:
            assert np.shares_memory(observed, field.pixels) and np.array_equal(observed, frames)
        else:
            rows = [i for i, frame in enumerate(frames) for row in observed if np.array_equal(row, frame)]
            assert len(rows) == len(observed) and rows == sorted(set(rows))


def test_frames_above_2048_points_fit_a_lattice(monkeypatch):
    # Frame 1 sees exactly 2,048 points and fits them all; frame 2 sees
    # 2,049 and fits every 2nd. Both stop at the gradient test, but a
    # thinned frame counts as coarse, so only frame 2 refits on all its points.
    field = static_64(frames=3)
    vis = field.visibility.copy()
    order = rng(32).permutation(field.num_points)
    vis[1, order[2048:]] = False
    vis[2, order[2049:]] = False
    calls = record_chunks(monkeypatch)
    result = extract_static(replace(field, visibility=vis))
    assert result.status == STATUS_CONVERGED_EPS and result.iterations_used == 1
    (_, _, masks, coarse, _), (_, _, refit, precise, _) = calls
    assert coarse == segmentation._COARSE and precise == 0.0
    assert np.array_equal(masks[0], vis[1])
    assert np.array_equal(np.flatnonzero(masks[1]), np.flatnonzero(vis[2])[::2]) and masks[1].sum() == 1025
    assert np.array_equal(refit, vis[2:])


def test_fits_within_100_epsilon_of_converging_use_every_point(monkeypatch):
    # Iteration 1 thins; iteration 2 follows an eps_max of 1,674, within
    # 100·ε = 5,200, so it and the closing refit fit every selected point.
    calls = record_chunks(monkeypatch)
    field = one_disc_64()
    result = extract_static(field)
    assert result.iterations_used == 2 and result.status == STATUS_CONVERGED_EPS
    assert result.eps_max_trace[0] <= 100 * 4.0 * field.num_frames
    _, (_, _, second, _, _), (_, _, refit, _, _) = calls
    sel = result.partition.static_mask.ravel() & field.visibility[1:]  # converged_eps keeps the fitted set
    assert (sel.sum(axis=1) > 2048).all() and np.array_equal(second, sel)
    assert all(any(np.array_equal(row, frame) for frame in sel) for row in refit)


def test_a_thinned_first_iteration_ends_on_full_point_precise_refits(monkeypatch):
    # A static 64×64 clip converges in iteration 1. Every frame was
    # thinned, so every frame refits on all its points at full precision,
    # which lands within 1e-9 of the unthinned path's motions.
    field = static_64(frames=6)
    calls = record_chunks(monkeypatch)
    result = extract_static(field)
    (_, _, masks, _, _), (_, _, refit, precise, _) = calls
    assert np.array_equal(masks, lattice(field.visibility[1:]))
    assert precise == 0.0 and np.array_equal(refit, field.visibility[1:])
    monkeypatch.setattr(segmentation, "_THIN_CAP", field.num_points)
    unthinned = extract_static(field)
    assert result.status == unthinned.status == STATUS_CONVERGED_EPS
    assert result.iterations_used == unthinned.iterations_used == 1
    for got, want in zip(result.motions, unthinned.motions):
        assert np.abs(got.rotation - want.rotation).max() < 1e-9
        assert np.abs(got.translation - want.translation).max() < 1e-9


def test_a_32x32_field_fits_and_segments_as_without_thinning(monkeypatch):
    # 1,024 points per frame never exceed the cap: every fit call and
    # output keeps the bits of the unthinned path.
    fit = segmentation.fit_rigid_frames
    field = quad_object_scene(frames=8, noise=0.5, seed=5)[0].field
    runs = []
    for cap in (segmentation._THIN_CAP, math.inf):
        monkeypatch.setattr(segmentation, "_THIN_CAP", cap)
        calls = []

        def spy(points0, observed, masks, k, init, coarse=0.0):
            params, fits = fit(points0, observed, masks, k, init, coarse=coarse)
            calls.extend([masks.copy(), np.array(init), coarse, params.copy()] + [f.cost_trace for f in fits])
            return params, fits

        monkeypatch.setattr(segmentation, "fit_rigid_frames", spy)
        runs.append((calls, extract_static(field)))
    (calls, result), (reference_calls, reference) = runs
    assert result.iterations_used > 1 and len(calls) == len(reference_calls)
    assert all(np.array_equal(got, want) for got, want in zip(calls, reference_calls))
    assert np.array_equal(result.partition.static_mask, reference.partition.static_mask)
    assert np.array_equal(result.per_point_error, reference.per_point_error)
    for got, want in zip(result.motions, reference.motions):
        assert np.array_equal(got.rotation, want.rotation) and np.array_equal(got.translation, want.translation)
    assert (result.status, result.eps_max_trace, result.diagnostics) == (
        reference.status, reference.eps_max_trace, reference.diagnostics
    )


def test_max_iters_status():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field, SegmentationConfig(max_iterations=1))
    assert result.status == STATUS_MAX_ITERS
    assert result.iterations_used == 1


def test_converged_full_status():
    # Uniformly perturbed static field: pick epsilon just below the worst
    # error so the threshold pass runs, with alpha high enough to keep all.
    gen = rng(31)
    motions = smooth_motions(6, gen)
    field = transported_field(K32, motions, jitter=0.3, gen=gen)
    wobble = gen.normal(scale=1e-5, size=field.positions.shape)
    wobble[0] = 0.0
    field = field_at(field.positions + wobble, field.visibility, K32)
    probe = extract_static(field)
    assert probe.status == STATUS_CONVERGED_EPS
    eps_max = probe.eps_max_trace[0]
    result = extract_static(field, SegmentationConfig(epsilon=eps_max * 0.8, alpha=0.9))
    assert result.status == STATUS_CONVERGED_FULL
    assert result.partition.static_mask.all()


def test_occluded_static_point_still_classified_static():
    gt, _ = quad_object_scene()
    vis = gt.field.visibility.copy()
    static_flat = gt.partition.static_mask.ravel()
    idx = int(np.flatnonzero(static_flat)[10])
    vis[1::2, idx] = False  # invisible every other frame
    field = replace(gt.field, visibility=vis)
    result = extract_static(field)
    assert result.partition.static_mask.ravel()[idx]
    assert np.array_equal(result.partition.static_mask, gt.partition.static_mask)


def test_displaced_dynamic_pixels_always_detected():
    gt, _ = quad_object_scene()
    result = extract_static(gt.field)
    eps = 4.0 * gt.field.num_frames
    bound = 0.15 * (result.eps_max_trace[-1] + eps)
    err = result.per_point_error.ravel()
    over = err > bound
    assert not np.any(over & result.partition.static_mask.ravel())


def test_config_validation():
    with pytest.raises(ValueError):
        SegmentationConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SegmentationConfig(epsilon=-1.0)



def test_config_rejects_fractional_max_iterations():
    for count in (2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="max_iterations"):
            SegmentationConfig(max_iterations=count)
    assert SegmentationConfig(max_iterations=2.0).max_iterations == 2
    assert SegmentationConfig(max_iterations=10**400).max_iterations == 10**400  # --max-iters is any int

def test_needs_two_frames():
    gen = rng(32)
    field = transported_field(K32, smooth_motions(2, gen)[:1], gen=gen)
    with pytest.raises(ValueError, match="two frames"):
        extract_static(field)


def test_singular_damped_solve_takes_no_step():
    # Seven points on one line at one depth: rotating about y and moving
    # along x shift them alike, so JᵀJ is rank deficient with a positive
    # diagonal. Large residuals keep the fit stepping until μ no longer
    # changes the unit diagonal, and at solver iteration 40 the damped
    # matrix is singular in rounding. That round the frame takes no step
    # and its μ grows, as after a rejected step; the fit then goes on.
    gen = rng(29)
    p0 = np.zeros((7, 3))
    p0[:, 1] = np.linspace(-0.75, 0.75, 7)
    p0[:, 2] = 2.0
    obs = project(p0, KWIDE) + gen.normal(0.0, 5.0, size=(7, 2))
    init = gen.normal(0.0, 0.05, size=6)
    fit = rigidfit.fit_rigid(p0, obs, np.ones(7, dtype=bool), KWIDE, init)
    assert fit.stop == "floor" and fit.iterations == 101
    assert np.isfinite(fit.final_cost) and fit.final_cost < fit.cost_trace[0]
    assert np.all(fit.cost_trace[1:] <= fit.cost_trace[:-1])
    assert np.isfinite(fit.motion.rotation).all() and np.isfinite(fit.motion.translation).all()


def record_passes(monkeypatch) -> list:
    """(coarse, fits) of every solver call, in call order."""
    passes = []
    solve = rigidfit._lm_chunk

    def recording(p, ov, spans, k, x, coarse):
        fits = solve(p, ov, spans, k, x, coarse)
        passes.append((coarse, fits))
        return fits

    monkeypatch.setattr(rigidfit, "_lm_chunk", recording)
    return passes


def final_fits(passes) -> list:
    """Per frame, the last fit of the last iteration, for one-chunk scenes.

    A coarse pass fits every frame; a full-precision pass refits, in frame
    order, the frames the coarse pass before it did not stop at the
    gradient or the floor.
    """
    fits = []
    for coarse, results in passes:
        if coarse:
            fits = list(results)
            continue
        redo = [i for i, fit in enumerate(fits) if fit.stop not in ("gradient", "floor")]
        assert len(redo) == len(results)
        for i, fit in zip(redo, results):
            fits[i] = fit
    return fits


def exit_scene(scene):
    """A field and config whose extraction ends with this exit after a refit."""
    gt, _ = quad_object_scene(noise=0.3)
    if scene == "eps":
        return gt.field, None
    if scene == "max_iters":
        return gt.field, SegmentationConfig(max_iterations=1)
    if scene == "full":  # static field, epsilon below the worst error
        gen = rng(31)
        field = transported_field(K32, smooth_motions(6, gen), jitter=0.3, gen=gen)
        wobble = gen.normal(scale=1e-3, size=field.positions.shape)
        wobble[0] = 0.0
        field = field_at(field.positions + wobble, field.visibility, K32)
        return field, SegmentationConfig(epsilon=extract_static(field).eps_max_trace[0] * 0.8, alpha=0.9)
    if scene == "collapse":  # the disc covers most of the grid; _MIN_STATIC_FRACTION is 0.6
        objects = [DynamicObject(center=(15.5, 15.5), radius=14.0, velocity=(0.08, 0.0, 0.0))]
        spec = SceneSpec(
            frames=6, grid_h=32, grid_w=32, intrinsics=K32,
            z_near=1.5, z_far=2.5, depth_jitter=0.4, objects=objects, seed=3,
        )
        return generate_scene(spec, pan_roll_path(6, pan=0.1, roll=0.05)).field, None
    # "short": frame 1 sees two static and two moving points, so the
    # re-thresholded static set leaves it two.
    static = gt.partition.static_mask.ravel()
    vis = gt.field.visibility.copy()
    keep = np.concatenate([np.flatnonzero(static & vis[1])[[100, 700]], np.flatnonzero(~static & vis[1])[[5, 60]]])
    vis[1] = False
    vis[1, keep] = True
    return replace(gt.field, visibility=vis), None


EXITS = {  # scene -> status, start of its diagnostic
    "eps": (STATUS_CONVERGED_EPS, None),
    "full": (STATUS_CONVERGED_FULL, None),
    "max_iters": (STATUS_MAX_ITERS, None),
    "collapse": (STATUS_DEGENERATE, "static set collapsed"),
    "short": (STATUS_DEGENERATE, "fewer than 3 visible static points in frame 1"),
}


@pytest.mark.parametrize("scene", EXITS)
def test_no_exit_returns_coarse_motions(monkeypatch, scene):
    status, note = EXITS[scene]
    if scene == "collapse":
        monkeypatch.setattr(segmentation, "_MIN_STATIC_FRACTION", 0.6)
    field, config = exit_scene(scene)
    passes = record_passes(monkeypatch)
    result = extract_static(field, config)
    assert result.status == status
    assert note is None or any(d.startswith(note) for d in result.diagnostics)
    assert passes[-1][0] == 0.0  # the exit refit the coarsely stopped frames
    fits = final_fits(passes)
    assert len(fits) == field.num_frames - 1 and all(fit.stop != "coarse" for fit in fits)
    for motion, fit in zip(result.motions[1:], fits):
        assert np.array_equal(motion.rotation, fit.motion.rotation)
        assert np.array_equal(motion.translation, fit.motion.translation)
    err = segmentation._per_point_errors(field, result.motions, field.visibility.sum(axis=0))
    assert np.array_equal(result.per_point_error.ravel(), err)
