"""Workload definitions: input generation, the timed item, and its oracle.

Each workload is a closed loop over a fixed list of inputs made from the
workload seed. `setup` writes the inputs to files the way `camsig synth`
does; `Workload.run_item` runs one clip or request through camsig's
public functions in the order the matching CLI command calls them, and
`Workload.check_item` is the correctness oracle for that item.

Every camsig call in an item goes through `call(layer, fn, *args)`. The
end-to-end run passes a plain call; the traced run passes the tracer's,
which records a span per call. One pipeline serves both runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from camsig.campath import (
    CameraPath,
    PrimitiveSpec,
    compose_paths,
    generate_primitive,
    load_path,
    save_path,
)
from camsig.geometry import Intrinsics, geodesic_angle, project
from camsig.io import (
    Tracks,
    assemble_field,
    read_depth,
    read_pgm,
    read_ppm,
    read_tensor,
    read_tracks,
    write_depth,
    write_pgm,
    write_ppm,
    write_tensor,
    write_tracks,
)
from camsig.metrics import rot_err, trans_err
from camsig.preview import RgbdFrame, render_preview, splat_zbuffer
from camsig.segmentation import STATUS_DEGENERATE, extract_static
from camsig.signal import (
    build_inference_signal,
    motion_strength,
    pack_tensor,
    point_trajectory,
)
from camsig.synth import DynamicObject, SceneSpec, generate_scene
from camsig.trajfield import residual_g

GRID_TOL = 1e-9  # px; frame 0 of an inference signal is the pixel grid
PREVIEW_THREADS = 2


def plain_call(layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Stopwatch:
    """Sums the timed stretches of one item; the oracle runs between them."""

    def __init__(self):
        self.elapsed = 0.0
        self._start = time.perf_counter()

    def pause(self):
        self.elapsed += time.perf_counter() - self._start

    def resume(self):
        self._start = time.perf_counter()


@dataclass
class ItemResult:
    seconds: float
    frames: int
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)  # traced run: seconds per layer


def _write_intrinsics(path: Path, k: Intrinsics):
    path.write_text(json.dumps(k.to_dict(), sort_keys=True) + "\n")


def _read_intrinsics(path) -> Intrinsics:
    return Intrinsics.from_dict(json.loads(Path(path).read_text()))


def _finite_failure(data: np.ndarray) -> list:
    return [] if np.isfinite(data).all() else ["non-finite value in tensor"]


def _sha256_file(path: Path, digest=None):
    digest = digest or hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            digest.update(block)
    return digest


# --------------------------------------------------------------------------
# segment_noisy / segment_clean_large: the `signal-from-video` pipeline


def pan_roll_path(frames: int, pan: float, roll: float) -> CameraPath:
    pan_path = generate_primitive(PrimitiveSpec("pan_right", pan, frames))
    roll_path = generate_primitive(PrimitiveSpec("rot_cw", roll, frames))
    return compose_paths(pan_path, roll_path)


def _noisy_scene(seed: int):
    """Criterion-2 scene: 32x32 grid, 12 frames, 4 discs, 0.5 px track noise."""
    k = Intrinsics(fx=20.0, fy=20.0, cx=15.5, cy=15.5, width=32, height=32)
    objects = [
        DynamicObject(center=(8.0, 8.0), radius=4.6, velocity=(0.08, 0.0, 0.0)),
        DynamicObject(center=(23.0, 8.0), radius=4.6, velocity=(-0.08, 0.0, 0.0)),
        DynamicObject(center=(8.0, 23.0), radius=4.6, velocity=(0.0, 0.08, 0.0)),
        DynamicObject(center=(23.0, 23.0), radius=4.6, velocity=(0.0, -0.08, 0.0)),
    ]
    spec = SceneSpec(
        frames=12, grid_h=32, grid_w=32, intrinsics=k,
        z_near=1.5, z_far=2.5, depth_jitter=0.5, objects=objects,
        track_noise=0.5, seed=seed,
    )
    return spec, pan_roll_path(12, pan=0.2, roll=0.1)


def _clean_large_scene(seed: int):
    """Criterion-1 scene: 64x64 grid, 24 frames, 4 discs, noise-free."""
    k = Intrinsics(fx=64.0, fy=64.0, cx=31.5, cy=31.5, width=64, height=64)
    objects = [
        DynamicObject(center=(16.0, 16.0), radius=9.03, velocity=(0.05, 0.0, 0.0)),
        DynamicObject(center=(47.0, 16.0), radius=9.03, velocity=(-0.05, 0.0, 0.0)),
        DynamicObject(center=(16.0, 47.0), radius=9.03, velocity=(0.0, 0.05, 0.0)),
        DynamicObject(center=(47.0, 47.0), radius=9.03, velocity=(0.0, -0.05, 0.0)),
    ]
    spec = SceneSpec(
        frames=24, grid_h=64, grid_w=64, intrinsics=k,
        z_near=1.8, z_far=2.2, depth_jitter=0.2, objects=objects, seed=seed,
    )
    return spec, pan_roll_path(24, pan=0.25, roll=0.15)


def export_scene(spec: SceneSpec, path: CameraPath, out: Path) -> float:
    """Generate a scene and write its files like `camsig synth`.

    Returns the seconds spent in `generate_scene`.
    """
    start = time.perf_counter()
    gt = generate_scene(spec, path)
    generate_s = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    fld = gt.field
    k = fld.intrinsics
    for lam in range(fld.num_frames):
        depth_img, _ = splat_zbuffer(fld.positions[lam], fld.positions[lam][:, 2], k)
        write_depth(out / f"depth_{lam:04d}.tcd", depth_img)
    uv = project(fld.positions.reshape(-1, 3), k).reshape(fld.num_frames, -1, 2)
    in_image = (
        (uv[..., 0] >= -0.5)
        & (uv[..., 0] <= k.width - 0.5)
        & (uv[..., 1] >= -0.5)
        & (uv[..., 1] <= k.height - 0.5)
    )
    write_tracks(out / "tracks.tct", Tracks(uv, fld.visibility & in_image))
    save_path(path, out / "path.json")
    write_pgm(out / "partition.pgm", np.where(gt.partition.static_mask, 255, 0).astype(np.uint8))
    write_ppm(out / "rgb0.ppm", gt.rgb0)
    _write_intrinsics(out / "intrinsics.json", k)
    return generate_s


@dataclass
class SegmentWorkload:
    """Training-side pipeline over a fixed list of synthetic clips."""

    scene: object  # seed -> (SceneSpec, CameraPath)
    clips: int  # distinct clips per seed; a run makes at least one pass
    f1_gate: float  # least F1 of the mask against the synth partition
    motion_gate: float | None  # largest per-frame rotation (rad) and translation error
    traced_items: int  # leading traced items whose counts a traced run totals

    @property
    def min_items(self) -> int:
        return self.clips

    def clip_seeds(self, seed: int) -> list:
        gen = np.random.Generator(np.random.Philox(seed))
        return [int(s) for s in gen.integers(0, 2**31, size=self.clips)]

    def setup(self, seed: int, work: Path) -> dict:
        generate_s = 0.0
        for j, clip_seed in enumerate(self.clip_seeds(seed)):
            spec, path = self.scene(clip_seed)
            generate_s += export_scene(spec, path, work / f"clip{j:02d}")
        return {"synth.generate_s": generate_s}

    def input_size(self) -> dict:
        spec, _ = self.scene(0)
        return {
            "items": self.clips,
            "grid": [spec.grid_h, spec.grid_w],
            "frames": spec.frames,
            "points": spec.grid_h * spec.grid_w,
            "tensor_bytes": 20 + 4 * spec.frames * 3 * spec.grid_h * spec.grid_w
            + spec.grid_h * spec.grid_w,
        }

    def load(self, work: Path) -> list:
        """Per clip: its directory plus the ground truth the oracle needs."""
        items = []
        for j in range(self.clips):
            d = work / f"clip{j:02d}"
            items.append({
                "dir": d,
                "static": read_pgm(d / "partition.pgm") == 255,
                "path": load_path(d / "path.json"),
            })
        return items

    def run_item(self, item: dict, call=plain_call) -> ItemResult:
        d = item["dir"]
        out = d / "signal.tcs"
        watch = Stopwatch()
        k = call("io.read", _read_intrinsics, d / "intrinsics.json")
        tracks = call("io.read", read_tracks, d / "tracks.tct")
        depth_files = sorted(d.glob("depth_*.tcd"))
        depths = [call("io.read", read_depth, f) for f in depth_files]
        fld = call("io.assemble", assemble_field, depths, tracks, k)
        seg = call("segmentation.extract", extract_static, fld)
        degenerate = seg.status == STATUS_DEGENERATE
        if not degenerate:  # the CLI exits 3 here and writes nothing
            traj = call("signal.transport", point_trajectory, fld, seg.motions)
            g = call("trajfield.residual", residual_g, fld, seg.motions)
            strength = call("signal.strength", motion_strength, g)
            tensor = call("signal.pack", pack_tensor, traj, strength)
            call("io.write", write_tensor, out, tensor)
        watch.pause()

        res = ItemResult(seconds=watch.elapsed, frames=0 if degenerate else fld.num_frames)
        res.counts = {
            "segmentation.iterations": seg.iterations_used,
            "io.bytes_read": sum(p.stat().st_size for p in depth_files)
            + (d / "tracks.tct").stat().st_size + (d / "intrinsics.json").stat().st_size,
        }
        if degenerate:
            res.failures.append("degenerate segmentation")
            return res
        res.counts["io.bytes_written"] = out.stat().st_size
        res.failures += self.check_item(item, seg, tensor, out)
        res.quality = _segment_quality(item, seg)
        return res

    def check_item(self, item, seg, tensor, out) -> list:
        failures = _finite_failure(tensor.data)
        back = read_tensor(out)
        if not (
            np.array_equal(back.data, tensor.data.astype(np.float32))
            and np.array_equal(back.last_frame_valid, tensor.last_frame_valid)
        ):
            failures.append("TCS1 read-back differs from the written float32 data")
        f1 = _dynamic_f1(seg, item)
        if f1 < self.f1_gate:
            failures.append(f"static-mask F1 {f1:.4f} below {self.f1_gate}")
        if self.motion_gate is not None:
            gt = item["path"]
            for lam, m in enumerate(seg.motions):
                if (
                    geodesic_angle(m.rotation, gt[lam].rotation) >= self.motion_gate
                    or np.max(np.abs(m.translation - gt[lam].translation)) >= self.motion_gate
                ):
                    failures.append(f"motion of frame {lam} off by {self.motion_gate} or more")
                    break
        return failures


def _dynamic_f1(seg, item) -> float:
    """F1 of the mask as criterion 2 scores it: dynamic pixels are positive."""
    pred = ~seg.partition.static_mask
    true = ~item["static"]
    tp = int((pred & true).sum())
    fp = int((pred & ~true).sum())
    fn = int((~pred & true).sum())
    return 2 * tp / (2 * tp + fp + fn)


def _segment_quality(item, seg) -> dict:
    est = CameraPath(seg.motions)
    return {
        "static_f1_mean": _dynamic_f1(seg, item),
        "rot_err_mean": rot_err(item["path"], est),
        "trans_err_mean": trans_err(item["path"], est),
    }


# --------------------------------------------------------------------------
# infer_video: `signal-from-path`, then `preview`, then the consumer read


@dataclass
class InferWorkload:
    """One interactive request at video scale, repeated back to back."""

    width: int = 720
    height: int = 480
    frames: int = 49
    min_items: int = 3  # requests per run, at least
    traced_items: int = 1

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(
            fx=560.0, fy=560.0, cx=(self.width - 1) / 2, cy=(self.height - 1) / 2,
            width=self.width, height=self.height,
        )

    def request(self, seed: int):
        """Textured depth, texture, composed zoom_in+pan_right+rot_cw path, strength."""
        gen = np.random.Generator(np.random.Philox(seed))
        h, w, t = self.height, self.width, self.frames
        jj, ii = np.meshgrid(np.arange(w) / w, np.arange(h) / h)
        fu, fv, phase = gen.uniform(2.0, 6.0), gen.uniform(2.0, 6.0), gen.uniform(0, 2 * np.pi)
        depth = (
            3.0
            + 0.8 * ii  # floor tilt: lower rows further away
            + 0.3 * np.sin(2 * np.pi * fu * jj + phase) * np.cos(2 * np.pi * fv * ii)
            + 0.02 * gen.uniform(-1.0, 1.0, size=(h, w))
        )
        rgb = gen.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        zoom = generate_primitive(PrimitiveSpec("zoom_in", gen.uniform(0.4, 0.9), t))
        pan = generate_primitive(PrimitiveSpec("pan_right", gen.uniform(0.2, 0.6), t))
        roll = generate_primitive(PrimitiveSpec("rot_cw", gen.uniform(0.05, 0.25), t))
        path = compose_paths(zoom, compose_paths(pan, roll))
        m_user = float(gen.uniform(50.0, 500.0))
        return depth, rgb, path, m_user

    def setup(self, seed: int, work: Path) -> dict:
        depth, rgb, path, m_user = self.request(seed)
        work.mkdir(parents=True, exist_ok=True)
        write_depth(work / "depth_0000.tcd", depth)
        write_ppm(work / "rgb0.ppm", rgb)
        save_path(path, work / "path.json")
        _write_intrinsics(work / "intrinsics.json", self.intrinsics())
        (work / "request.json").write_text(json.dumps({"motion_strength": m_user}) + "\n")
        return {"synth.generate_s": 0.0}

    def input_size(self) -> dict:
        h, w, t = self.height, self.width, self.frames
        return {
            "items": 1,
            "grid": [h, w],
            "frames": t,
            "points": h * w,
            "tensor_bytes": 20 + 4 * t * 3 * h * w + h * w,
        }

    def load(self, work: Path) -> list:
        m_user = json.loads((work / "request.json").read_text())["motion_strength"]
        return [{"dir": work, "m_user": m_user}]

    def run_item(self, item: dict, call=plain_call, render_1t=None) -> ItemResult:
        d = item["dir"]
        out = d / "signal.tcs"
        prev = d / "preview"
        prev.mkdir(exist_ok=True)
        watch = Stopwatch()
        k = call("io.read", _read_intrinsics, d / "intrinsics.json")
        depth0 = call("io.read", read_depth, d / "depth_0000.tcd")
        path = call("io.read", load_path, d / "path.json")
        tensor = call("signal.transport", build_inference_signal, depth0, k, path, item["m_user"])
        call("io.write", write_tensor, out, tensor)
        watch.pause()
        # The digest of the float32 data as computed, for the read-back check.
        written = hashlib.sha256()
        for lam in range(tensor.data.shape[0]):
            written.update(tensor.data[lam].astype("<f4").tobytes())
        del tensor  # `signal-from-path` ends here
        watch.resume()

        rgb = call("io.read", read_ppm, d / "rgb0.ppm")
        frame0 = RgbdFrame(rgb, depth0, k)
        rendered = call("preview.render", render_preview, frame0, path, threads=PREVIEW_THREADS)
        names = []
        for lam in range(len(path)):
            names.append(prev / f"preview_{lam:04d}.ppm")
            call("io.write", write_ppm, names[-1], rendered.frames[lam])
            names.append(prev / f"coverage_{lam:04d}.pgm")
            call("io.write", write_pgm, names[-1],
                 np.where(rendered.coverage[lam], 255, 0).astype(np.uint8))
        watch.pause()
        failures = []
        if render_1t is not None:
            single = render_1t(render_preview, frame0, path, threads=1)
            if not (
                np.array_equal(single.frames, rendered.frames)
                and np.array_equal(single.coverage, rendered.coverage)
            ):
                failures.append("threads=1 preview differs from the threaded render")
            del single
        del rendered
        watch.resume()

        back = call("io.read", read_tensor, out)
        watch.pause()

        res = ItemResult(seconds=watch.elapsed, frames=back.num_frames, failures=failures)
        res.failures += self.check_item(item, back, written, out)
        res.digests = {
            "tcs1": _sha256_file(out).hexdigest(),
            "preview": _preview_digest(names),
        }
        inputs = ["intrinsics.json", "depth_0000.tcd", "path.json", "rgb0.ppm"]
        res.counts = {
            "io.bytes_read": sum((d / f).stat().st_size for f in inputs) + out.stat().st_size,
            "io.bytes_written": out.stat().st_size + sum(p.stat().st_size for p in names),
        }
        return res

    def check_item(self, item, back, written, out) -> list:
        data = back.data
        t, _, h, w = data.shape
        failures = _finite_failure(data)
        read = hashlib.sha256()
        for lam in range(t):
            read.update(data[lam].astype("<f4").tobytes())
        if read.digest() != written.digest():
            failures.append("TCS1 read-back differs from the written float32 data")
        if not (
            np.max(np.abs(data[0, 0] - np.arange(w))) <= GRID_TOL
            and np.max(np.abs(data[0, 1] - np.arange(h)[:, None])) <= GRID_TOL
        ):
            failures.append("frame-0 channels are not the pixel grid")
        m_user = float(np.float32(item["m_user"]))
        if not (np.all(data[0, 2] == 0.0) and np.all(data[1:, 2] == m_user)):
            failures.append("strength channel is not m_user on frames 1..T-1")
        return failures


def _preview_digest(names) -> str:
    digest = hashlib.sha256()
    for p in names:
        _sha256_file(p, digest)
    return digest.hexdigest()


WORKLOADS = {
    # Criterion 2 asks for F1 at least 0.95 over 20 in-memory scenes. On the
    # exported files F1 is about 0.98 with a tail below that (seed 39, sixth
    # clip: 0.9486), so a clip fails below 0.9.
    "segment_noisy": SegmentWorkload(
        _noisy_scene, clips=8, f1_gate=0.9, motion_gate=None, traced_items=8
    ),
    # Criterion 1 asks for an exact partition and motions within 1e-4 on the
    # in-memory field. The exported depth maps leave holes beside the moving
    # discs, so a disc point can keep a single valid frame after frame 0,
    # stay under the tolerable error and bend that frame's fit (seed 11,
    # first clip: F1 0.9995, frame 1 off by about 1e-4). The gate keeps a
    # tenfold margin over such clips instead.
    "segment_clean_large": SegmentWorkload(
        _clean_large_scene, clips=4, f1_gate=0.99, motion_gate=1e-3, traced_items=2
    ),
    "infer_video": InferWorkload(),
}
