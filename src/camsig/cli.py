"""Command-line interface for the camera-control signal toolkit.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
input files), 3 degenerate segmentation without --allow-degenerate.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from camsig import __version__
from camsig.campath import (
    CameraPath,
    PRIMITIVE_KINDS,
    PrimitiveSpec,
    generate_primitive,
    load_path,
    motion_to_dict,
    save_path,
)
from camsig.geometry import FLOAT32_MAX, Intrinsics, check_depth_size, check_first_depth, in_image, read_json, write_json
from camsig.io import (
    Tracks,
    assemble_field,
    read_correspondences,
    read_depth,
    read_ppm,
    read_tracks,
    write_depth,
    write_pgm,
    write_ppm,
    write_tensor,
    write_tracks,
)
from camsig.metrics import msc, rot_err, trans_err
from camsig.preview import RgbdFrame, render_preview, splat_work, splat_zbuffer
from camsig.segmentation import (
    STATUS_DEGENERATE,
    SegmentationConfig,
    extract_static,
)
from camsig.signal import build_inference_signal, control_tensor, field_strength, normalize_tensor
from camsig.synth import PixelOverflow, generate_scene, scene_from_dict, scene_to_dict


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@contextlib.contextmanager
def _blame(file):
    """Re-raise a data failure inside the block as a DataError naming the file."""
    try:
        yield
    except (ValueError, OSError) as exc:  # a FormatError is a ValueError
        raise DataError(f"{file}: {exc}") from exc


def _load(file, reader):
    with _blame(file):
        return reader(file)


def _save(file, writer, *data):
    with _blame(file):
        writer(file, *data)


def _read_intrinsics(file) -> Intrinsics:
    return Intrinsics.from_dict(read_json(file))


def _write_json(path, payload: dict):
    def sanitize(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {key: sanitize(val) for key, val in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(val) for val in obj]
        return obj

    _save(path, write_json, {"toolkit_version": __version__, **sanitize(payload)})


def _depth_files(depth_dir) -> list:
    files = sorted(Path(depth_dir).glob("*.tcd"))
    if not files:
        raise DataError(f"{depth_dir}: no .tcd depth files found")
    return files


def cmd_synth(args) -> int:
    path = _load(args.path, load_path)
    with _blame(args.scene):
        spec = scene_from_dict(read_json(args.scene))
        if args.seed is not None:
            spec.seed = args.seed
        try:
            gt = generate_scene(spec, path)
        except PixelOverflow as exc:  # the path carries a point out of range
            raise DataError(f"{args.path}: scene coordinates exceed the float32 range ({exc})") from exc
    field, k = gt.field, spec.intrinsics
    # Per-frame depth images: z-buffered splat of the frame's visible points,
    # holes left at zero, all in one work tuple for the largest frame. Track
    # files, like a real tracker, mark points outside the image footprint
    # invisible. Both are float32, checked before writing.
    lifted = map(field.lift, range(field.num_frames), field.visibility)
    work = splat_work(int(field.visibility.sum(axis=1).max(initial=0)), np.empty(0), k)
    depth_imgs = [splat_zbuffer(p, p[:, 2], k, buffer=work)[0].copy() for p in lifted]
    if not all((np.abs(a) <= FLOAT32_MAX).all() for a in depth_imgs + [field.pixels]):
        raise DataError(f"{args.path}: scene coordinates exceed the float32 range of the output files")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for lam, depth_img in enumerate(depth_imgs):
        _save(out / f"depth_{lam:04d}.tcd", write_depth, depth_img)
    _save(out / "tracks.tct", write_tracks, Tracks(field.pixels, field.visibility & in_image(field.pixels, k)))
    _save(out / "path.json", lambda file: save_path(path, file))
    _save(out / "partition.pgm", write_pgm, np.multiply(gt.partition.static_mask, 255, dtype=np.uint8))
    _save(out / "rgb0.ppm", write_ppm, gt.rgb0)
    _save(out / "scene.json", write_json, scene_to_dict(spec))
    return 0


def _assemble(args, k):
    """The trajectory field of the track and depth files; all but the pixels it takes over are freed."""
    tracks = _load(args.tracks, read_tracks)
    depths = [_load(f, lambda f: check_depth_size(read_depth(f), k)) for f in _depth_files(args.depth_dir)]
    if len(depths) != tracks.num_frames:
        raise DataError(f"{args.depth_dir}: {len(depths)} depth maps for {tracks.num_frames} track frames")
    with _blame(args.tracks):
        return assemble_field(depths, tracks, k)


def _extract(args):
    """Assemble the trajectory field and extract its static region."""
    config = SegmentationConfig(  # built first: its errors name a flag, not a file
        epsilon=args.epsilon, alpha=args.alpha, max_iterations=args.max_iters
    )
    field = _assemble(args, _load(args.intrinsics, _read_intrinsics))
    with _blame(args.tracks):
        return field, extract_static(field, config)


def _segmentation_parameters(args) -> dict:
    return {
        "tracks": str(args.tracks),
        "depth_dir": str(args.depth_dir),
        "intrinsics": str(args.intrinsics),
        "epsilon": args.epsilon,
        "alpha": args.alpha,
        "max_iters": args.max_iters,
    }


def _refuse_degenerate(args, result) -> bool:
    """Report a degenerate segmentation unless --allow-degenerate was given."""
    if result.status != STATUS_DEGENERATE or args.allow_degenerate:
        return False
    print(f"error: degenerate segmentation: {'; '.join(result.diagnostics)}", file=sys.stderr)
    return True


def cmd_segment(args) -> int:
    _, result = _extract(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _save(out / "mask.pgm", write_pgm, np.multiply(result.partition.static_mask, 255, dtype=np.uint8))
    _save(out / "motions.json", lambda file: save_path(CameraPath(result.motions), file))
    _write_json(
        out / "report.json",
        {
            "status": result.status,
            "iterations": result.iterations_used,
            "eps_max_trace": list(result.eps_max_trace),
            "motions": [motion_to_dict(m) for m in result.motions],
            "static_fraction": result.partition.static_fraction,
            "diagnostics": result.diagnostics,
            "parameters": _segmentation_parameters(args),
        },
    )
    return 3 if _refuse_degenerate(args, result) else 0


def cmd_signal_from_video(args) -> int:
    field, result = _extract(args)
    if _refuse_degenerate(args, result):
        return 3
    with _blame(args.tracks):
        strength = field_strength(field, result.motions)
        tensor = control_tensor(
            field.points0, result.motions, field.intrinsics, strength.m, (field.grid_h, field.grid_w)
        )
    _save(args.out, write_tensor, tensor)
    _write_json(
        Path(args.out).with_suffix(".m.json"),
        {
            "m": strength.m.tolist(),
            "no_overlap": strength.no_overlap.tolist(),
            "segmentation_status": result.status,
            "static_fraction": result.partition.static_fraction,
            "parameters": _segmentation_parameters(args),
        },
    )
    return 0


def cmd_signal_from_path(args) -> int:
    strength = args.motion_strength
    if not (math.isfinite(strength) and strength >= 0.0):
        raise DataError(f"--motion-strength must be finite and non-negative, got {strength}")
    if strength > FLOAT32_MAX:  # TCS1 stores float32
        raise DataError(f"--motion-strength must not exceed the float32 limit {FLOAT32_MAX}, got {strength}")
    k = _load(args.intrinsics, _read_intrinsics)
    depth0 = _load(args.depth, lambda f: check_first_depth(read_depth(f), k))
    path = _load(args.path, load_path)
    tensor = build_inference_signal(depth0, k, path, strength)
    if args.normalized:
        with _blame(args.intrinsics):
            tensor = normalize_tensor(tensor, k)
    _save(args.out, write_tensor, tensor)
    return 0


def cmd_path(args) -> int:
    path = generate_primitive(PrimitiveSpec(kind=args.primitive, magnitude=args.magnitude, frames=args.frames))
    _save(args.out, lambda file: save_path(path, file))
    return 0


def cmd_preview(args) -> int:
    k = _load(args.intrinsics, _read_intrinsics)
    depth = _load(args.depth, lambda f: check_first_depth(read_depth(f), k))
    path = _load(args.path, load_path)
    with _blame(args.rgb):
        frame0 = RgbdFrame(read_ppm(args.rgb), depth, k)
    rendered = render_preview(frame0, path, threads=args.resolved_threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for lam in range(len(path)):
        _save(out / f"preview_{lam:04d}.ppm", write_ppm, rendered.frames[lam])
        _save(out / f"coverage_{lam:04d}.pgm", write_pgm, np.multiply(rendered.coverage[lam], 255, dtype=np.uint8))
    return 0


def cmd_eval(args) -> int:
    gt = _load(args.gt, load_path)
    with _blame(args.est):
        est = load_path(args.est)
        rotation_error = rot_err(gt, est)
        translation_error = trans_err(gt, est)
    msc_value = None
    if args.corr is not None:
        with _blame(args.corr):
            msc_value = msc(read_correspondences(args.corr))
    _write_json(
        args.out,
        {
            "rot_err": rotation_error,
            "trans_err": translation_error,
            "msc": msc_value,
            "metric_definitions": "toolkit definition: summed per-frame geodesic rotation; "
            "max-normalized summed translation L2; rigid-aligned mean correspondence L2",
            "parameters": {
                "gt": str(args.gt),
                "est": str(args.est),
                "corr": None if args.corr is None else str(args.corr),
            },
        },
    )
    return 0


def _add_segmentation_flags(sub):
    sub.add_argument("--tracks", required=True, help="track file (TCT1)")
    sub.add_argument("--depth-dir", required=True, help="directory of per-frame depth files (TCD1)")
    sub.add_argument("--intrinsics", required=True, help="intrinsics JSON")
    sub.add_argument("--epsilon", type=float, default=None, help="tolerable summed error per point, px^2 (default 4*T)")
    sub.add_argument("--alpha", type=float, default=0.15, help="acceptable ratio in (0,1)")
    sub.add_argument("--max-iters", type=int, default=10, help="maximum extraction iterations")
    sub.add_argument("--allow-degenerate", action="store_true", help="exit 0 even if the static set collapses")


def build_parser() -> _Parser:
    parser = _Parser(prog="camsig", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override scene seed / RNG seed")
    parser.add_argument("--threads", type=int, default=0, help="preview render threads (0 = one per CPU)")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("synth", help="generate a synthetic scene and export its files")
    sub.add_argument("--scene", required=True, help="scene JSON")
    sub.add_argument("--path", required=True, help="camera path JSON")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_synth)

    sub = commands.add_parser("segment", help="extract the static region from tracks + depth")
    _add_segmentation_flags(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_segment)

    sub = commands.add_parser(
        "signal-from-video", help="full training-side pipeline: assemble, extract, pack"
    )
    _add_segmentation_flags(sub)
    sub.add_argument("--out", required=True, help="output control tensor (TCS1)")
    sub.set_defaults(func=cmd_signal_from_video)

    sub = commands.add_parser(
        "signal-from-path", help="inference-side signal from depth + camera path"
    )
    sub.add_argument("--depth", required=True, help="first-frame depth file (TCD1)")
    sub.add_argument("--intrinsics", required=True, help="intrinsics JSON")
    sub.add_argument("--path", required=True, help="camera path JSON")
    sub.add_argument("--motion-strength", type=float, required=True, help="user motion strength")
    sub.add_argument("--normalized", action="store_true", help="normalize pixel channels to [-1, 1]")
    sub.add_argument("--out", required=True, help="output control tensor (TCS1)")
    sub.set_defaults(func=cmd_signal_from_path)

    sub = commands.add_parser("path", help="generate a basic camera movement")
    sub.add_argument("--primitive", required=True, choices=PRIMITIVE_KINDS)
    sub.add_argument("--magnitude", type=float, required=True, help="scene units (pans/zooms) or radians (rolls)")
    sub.add_argument("--frames", type=int, required=True)
    sub.add_argument("--out", required=True, help="output path JSON")
    sub.set_defaults(func=cmd_path)

    sub = commands.add_parser("preview", help="render the RGBD cloud under a camera path")
    sub.add_argument("--rgb", required=True, help="first-frame image (PPM P6)")
    sub.add_argument("--depth", required=True, help="first-frame depth file (TCD1)")
    sub.add_argument("--intrinsics", required=True, help="intrinsics JSON")
    sub.add_argument("--path", required=True, help="camera path JSON")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_preview)

    sub = commands.add_parser("eval", help="camera-accuracy metrics between two paths")
    sub.add_argument("--gt", required=True, help="ground-truth path JSON")
    sub.add_argument("--est", required=True, help="estimated path JSON")
    sub.add_argument("--corr", default=None, help="correspondence text file for MSC")
    sub.add_argument("--out", required=True, help="output report JSON")
    sub.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 0:
            parser.error(f"--threads must be >= 0 (0 = auto), got {args.threads}")
        if args.seed is not None and args.seed < 0:
            parser.error(f"--seed must be >= 0, got {args.seed}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    args.resolved_threads = args.threads or os.cpu_count() or 1
    try:
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
