"""Valid but degenerate inputs through every command, end to end.

`tests/test_fuzz.py` mutates the bytes and JSON of one valid scene, so it
tests the parsers. Here every input is well formed and the geometry is
degenerate: images of 1x1 to 4x3 pixels, two- and three-frame clips, a
path that stands still, pans, zooms in until the points are a tenth as
deep or puts every point behind the camera after frame 0, a moving disc or
none, and depth maps that are all holes after frame 0. Each scene goes
through `synth`, `segment` and `signal-from-video` (with and without
`--allow-degenerate`), `signal-from-path` (with and without
`--normalized`), `preview` and `eval`, all through `cli.main`. Every run
must return a documented exit code (0 success, 1 usage, 2 data, 3
degenerate segmentation) without raising, an exit 2 must name a file, and
every file the runs write must re-read with its reader and hold only
finite values.

The runs are deterministic (derandomized, no example database).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from camsig.campath import PrimitiveSpec, generate_primitive, load_path, save_path
from camsig.cli import main
from camsig.geometry import Intrinsics, write_json
from camsig.io import read_depth, read_pgm, read_ppm, read_tensor, read_tracks, write_depth

configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "camsig-hypothesis")

PATHS = ("zero", "pan", "far_zoom_in", "all_behind")


def camera_path(kind, frames, z_near, z_far):
    if kind == "zero":
        spec = PrimitiveSpec("pan_right", 0.0, frames)
    elif kind == "pan":
        spec = PrimitiveSpec("pan_right", 0.3, frames)
    elif kind == "far_zoom_in":  # the nearest points end at a tenth of their depth
        spec = PrimitiveSpec("zoom_in", 0.9 * z_near, frames)
    else:  # every point is behind the camera from frame 1 on
        spec = PrimitiveSpec("zoom_in", (frames - 1) * (z_far + 1.0), frames)
    return generate_primitive(spec)


@st.composite
def scenes(draw):
    width, height, frames = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    f = draw(st.sampled_from([1.0, 4.0]))
    k = Intrinsics(fx=f, fy=f, cx=(width - 1) / 2, cy=(height - 1) / 2, width=width, height=height)
    z_near, z_far = draw(st.sampled_from([(2.0, 2.0), (1.5, 2.5)]))
    objects = []
    if draw(st.booleans()):  # claims the pixel at the principal point
        objects = [{"center": [k.cx, k.cy], "radius": 0.75, "velocity": [0.05, -0.02, 0.0]}]
    scene = {
        "frames": frames,
        "grid": [height, width],
        "intrinsics": k.to_dict(),
        "depth_range": [z_near, z_far],
        "depth_jitter": draw(st.sampled_from([0.0, 0.3])),
        "objects": objects,
        "track_noise": draw(st.sampled_from([0.0, 0.5])),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }
    path = camera_path(draw(st.sampled_from(PATHS)), frames, z_near, z_far)
    return scene, path, draw(st.booleans())


def run(argv):
    """main's exit code; an exit 2 must name one of the files or directories it was given."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        files = [str(arg) for arg in argv if isinstance(arg, Path)]
        assert any(file in err.getvalue() for file in files), err.getvalue()
    return code


def reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


ARRAY_READERS = {
    ".tcd": read_depth,
    ".tct": lambda file: read_tracks(file).uv,
    ".tcs": lambda file: read_tensor(file).data,
    ".pgm": read_pgm,
    ".ppm": read_ppm,
}


def assert_finite_and_readable(file):
    if file.suffix == ".json":
        json.loads(file.read_text(), parse_constant=reject_constant)
        if file.name in ("path.json", "motions.json"):
            load_path(file)
    else:
        assert np.isfinite(ARRAY_READERS[file.suffix](file)).all(), file


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(scenes())
def test_degenerate_scenes_give_documented_exits_and_finite_files(case):
    scene, path, holes = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_json(work / "scene.json", scene)
        save_path(path, work / "path.json")
        clip = work / "clip"
        if run(["synth", "--scene", work / "scene.json", "--path", work / "path.json", "--out", clip]) == 0:
            intrinsics = clip / "intrinsics.json"
            write_json(intrinsics, scene["intrinsics"])
            if holes:
                for file in sorted(clip.glob("depth_*.tcd"))[1:]:
                    write_depth(file, np.zeros_like(read_depth(file)))
            video = ["--tracks", clip / "tracks.tct", "--depth-dir", clip, "--intrinsics", intrinsics]
            for name, allow in (("strict", []), ("allowed", ["--allow-degenerate"])):
                run(["segment", *video, "--out", work / f"segment_{name}", *allow])
                run(["signal-from-video", *video, "--out", work / f"video_{name}.tcs", *allow])
            inference = ["--depth", clip / "depth_0000.tcd", "--intrinsics", intrinsics, "--path", clip / "path.json"]
            for name, normalized in (("plain", []), ("normalized", ["--normalized"])):
                run(["signal-from-path", *inference, "--motion-strength", "1.5", "--out", work / f"{name}.tcs", *normalized])
            run(["preview", "--rgb", clip / "rgb0.ppm", *inference, "--out", work / "preview"])
            motions = work / "segment_strict" / "motions.json"
            if motions.exists():
                run(["eval", "--gt", clip / "path.json", "--est", motions, "--out", work / "eval.json"])
        for file in sorted(work.rglob("*")):
            if file.is_file():
                assert_finite_and_readable(file)
