"""Fuzzing the command line with malformed input files.

Structural mutations of the path, scene and intrinsics JSON formats, byte
mutations of TCD1, TCT1 and PPM files and line mutations of correspondence
text go through `cli.main`. Whatever the input, `main` returns one of the
documented exit codes (0 success, 1 usage, 2 data, 3 numerical), explains a
failure on stderr, and never raises. A successful signal-from-path run
writes only finite values. Byte mutations of TCS1 files go through
`read_tensor`, which returns a tensor of the header's shape or raises
FormatError.

The runs are deterministic (derandomized, no example database) and small:
an 8x8 image and three frames.
"""

import contextlib
import copy
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from camsig.campath import PrimitiveSpec, compose_paths, generate_primitive, save_path
from camsig.cli import main
from camsig.geometry import Intrinsics
from camsig.io import FormatError, read_tensor, write_correspondences

# Even without an example database, Hypothesis caches the constants it
# mines from the collected source files (at collection time); keep that
# cache out of the working tree.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "camsig-hypothesis")

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

K8 = Intrinsics(fx=12.0, fy=12.0, cx=3.5, cy=3.5, width=8, height=8)
FRAMES = 3
SCENE = {
    "frames": FRAMES,
    "grid": [8, 8],
    "intrinsics": K8.to_dict(),
    "depth_range": [3.0, 3.5],
    "depth_jitter": 0.1,
    "objects": [
        {"center": [2.0, 2.0], "radius": 1.5, "velocity": [0.02, 0.0, 0.0]},
        {
            "center": [5.5, 5.5],
            "radius": 1.5,
            "motions": [
                {"R": np.eye(3).tolist(), "t": [0.0, 0.0, 0.0]},
                {"R": np.eye(3).tolist(), "t": [0.0, 0.03, 0.0]},
                {"R": np.eye(3).tolist(), "t": [0.0, 0.06, 0.01]},
            ],
        },
    ],
    "track_noise": 0.1,
    "seed": 1,
}

# Replacement values: every JSON type, non-integral and non-finite numbers,
# wrong-shaped and ragged arrays. Numbers stay small, so that no mutation
# asks for a large allocation. Each draw is a fresh copy, so that later
# edits never alias or change the samples.
VALUES = st.sampled_from([
    None, True, False, 0, -1, 1, 2, 2.5, 16.0, -0.0, float("nan"), float("inf"), "x",
    [], [1], [None, 8], [[1.0, 0.0], [0.0]], {}, {"x": 1},
]).map(copy.deepcopy)


def nodes(doc, at=()):
    """The path of every value in a JSON document, the root included."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, at + (key,))


@st.composite
def mutated_json(draw, doc):
    """1-3 edits: replace a value, delete it, add an unknown key, or drop a list's last item."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(nodes(doc))))
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        node = parent[at[-1]] if at else doc
        op = draw(st.sampled_from(["replace", "delete", "extra", "shorten"]))
        if op == "delete" and at:
            del parent[at[-1]]
        elif op == "extra" and isinstance(node, dict):
            node["extra"] = draw(VALUES)
        elif op == "shorten" and isinstance(node, list) and node:
            node.pop()
        elif at:
            parent[at[-1]] = draw(VALUES)
        else:
            doc = draw(VALUES)
    return doc


# Replacement tokens for correspondence lines: indices out of order, numbers
# at the edge of the float range, non-finite and non-numeric text.
TOKENS = st.sampled_from(["0", "1", "2", "-1", "2.5", "-0.0", "1e308", "5e-324", "nan", "inf", "x", "0x1", "1_0"])


@st.composite
def mutated_lines(draw, text):
    """1-3 edits: replace or delete a token, delete or duplicate a line, or insert a blank line."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "delete", "drop", "duplicate", "blank"]))
        i = draw(st.integers(0, len(lines)))
        if op == "blank" or i == len(lines):
            lines.insert(i, [])
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if op == "delete":
                del lines[i][j]
            else:
                lines[i][j] = draw(TOKENS)
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@st.composite
def mutated_bytes(draw, data, header_len):
    """1-3 edits: set a byte of the header or the start of the body, truncate, or append."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["set", "truncate", "append"]))
        if op == "set" and data:
            data[draw(st.integers(0, min(len(data), header_len + 12) - 1))] = draw(st.integers(0, 255))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid inputs: intrinsics, path, scene, its synth export, a tensor and correspondences."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "k.json").write_text(json.dumps(K8.to_dict()))
    zoom = generate_primitive(PrimitiveSpec("zoom_out", 0.2, FRAMES))
    roll = generate_primitive(PrimitiveSpec("rot_cw", 0.1, FRAMES))
    save_path(compose_paths(zoom, roll), root / "path.json")
    (root / "scene.json").write_text(json.dumps(SCENE))
    argv = ["synth", "--scene", str(root / "scene.json"), "--path", str(root / "path.json")]
    assert main(argv + ["--out", str(root / "data")]) == 0
    assert signal_from_path(root, root) == 0
    grid = np.array([[1.0, 2.0], [6.0, 1.5], [3.0, 7.0], [5.5, 5.0]])
    write_correspondences(root / "corr.txt", [(grid, grid + 0.5), (grid, grid[:, ::-1])])
    return root


def run_main(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().strip(), f"exit {code} without a message"
    return code


def signal_from_path(valid, work, depth=None, intrinsics=None, path=None):
    out = work / "t.tcs"
    code = run_main([
        "signal-from-path",
        "--depth", str(depth or valid / "data" / "depth_0000.tcd"),
        "--intrinsics", str(intrinsics or valid / "k.json"),
        "--path", str(path or valid / "path.json"),
        "--motion-strength", "2",
        "--out", str(out),
    ])
    if code == 0:
        assert np.isfinite(read_tensor(out).data).all()
    return code


@contextlib.contextmanager
def workdir(valid):
    with tempfile.TemporaryDirectory(dir=valid) as tmp:
        yield Path(tmp)


def write_json(file, doc):
    file.write_text(json.dumps(doc))
    return file


def test_valid_inputs_pass(valid):
    with workdir(valid) as work:
        assert signal_from_path(valid, work) == 0
        assert eval_correspondences(valid, work, (valid / "corr.txt").read_text()) == 0


@FUZZ
@given(data=st.data())
def test_fuzz_intrinsics_json(valid, data):
    doc = data.draw(mutated_json(K8.to_dict()))
    with workdir(valid) as work:
        signal_from_path(valid, work, intrinsics=write_json(work / "k.json", doc))


@FUZZ
@given(data=st.data())
def test_fuzz_path_json(valid, data):
    doc = data.draw(mutated_json(json.loads((valid / "path.json").read_text())))
    with workdir(valid) as work:
        signal_from_path(valid, work, path=write_json(work / "p.json", doc))


@FUZZ
@given(data=st.data())
def test_fuzz_scene_json(valid, data):
    doc = data.draw(mutated_json(SCENE))
    with workdir(valid) as work:
        scene = write_json(work / "scene.json", doc)
        run_main(["synth", "--scene", str(scene), "--path", str(valid / "path.json"), "--out", str(work / "out")])


@FUZZ
@given(data=st.data())
def test_fuzz_depth_bytes(valid, data):
    depth = data.draw(mutated_bytes((valid / "data" / "depth_0000.tcd").read_bytes(), 12))
    with workdir(valid) as work:
        (work / "d.tcd").write_bytes(depth)
        signal_from_path(valid, work, depth=work / "d.tcd")


@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_fuzz_track_bytes(valid, data):
    tracks = data.draw(mutated_bytes((valid / "data" / "tracks.tct").read_bytes(), 12))
    with workdir(valid) as work:
        (work / "t.tct").write_bytes(tracks)
        run_main([
            "segment",
            "--tracks", str(work / "t.tct"),
            "--depth-dir", str(valid / "data"),
            "--intrinsics", str(valid / "k.json"),
            "--out", str(work / "seg"),
        ])


@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_fuzz_ppm_bytes(valid, data):
    rgb = data.draw(mutated_bytes((valid / "data" / "rgb0.ppm").read_bytes(), len(b"P6\n8 8\n255\n")))
    with workdir(valid) as work:
        (work / "rgb.ppm").write_bytes(rgb)
        run_main([
            "preview",
            "--rgb", str(work / "rgb.ppm"),
            "--depth", str(valid / "data" / "depth_0000.tcd"),
            "--intrinsics", str(valid / "k.json"),
            "--path", str(valid / "path.json"),
            "--out", str(work / "prev"),
        ])


@FUZZ
@given(data=st.data())
def test_fuzz_tensor_bytes(valid, data):
    raw = data.draw(mutated_bytes((valid / "t.tcs").read_bytes(), 20))
    with workdir(valid) as work:
        (work / "t.tcs").write_bytes(raw)
        try:
            ct = read_tensor(work / "t.tcs")
        except FormatError:
            return
    t, c, h, w = struct.unpack_from("<IIII", raw, 4)
    assert ct.data.shape == (t, c, h, w)
    assert ct.last_frame_valid.shape == (h, w)


def eval_correspondences(valid, work, text) -> int:
    (work / "c.txt").write_text(text)
    path = str(valid / "path.json")
    return run_main(["eval", "--gt", path, "--est", path, "--corr", str(work / "c.txt"), "--out", str(work / "e.json")])


@FUZZ
@given(data=st.data())
def test_fuzz_correspondence_text(valid, data):
    text = data.draw(mutated_lines((valid / "corr.txt").read_text()))
    with workdir(valid) as work:
        assert eval_correspondences(valid, work, text) in (0, 2)
