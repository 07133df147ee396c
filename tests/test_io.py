import logging
import os
import struct

import numpy as np
import pytest

from camsig.campath import PrimitiveSpec, generate_primitive
from camsig.geometry import BLOCK, Intrinsics, in_image, project, unproject
from camsig.io import (
    FormatError,
    Tracks,
    _bilinear_depth,
    assemble_field,
    read_correspondences,
    read_depth,
    read_pgm,
    read_ppm,
    read_tensor,
    read_tracks,
    write_correspondences,
    write_depth,
    write_pgm,
    write_ppm,
    write_tensor,
    write_tracks,
)
from camsig.preview import splat_zbuffer
from camsig.signal import ControlTensor
from camsig.synth import SceneSpec, generate_scene
from camsig.trajfield import grid_sample_uv
from util import K32, rng


class TestDepthFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        gen = rng(80)
        depth = gen.uniform(0.5, 9.0, size=(11, 17)).astype(np.float32)
        file = tmp_path / "d.tcd"
        write_depth(file, depth)
        back = read_depth(file)
        assert np.array_equal(back.astype(np.float32), depth)
        # Byte-level: write(read(bytes)) reproduces the file exactly.
        raw = file.read_bytes()
        write_depth(tmp_path / "d2.tcd", back)
        assert (tmp_path / "d2.tcd").read_bytes() == raw

    def test_wrong_magic(self, tmp_path):
        file = tmp_path / "d.tcd"
        write_depth(file, np.ones((2, 2)))
        data = file.read_bytes()
        file.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(FormatError, match="unrecognized format"):
            read_depth(file)

    def test_truncation(self, tmp_path):
        file = tmp_path / "d.tcd"
        write_depth(file, np.ones((4, 4)))
        data = file.read_bytes()
        file.write_bytes(data[:-5])
        with pytest.raises(FormatError, match=f"truncated at byte {len(data) - 5}"):
            read_depth(file)

    def test_size_mismatch(self, tmp_path):
        file = tmp_path / "d.tcd"
        write_depth(file, np.ones((4, 4)))
        file.write_bytes(file.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="size mismatch"):
            read_depth(file)

    def test_nan_rejected(self, tmp_path):
        depth = np.ones((3, 3), dtype=np.float32)
        depth[1, 1] = np.nan
        file = tmp_path / "d.tcd"
        write_depth(file, depth)
        with pytest.raises(FormatError, match="invalid depth value at sample 4"):
            read_depth(file)

    def test_negative_rejected(self, tmp_path):
        depth = np.ones((3, 3), dtype=np.float32)
        depth[0, 2] = -1.0
        file = tmp_path / "d.tcd"
        write_depth(file, depth)
        with pytest.raises(FormatError, match="invalid depth value at sample 2"):
            read_depth(file)

    def test_zero_allowed_as_hole(self, tmp_path):
        depth = np.ones((3, 3), dtype=np.float32)
        depth[2, 2] = 0.0
        file = tmp_path / "d.tcd"
        write_depth(file, depth)
        assert read_depth(file)[2, 2] == 0.0

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self, tmp_path):
        depth = rng(87).uniform(1.0, 3.0, size=(4, 5)).astype(np.float32)
        write_depth(tmp_path / "d.tcd", depth)
        read_end, write_end = os.pipe()
        os.write(write_end, (tmp_path / "d.tcd").read_bytes())  # fits the pipe buffer
        os.close(write_end)
        try:
            back = read_depth(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert np.array_equal(back, depth)


class TestTrackFormat:
    def make_tracks(self, gen, t=4, n=12):
        uv = gen.uniform(0.0, 30.0, size=(t, n, 2)).astype(np.float32).astype(float)
        vis = gen.uniform(size=(t, n)) > 0.2
        vis[0] = True
        return Tracks(uv, vis)

    def test_roundtrip_bitwise(self, tmp_path):
        gen = rng(81)
        tracks = self.make_tracks(gen)
        file = tmp_path / "t.tct"
        write_tracks(file, tracks)
        back = read_tracks(file)
        assert np.array_equal(back.uv, tracks.uv)
        assert np.array_equal(back.visible, tracks.visible)
        raw = file.read_bytes()
        write_tracks(tmp_path / "t2.tct", back)
        assert (tmp_path / "t2.tct").read_bytes() == raw

    def test_bad_visibility_byte(self, tmp_path):
        gen = rng(82)
        tracks = self.make_tracks(gen, t=2, n=3)
        file = tmp_path / "t.tct"
        write_tracks(file, tracks)
        data = bytearray(file.read_bytes())
        data[12 + 9 * 2 + 8] = 7  # record 2's visibility byte
        file.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="invalid visibility byte at record 2"):
            read_tracks(file)

    def test_truncation_and_magic(self, tmp_path):
        gen = rng(83)
        file = tmp_path / "t.tct"
        write_tracks(file, self.make_tracks(gen))
        data = file.read_bytes()
        file.write_bytes(data[:10])
        with pytest.raises(FormatError, match="truncated at byte 10"):
            read_tracks(file)
        file.write_bytes(b"TCD1" + data[4:])
        with pytest.raises(FormatError, match="unrecognized format"):
            read_tracks(file)


class TestTensorFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        gen = rng(84)
        data = gen.normal(size=(3, 3, 5, 6)).astype(np.float32).astype(float)
        mask = gen.uniform(size=(5, 6)) > 0.5
        ct = ControlTensor(data, mask)
        file = tmp_path / "x.tcs"
        write_tensor(file, ct)
        back = read_tensor(file)
        assert np.array_equal(back.data, data)
        assert np.array_equal(back.last_frame_valid, mask)
        raw = file.read_bytes()
        write_tensor(tmp_path / "x2.tcs", back)
        assert (tmp_path / "x2.tcs").read_bytes() == raw

    def test_read_is_writable_float32_without_widening(self, tmp_path):
        gen = rng(86)
        ct = ControlTensor(gen.normal(size=(2, 3, 4, 5)).astype(np.float32), gen.uniform(size=(4, 5)) > 0.5)
        file = tmp_path / "x.tcs"
        write_tensor(file, ct)
        back = read_tensor(file)
        assert back.data.dtype == np.float32 and back.data.flags.writeable
        assert np.array_equal(back.data, ct.data)
        back.data[0, 0, 0, 0] += 1.0
        write_tensor(tmp_path / "x2.tcs", read_tensor(file))
        assert (tmp_path / "x2.tcs").read_bytes() == file.read_bytes()

    def test_corruptions(self, tmp_path):
        gen = rng(85)
        ct = ControlTensor(gen.normal(size=(2, 3, 4, 4)), np.ones((4, 4), dtype=bool))
        file = tmp_path / "x.tcs"
        write_tensor(file, ct)
        data = file.read_bytes()
        file.write_bytes(data[:30])
        with pytest.raises(FormatError, match="truncated at byte 30"):
            read_tensor(file)
        file.write_bytes(data + b"\x01\x02")
        with pytest.raises(FormatError, match="size mismatch"):
            read_tensor(file)
        bad = bytearray(data)
        bad[-1] = 9  # validity byte out of {0, 1}
        file.write_bytes(bytes(bad))
        with pytest.raises(FormatError, match="invalid validity byte at pixel 15"):
            read_tensor(file)
        four = struct.pack("<4sIIII", b"TCS1", 1, 4, 1, 1) + bytes(16) + b"\x01"
        file.write_bytes(four)  # a consistent size, but not the (T, 3, H, W) layout
        with pytest.raises(FormatError, match="expected 3 channels, got 4"):
            read_tensor(file)


class TestImages:
    def test_ppm_roundtrip(self, tmp_path):
        gen = rng(86)
        rgb = gen.integers(0, 256, size=(7, 9, 3), dtype=np.uint8)
        file = tmp_path / "a.ppm"
        write_ppm(file, rgb)
        assert np.array_equal(read_ppm(file), rgb)

    def test_pgm_roundtrip(self, tmp_path):
        gen = rng(87)
        gray = gen.integers(0, 256, size=(5, 4), dtype=np.uint8)
        file = tmp_path / "a.pgm"
        write_pgm(file, gray)
        assert np.array_equal(read_pgm(file), gray)

    def test_writers_write_header_then_c_order_bytes(self, tmp_path):
        # Arrays in Fortran order or as strided views are written in the
        # bytes of the header joined to the C-order raster.
        gen = rng(88)
        rgb = np.asfortranarray(gen.integers(0, 256, size=(5, 7, 3), dtype=np.uint8))
        gray = gen.integers(0, 256, size=(6, 10), dtype=np.uint8)[:, ::2]
        depth = np.asfortranarray(gen.uniform(0.5, 9.0, size=(4, 6)))
        file = tmp_path / "x"
        write_ppm(file, rgb)
        assert file.read_bytes() == b"P6\n7 5\n255\n" + rgb.tobytes()
        write_pgm(file, gray)
        assert file.read_bytes() == b"P5\n5 6\n255\n" + gray.tobytes()
        write_depth(file, depth)
        assert file.read_bytes() == b"TCD1" + struct.pack("<II", 6, 4) + depth.astype("<f4").tobytes()

    def test_ppm_with_comments(self, tmp_path):
        file = tmp_path / "c.ppm"
        raster = bytes(range(2 * 2 * 3))
        file.write_bytes(b"P6\n# made by hand\n2 2\n# more\n255\n" + raster)
        img = read_ppm(file)
        assert img.shape == (2, 2, 3)
        assert img.tobytes() == raster

    def test_ppm_errors(self, tmp_path):
        file = tmp_path / "bad.ppm"
        file.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="unrecognized format"):
            read_ppm(file)
        file.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(FormatError, match="unsupported maxval"):
            read_ppm(file)
        file.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(file)


class TestCorrespondences:
    def test_roundtrip(self, tmp_path):
        gen = rng(88)
        pairs = [
            (gen.uniform(0, 30, size=(5, 2)), gen.uniform(0, 30, size=(5, 2)))
            for _ in range(3)
        ]
        file = tmp_path / "c.txt"
        write_correspondences(file, pairs)
        back = read_correspondences(file)
        assert len(back) == 3
        for (s, d), (bs, bd) in zip(pairs, back):
            assert np.array_equal(s, bs)
            assert np.array_equal(d, bd)

    def test_rejects_gaps_and_garbage(self, tmp_path):
        file = tmp_path / "c.txt"
        file.write_text("0 1 2 3 4\n2 1 2 3 4\n")
        with pytest.raises(FormatError, match="ordered and contiguous"):
            read_correspondences(file)
        file.write_text("0 1 2 3\n")
        with pytest.raises(FormatError, match="expected 5 fields"):
            read_correspondences(file)
        file.write_text("0 a 2 3 4\n")
        with pytest.raises(FormatError, match="invalid number"):
            read_correspondences(file)


def several_block_clip():
    """Tracks of a grid of more than 2·BLOCK points over 3 frames, with invisible,
    outside-the-image and hole-sampling entries in every block of frames 1 and 2."""
    k = Intrinsics(fx=200.0, fy=200.0, cx=129.5, cy=64.5, width=260, height=130)
    gen = rng(90)
    uv0 = grid_sample_uv(k.height, k.width, k)
    n = len(uv0)
    assert n > 2 * BLOCK
    uv = np.stack([uv0, uv0 + gen.normal(0.0, 3.0, (n, 2)), uv0 + gen.normal(0.0, 6.0, (n, 2))])
    uv = uv.astype(np.float32).astype(float)
    visible = gen.uniform(size=(3, n)) > 0.1
    visible[0] = True
    depths = [gen.uniform(1.0, 4.0, (k.height, k.width)) for _ in range(3)]
    for d in depths[1:]:
        d[gen.uniform(size=d.shape) < 0.02] = 0.0  # holes
    return k, depths, Tracks(uv, visible)


class TestAssembleField:
    def test_single_frame_unprojects_grid(self):
        uv = grid_sample_uv(K32.height, K32.width, K32)
        depth = np.full((K32.height, K32.width), 2.5)
        tracks = Tracks(uv[None, :, :], np.ones((1, uv.shape[0]), dtype=bool))
        field = assemble_field([depth], tracks, K32)
        assert field.visibility.all()
        expected = unproject(uv, 2.5, K32)
        assert np.max(np.abs(field.positions[0] - expected)) < 1e-12

    def test_synth_export_roundtrip(self):
        # Constant-depth scene and a pan+zoom path: bilinear sampling is
        # exact on smooth depth, so reassembly error is float32 quantization.
        spec = SceneSpec(
            frames=5, grid_h=32, grid_w=32, intrinsics=K32,
            z_near=4.0, z_far=4.0, seed=12,
        )
        pan = generate_primitive(PrimitiveSpec("pan_right", 0.12, 5))
        gt = generate_scene(spec, pan)
        field = gt.field
        depths = []
        uv_all = np.empty((5, field.num_points, 2))
        for lam in range(5):
            img, _ = splat_zbuffer(field.positions[lam], field.positions[lam][:, 2], K32)
            depths.append(img)
            uv_all[lam] = project(field.positions[lam], K32)
        in_image = (
            (uv_all[..., 0] >= -0.5) & (uv_all[..., 0] <= K32.width - 0.5)
            & (uv_all[..., 1] >= -0.5) & (uv_all[..., 1] <= K32.height - 0.5)
        )
        tracks = Tracks(
            uv_all.astype(np.float32).astype(float), field.visibility & in_image
        )
        rebuilt = assemble_field(depths, tracks, K32)
        both = rebuilt.visibility & field.visibility
        assert both[0].all()
        err = np.abs(rebuilt.positions[both] - field.positions[both])
        assert np.max(err) < 1e-5

    def test_field_holds_the_track_pixels_and_depth_samples(self):
        k, depths, tracks = several_block_clip()
        field = assemble_field(depths, tracks, k)
        vis = field.visibility
        held = tracks.visible & ~vis  # tracked, but outside the image or on a hole
        assert held[1:].any() and (~tracks.visible[1:]).any() and vis[1:].any()
        assert not (vis & ~tracks.visible).any()
        samples = [_bilinear_depth(d, uv[:, 0], uv[:, 1])[0] for d, uv in zip(depths, tracks.uv)]
        for lam in range(field.num_frames):
            v = vis[lam]
            assert np.array_equal(field.pixels[lam][v], tracks.uv[lam][v])
            assert np.array_equal(field.depth[lam][v], samples[lam][v])
            if lam:
                assert np.array_equal(field.pixels[lam][~v], field.pixels[lam - 1][~v])
                assert np.array_equal(field.depth[lam][~v], field.depth[lam - 1][~v])

    def test_field_takes_over_the_track_pixels(self):
        # Assembly consumes its tracks: the field's pixels are tracks.uv, held
        # in place, and the field is the one assembled from a copy of them.
        k, depths, tracks = several_block_clip()
        uv, visible = tracks.uv.copy(), tracks.visible.copy()
        want = assemble_field(depths, Tracks(uv.copy(), visible.copy()), k)
        field = assemble_field(depths, tracks, k)
        assert np.shares_memory(field.pixels, tracks.uv) and field.pixels is tracks.uv
        assert np.array_equal(field.pixels, want.pixels)
        assert np.array_equal(field.depth, want.depth)
        assert np.array_equal(field.visibility, want.visibility)
        # Tracks flagged visible but off-image, or on a depth hole, are held too.
        vis = field.visibility
        off_image = visible & ~in_image(uv, k)
        on_hole = visible & in_image(uv, k) & ~vis
        assert off_image[1:].any() and on_hole[1:].any() and (~visible[1:]).any()
        assert np.array_equal(tracks.uv[vis], uv[vis])
        for lam in range(1, field.num_frames):
            assert np.array_equal(tracks.uv[lam][~vis[lam]], tracks.uv[lam - 1][~vis[lam]])
        assert not np.array_equal(tracks.uv[off_image | on_hole], uv[off_image | on_hole])

    def test_lifted_frames_equal_the_lift_then_hold_assembly(self):
        # The reference is the assembly that stored positions: unproject
        # each frame's visible entries, then hold the last visible position.
        k, depths, tracks = several_block_clip()
        field = assemble_field(depths, tracks, k)
        positions = np.zeros(tracks.uv.shape[:2] + (3,))
        for lam, (d, uv) in enumerate(zip(depths, tracks.uv)):
            v = field.visibility[lam]
            positions[lam][v] = unproject(uv[v], _bilinear_depth(d, uv[v, 0], uv[v, 1])[0], k)
            if lam:
                positions[lam][~v] = positions[lam - 1][~v]
        assert np.array_equal(field.points0, positions[0])
        for lam in range(field.num_frames):
            assert np.array_equal(field.lift(lam), positions[lam])
            for s in range(0, field.num_points, BLOCK):
                b = slice(s, s + BLOCK)
                assert np.array_equal(field.lift(lam, b), positions[lam, b])
                assert not field.visibility[lam, b].all() or lam == 0

    def test_invisible_track_stays_invisible(self):
        uv = grid_sample_uv(K32.height, K32.width, K32)
        n = uv.shape[0]
        uv2 = np.stack([uv, uv])
        vis = np.ones((2, n), dtype=bool)
        vis[1, 7] = False
        depth = np.full((K32.height, K32.width), 2.0)
        field = assemble_field([depth, depth], Tracks(uv2, vis), K32)
        assert not field.visibility[1, 7]
        # carries the last visible position
        assert np.array_equal(field.positions[1, 7], field.positions[0, 7])

    def test_hole_sample_marks_invisible(self):
        uv = grid_sample_uv(K32.height, K32.width, K32)
        n = uv.shape[0]
        uv2 = np.stack([uv, uv])
        uv2[1, 5, 0] += 0.5  # samples between pixel 5 and the hole at pixel 6
        vis = np.ones((2, n), dtype=bool)
        depth0 = np.full((K32.height, K32.width), 2.0)
        depth1 = depth0.copy()
        depth1[0, 6] = 0.0
        field = assemble_field([depth0, depth1], Tracks(uv2, vis), K32)
        assert not field.visibility[1, 5]

    def test_out_of_bounds_sample_clamped_silently(self, caplog):
        uv = grid_sample_uv(K32.height, K32.width, K32)
        n = uv.shape[0]
        uv2 = np.stack([uv, uv])
        uv2[1, 0, 0] = -0.4  # in the half-pixel margin: clamped
        uv2[1, 1, 0] = -3.0  # outside the image: not an observation
        vis = np.ones((2, n), dtype=bool)
        depth = np.full((K32.height, K32.width), 2.0)
        with caplog.at_level(logging.DEBUG):
            field = assemble_field([depth, depth], Tracks(uv2, vis), K32)
        assert not caplog.records  # the half-pixel margin is routine, not news
        assert field.visibility[1, 0]  # clamped sample is still usable
        assert not field.visibility[1, 1]
        assert np.array_equal(field.positions[1, 1], field.positions[0, 1])  # held

    def test_grid_inference_rejects_scatter(self):
        gen = rng(89)
        uv = gen.uniform(0.0, 31.0, size=(1, 64, 2))
        depth = np.full((K32.height, K32.width), 2.0)
        with pytest.raises(ValueError, match="grid"):
            assemble_field([depth], Tracks(uv, np.ones((1, 64), dtype=bool)), K32)

    def test_frame_count_mismatch(self):
        uv = grid_sample_uv(K32.height, K32.width, K32)
        tracks = Tracks(uv[None], np.ones((1, uv.shape[0]), dtype=bool))
        depth = np.full((K32.height, K32.width), 2.0)
        with pytest.raises(ValueError, match="frame count mismatch"):
            assemble_field([depth, depth], tracks, K32)
