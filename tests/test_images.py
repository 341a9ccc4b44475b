import numpy as np
import pytest

from warpcheck.images import ImageFormatError, read_image, write_image


class TestTextFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((5, 7, 1))
        path = tmp_path / "img.txt"
        write_image(path, img)
        back = read_image(path)
        assert np.array_equal(back, img)

    def test_header_declares_shape(self, tmp_path):
        path = tmp_path / "img.txt"
        write_image(path, np.zeros((3, 4, 2)))
        assert path.read_text().splitlines()[0] == "3 4 2"

    def test_value_count_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n0.0 0.5 1.0\n")
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 0 0 0\n")
        with pytest.raises(ImageFormatError):
            read_image(path)


class TestNetpbm:
    def test_pgm_round_trip_quantised(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((6, 4, 1))
        path = tmp_path / "img.pgm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.random((4, 5, 3))
        path = tmp_path / "img.ppm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_exact_levels_survive(self, tmp_path):
        img = (np.arange(16).reshape(4, 4, 1) / 255.0 * 17.0).round() / 255.0 * 255.0
        img = np.arange(16).reshape(4, 4, 1) * 17.0 / 255.0
        path = tmp_path / "levels.pgm"
        write_image(path, img)
        assert np.array_equal(read_image(path), img)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes([7, 8, 9, 10, 11, 12])
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = read_image(path)
        assert img.shape == (2, 3, 1)
        assert img[0, 0, 0] == 7 / 255.0

    def test_channel_count_enforced_on_write(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_image(tmp_path / "x.pgm", np.zeros((4, 4, 3)))
        with pytest.raises(ImageFormatError):
            write_image(tmp_path / "x.ppm", np.zeros((4, 4, 1)))

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError):
            read_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P9\n2 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError):
            read_image(path)


_PIXELS = bytes([10, 32, 0, 255, 9, 128])  # leads with a whitespace byte

# case -> (file name, bytes); each must raise ImageFormatError naming the file
MALFORMED_IMAGES = {
    "empty-pgm": ("e.pgm", b""),
    "magic-only": ("m.pgm", b"P5\n"),
    "no-maxval": ("n.pgm", b"P5\n3 2\n"),
    "comment-at-eof-no-newline": ("c.pgm", b"P5 3 2 # maxval follows"),
    "comment-hides-maxval": ("h.pgm", b"P5\n3 2 # 255\n" + _PIXELS),
    "bad-magic": ("b.pgm", b"P9\n3 2\n255\n" + _PIXELS),
    "ppm-magic-in-pgm-file": ("p.pgm", b"P3\n3 2\n255\n" + _PIXELS),
    "magic-with-comment-glued": ("g.pgm", b"P5#c\n3 2\n255\n" + _PIXELS),
    "p6-in-pgm-file": ("q.pgm", b"P6\n1 2\n255\n" + _PIXELS),
    "p5-in-ppm-file": ("r.ppm", b"P5\n3 2\n255\n" + _PIXELS),
    "non-integer-width": ("w.pgm", b"P5\n3.0 2\n255\n" + _PIXELS),
    "non-integer-height": ("h.ppm", b"P6\n1 two\n255\n" + _PIXELS),
    "size-with-comment-glued": ("s.pgm", b"P5\n3#c\n2\n255\n" + _PIXELS),
    "non-integer-maxval": ("x.pgm", b"P5\n3 2\n0xff\n" + _PIXELS),
    "maxval-0": ("z.pgm", b"P5\n3 2\n0\n" + _PIXELS),
    "maxval-256": ("o.pgm", b"P5\n3 2\n256\n" + _PIXELS),
    "truncated-pixels": ("t.pgm", b"P5\n3 2\n255\n" + _PIXELS[:5]),
    "truncated-ppm": ("t.ppm", b"P6\n1 2\n255\n" + _PIXELS[:5]),
    "text-short-header": ("s.txt", b"2 2\n0 0 0 0\n"),
    "text-long-header": ("l.txt", b"2 2 1 1\n0 0 0 0\n"),
    "text-float-header": ("f.txt", b"2 2 1.0\n0 0 0 0\n"),
    "text-too-few-values": ("v.txt", b"2 2 1\n0.0 0.5 1.0\n"),
    "text-too-many-values": ("m.txt", b"1 2 1\n0.0 0.5 1.0\n"),
    "text-non-numeric": ("n.txt", b"1 2 1\n0.0 half\n"),
    "text-empty": ("e.txt", b""),
    "text-nan": ("nan.txt", b"1 2 1\n0.5 nan\n"),
    "text-inf": ("inf.txt", b"1 2 1\ninf 0.5\n"),
    "text-negative-value": ("neg.txt", b"1 2 1\n0.5 -0.5\n"),
    "text-value-above-one": ("big.txt", b"1 2 1\n7 0.5\n"),
    "pgm-sample-above-maxval": ("a.pgm", b"P5\n3 2\n15\n" + bytes([0, 15, 200, 1, 2, 3])),
}


class TestMalformedImages:
    @pytest.mark.parametrize("case", sorted(MALFORMED_IMAGES))
    def test_rejected(self, tmp_path, case):
        name, data = MALFORMED_IMAGES[case]
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ImageFormatError) as info:
            read_image(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("name", ["missing.pgm", "missing.ppm", "missing.txt"])
    def test_missing_file_named(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ImageFormatError, match="cannot read") as info:
            read_image(path)
        assert str(path) in str(info.value)


# case -> (file name, bytes) with a height, width or channel count below 1
NON_POSITIVE_SIZES = {
    "pgm-negative": ("n.pgm", b"P5\n-2 -2\n255\n" + _PIXELS),
    "pgm-zero-width": ("z.pgm", b"P5\n0 4\n255\n"),
    "pgm-negative-height": ("h.pgm", b"P5\n1 -1\n255\n" + _PIXELS),
    "ppm-zero-height": ("z.ppm", b"P6\n2 0\n255\n"),
    "text-zero-height": ("z.txt", b"0 2 1\n"),
    "text-zero-channels": ("c.txt", b"2 2 0\n"),
    "text-negative": ("n.txt", b"-2 -2 1\n0 0 0 0\n"),
}


class TestNonPositiveSizes:
    @pytest.mark.parametrize("case", sorted(NON_POSITIVE_SIZES))
    def test_rejected(self, tmp_path, case):
        name, data = NON_POSITIVE_SIZES[case]
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match="size must be positive") as info:
            read_image(path)
        assert str(path) in str(info.value)


# case -> (file name, bytes, expected (H, W, C) array)
WELL_FORMED_IMAGES = {
    "pgm-plain": ("a.pgm", b"P5\n3 2\n255\n" + _PIXELS,
                  np.frombuffer(_PIXELS, np.uint8).reshape(2, 3, 1) / 255.0),
    "pgm-comments-everywhere": (
        "b.pgm",
        b"# before magic\n\n#\nP5 # after magic\n"
        b"# between magic and width\n 3\t# after width\n"
        b"# between width and height\r\n2 # after height\n"
        b"# before maxval\n255\n" + _PIXELS,
        np.frombuffer(_PIXELS, np.uint8).reshape(2, 3, 1) / 255.0,
    ),
    "pgm-one-space-separators": ("c.pgm", b"P5 3 2 255 " + _PIXELS,
                                 np.frombuffer(_PIXELS, np.uint8).reshape(2, 3, 1) / 255.0),
    "pgm-maxval-100-trailing-bytes": (
        "d.pgm", b"P5\n\x0b3\x0c2\r100\t" + bytes([0, 50, 100, 7, 1, 2]) + b"extra",
        np.array([0, 50, 100, 7, 1, 2]).reshape(2, 3, 1) / 100.0,
    ),
    "pgm-maxval-15": ("m.pgm", b"P5\n3 2\n15\n" + bytes([0, 15, 7, 1, 2, 3]),
                      np.array([0, 15, 7, 1, 2, 3]).reshape(2, 3, 1) / 15.0),
    "ppm-comments": ("e.ppm", b"P6 # rgb\n1 2 # one column\n255\n" + _PIXELS,
                     np.frombuffer(_PIXELS, np.uint8).reshape(2, 1, 3) / 255.0),
    "text": ("f.txt", b"2 1 2\n0.1 0.2\n0.30000000000000004 1e-3\n",
             np.array([0.1, 0.2, 0.30000000000000004, 1e-3]).reshape(2, 1, 2)),
    "text-one-line": ("g.txt", b"1 1 1 \n  0.5", np.full((1, 1, 1), 0.5)),
}


class TestWellFormedImages:
    @pytest.mark.parametrize("case", sorted(WELL_FORMED_IMAGES))
    def test_bit_identical(self, tmp_path, case):
        name, data, expected = WELL_FORMED_IMAGES[case]
        path = tmp_path / name
        path.write_bytes(data)
        img = read_image(path)
        assert img.dtype == np.float64 and img.shape == expected.shape
        assert img.tobytes() == expected.tobytes()


class TestDispatch:
    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_image(tmp_path / "x.png", np.zeros((2, 2, 1)))
        with pytest.raises(ImageFormatError):
            read_image(tmp_path / "x.png")

    def test_out_of_range_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(tmp_path / "x.txt", np.full((2, 2, 1), 1.2))
