"""Image file formats: binary PGM/PPM and a plain-text float matrix.

PGM (P5) holds one channel and PPM (P6) three, both binary with maxval 255,
rows top to bottom; their headers may hold ``#`` comments.  The text format
keeps full float precision: a header line ``H W C`` followed by
whitespace-separated values in [0, 1], pixel-major with channels interleaved.
Quantisation happens only at the PGM/PPM boundary.  Sizes must be positive,
and every :class:`ImageFormatError` a reader raises names the file.
"""

from __future__ import annotations

import re

import numpy as np

from .geometry import validate_image


# netpbm extension -> (magic, channels)
NETPBM = {".pgm": (b"P5", 1), ".ppm": (b"P6", 3)}

# netpbm header: magic, width, height and maxval, each after whitespace and
# '#' comments running to the end of their line, then one whitespace byte
_FIELD = rb"(?:\s|#[^\n]*(?=\n|\Z))*([^\s#]\S*)(?!\S)"
_NETPBM_HEADER = re.compile(_FIELD * 4 + rb"\s?")


class ImageFormatError(ValueError):
    """Unreadable or malformed image file."""


def write_image(path, image) -> None:
    path = str(path)
    img = validate_image(image, check_range=True)
    if path.endswith(".txt"):
        _write_text(path, img)
    elif path[-4:] in NETPBM:
        _write_netpbm(path, img, *NETPBM[path[-4:]])
    else:
        raise ImageFormatError(f"unsupported image extension: {path}")


def read_image(path) -> np.ndarray:
    path = str(path)
    if path.endswith(".txt"):
        return _read_text(path)
    if path[-4:] in NETPBM:
        return _read_netpbm(path)
    raise ImageFormatError(f"unsupported image extension: {path}")


def _write_netpbm(path: str, img: np.ndarray, magic: bytes, channels: int) -> None:
    h, w, c = img.shape
    if c != channels:
        raise ImageFormatError(f"{path[-3:].upper()} holds exactly {channels} channel(s), got {c}")
    data = np.rint(img * 255.0).clip(0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def _read_netpbm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _NETPBM_HEADER.match(raw)
    if header is None:
        raise ImageFormatError(f"truncated header in {path}")
    magic, width, height, maxval = header.groups()
    channels = {m: c for m, c in NETPBM.values()}.get(magic)
    if channels is None:
        raise ImageFormatError(f"unsupported magic {magic!r} in {path}")
    try:
        w, h, mv = int(width), int(height), int(maxval)
    except ValueError as exc:
        raise ImageFormatError(f"bad header in {path}") from exc
    if mv < 1 or mv > 255:
        raise ImageFormatError(f"unsupported maxval {mv} in {path}")
    if w < 1 or h < 1:
        raise ImageFormatError(f"image size must be positive, got {w}x{h} in {path}")
    size = h * w * channels
    pixels = raw[header.end() : header.end() + size]
    if len(pixels) < size:
        raise ImageFormatError(f"truncated pixel data in {path}")
    return (np.frombuffer(pixels, dtype=np.uint8).astype(float) / mv).reshape(h, w, channels)


def _write_text(path: str, img: np.ndarray) -> None:
    h, w, c = img.shape
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{h} {w} {c}\n")
        for row in img.reshape(h, -1):
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _read_text(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            header, body = fh.readline().split(), fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise ImageFormatError(f"cannot read {path}: {exc}") from exc
    if len(header) != 3:
        raise ImageFormatError(f"bad text-image header in {path}")
    try:
        h, w, c = (int(t) for t in header)
        values = np.array(body, dtype=float)
    except ValueError as exc:
        raise ImageFormatError(f"bad value in {path}: {exc}") from exc
    if min(h, w, c) < 1:
        raise ImageFormatError(f"image size must be positive, got {h}x{w}x{c} in {path}")
    if values.size != h * w * c:
        raise ImageFormatError(f"expected {h * w * c} values in {path}, found {values.size}")
    return values.reshape(h, w, c)
