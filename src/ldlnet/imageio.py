"""Reading and writing image files.

Binary PPM (P6, maxval 255) is the native codec; PNG decoding is available
when Pillow is installed.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DatasetError


def write_ppm(path, img):
    """Write a (3,H,W) float image in [0,1] as binary PPM."""
    arr = np.asarray(img)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DatasetError(f"write_ppm expects (3,H,W), got {arr.shape}")
    u8 = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    _, h, w = u8.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(u8.transpose(1, 2, 0).tobytes())


def _ppm_tokens(fh):
    """Yield whitespace-separated header tokens, skipping # comments."""
    while True:
        ch = fh.read(1)
        if not ch:
            raise DatasetError("unexpected end of PPM header")
        if ch.isspace():
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        token = ch
        while True:
            ch = fh.read(1)
            if not ch or ch.isspace():
                break
            token += ch
        yield token


def _header_int(token, path):
    if not token.isdigit():
        raise DatasetError(f"{path}: PPM header field {token!r} is not a decimal integer")
    return int(token)


def read_ppm(path):
    """Read a binary PPM into a (3,H,W) float32 image in [0,1]."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic != b"P6":
            raise DatasetError(f"{path}: not a binary PPM (magic {magic!r})")
        tokens = _ppm_tokens(fh)
        w, h, maxval = (_header_int(next(tokens), path) for _ in range(3))
        if w < 1 or h < 1:
            raise DatasetError(f"{path}: PPM size {w}x{h} is not positive")
        if maxval != 255:
            raise DatasetError(f"{path}: only maxval 255 PPMs are supported, got {maxval}")
        # checked before the read, so a huge declared size cannot ask for one
        if 3 * w * h > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DatasetError(f"{path}: truncated PPM pixel data")
        raw = fh.read(3 * w * h)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return (arr.transpose(2, 0, 1).astype(np.float32)) / 255.0


def read_image(path):
    """Decode PPM natively, anything else via Pillow when available."""
    p = str(path)
    if p.lower().endswith(".ppm"):
        return read_ppm(p)
    try:
        from PIL import Image
    except ImportError as exc:
        raise DatasetError(
            f"{p}: only PPM is supported without Pillow installed") from exc
    try:
        with Image.open(p) as im:
            rgb = np.asarray(im.convert("RGB"))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise DatasetError(f"{p}: undecodable image: {exc}") from exc
    return rgb.transpose(2, 0, 1).astype(np.float32) / 255.0
