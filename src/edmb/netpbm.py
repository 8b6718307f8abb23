"""Netpbm (PGM/PPM) reading and writing, plus optional PNG via Pillow.

PGM P5 with maxval 255 is the native interchange format for edge maps;
P2/P3/P6 are accepted on input. PNG support is used only when Pillow is
installed.
"""

from __future__ import annotations

import numpy as np


class ImageFormatError(ValueError):
    pass


def _read_header_tokens(data, count):
    """First ``count`` whitespace-delimited tokens after comment stripping."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count and i < n:
        c = data[i : i + 1]
        if c == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < count:
        raise ImageFormatError("truncated netpbm header")
    return tokens, i + 1  # skip the single whitespace after the last token


def read_netpbm(path):
    """Read a PGM/PPM file into (H,W) or (H,W,3) uint8."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise ImageFormatError(f"{path}: not a netpbm file")
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ImageFormatError(f"{path}: unsupported magic {magic!r}")
    tokens, offset = _read_header_tokens(data, 4)
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ImageFormatError(f"{path}: bad header numbers") from exc
    if maxval <= 0 or maxval > 65535:
        raise ImageFormatError(f"{path}: bad maxval {maxval}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = w * h * channels
    if magic in (b"P5", b"P6"):
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        payload = data[offset : offset + count * dtype.itemsize]
        if len(payload) != count * dtype.itemsize:
            raise ImageFormatError(f"{path}: truncated pixel data")
        arr = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    else:
        try:
            arr = np.array(data[offset - 1 :].split()[:count], dtype=np.float64)
        except ValueError as exc:
            raise ImageFormatError(f"{path}: bad ascii pixel data") from exc
        if arr.size != count:
            raise ImageFormatError(f"{path}: truncated pixel data")
    arr = np.clip(arr * (255.0 / maxval), 0, 255).round().astype(np.uint8)
    if channels == 3:
        return arr.reshape(h, w, 3)
    return arr.reshape(h, w)


def quantize(a):
    """uint8 pixels: float arrays are treated as [0,1] and rounded to the
    nearest of 256 levels (dequantizing stays within 1/510); integer arrays
    are clipped to [0,255]."""
    a = np.asarray(a)
    if np.issubdtype(a.dtype, np.floating):
        return np.clip(np.rint(a * 255.0), 0, 255).astype(np.uint8)
    return np.clip(a, 0, 255).astype(np.uint8)


def write_pgm(path, array):
    """Write a (H,W) array, quantized by ``quantize``, as binary PGM (P5,
    maxval 255)."""
    a = np.asarray(array)
    if a.ndim != 2:
        raise ImageFormatError(f"PGM needs a 2-D array, got shape {a.shape}")
    a = quantize(a)
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(a.tobytes())


def write_ppm(path, array):
    """Write a (H,W,3) array, quantized by ``quantize``, as binary PPM (P6)."""
    a = np.asarray(array)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ImageFormatError(f"PPM needs (H,W,3), got shape {a.shape}")
    a = quantize(a)
    h, w, _ = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(a.tobytes())


def read_image(path):
    """Read PGM/PPM natively or PNG through Pillow when available."""
    p = str(path)
    if p.lower().endswith((".pgm", ".ppm", ".pnm")):
        return read_netpbm(p)
    if p.lower().endswith(".png"):
        try:
            from PIL import Image
        except ImportError as exc:
            raise ImageFormatError(
                f"{path}: PNG support requires pillow (pip install edmb[png])"
            ) from exc
        return np.asarray(Image.open(p).convert("RGB"))
    raise ImageFormatError(f"{path}: unsupported image extension")
