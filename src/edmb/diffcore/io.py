"""Raw tensor file format.

Layout: magic ``EDMBTNSR``, u32 little-endian rank, rank u32 little-endian
dims, then float32 little-endian row-major payload.
"""

from __future__ import annotations

import os
import struct

import numpy as np

TENSOR_MAGIC = b"EDMBTNSR"


class FormatError(ValueError):
    pass


def write_tensor(fh, array):
    arr = np.ascontiguousarray(array, dtype="<f4")
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes())


def read_tensor(fh):
    magic = fh.read(len(TENSOR_MAGIC))
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError("truncated tensor header")
    (rank,) = struct.unpack("<I", raw)
    if rank > 8:
        raise FormatError(f"implausible tensor rank {rank}")
    raw = fh.read(4 * rank)
    if len(raw) != 4 * rank:
        raise FormatError("truncated tensor dims")
    dims = struct.unpack(f"<{rank}I", raw)
    count = 1
    for d in dims:
        count *= d
    # bound the payload by the bytes left before reading, so a corrupt
    # shape fails here instead of allocating for it
    pos = fh.tell()
    left = fh.seek(0, os.SEEK_END) - pos
    fh.seek(pos)
    if 4 * count > left:
        raise FormatError(f"truncated tensor payload for shape {dims}: "
                          f"{4 * count} bytes needed, {left} left")
    payload = fh.read(4 * count)
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()

