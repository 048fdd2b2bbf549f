"""Content hashing kernels (SURVEY.md M1/U2): per-row sha256 and the
polynomial term hash.  The MinHash/LSH and SimHash kernels live in
``functions/dedup.py``.

Pure functions over Arrow/numpy batches; no Ray imports.  (ref: n/a,
SURVEY.md §0 — reference checkout empty.)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sha256_column(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Hex sha256 per row of a string column (M1 per-row invariant).

    hashlib releases the GIL per call; the loop is per-row but each call is
    C-speed over the row's buffer — this is the standard approach absent a
    vectorized sha kernel in pyarrow.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    out = []
    for v in col:
        s = v.as_py()
        out.append(hashlib.sha256((s or "").encode("utf-8")).hexdigest())
    return pa.array(out, type=pa.string())


_POLY_BASE = np.uint64(1099511628211)
_MAX_POW = 1 << 16


def _poly_powers(n: int) -> np.ndarray:
    base = int(_POLY_BASE)
    mask = (1 << 64) - 1
    p, cur = np.empty(n, dtype=np.uint64), 1
    for i in range(n):  # python ints then mask → mod 2^64 without warnings
        p[i] = cur
        cur = (cur * base) & mask
    return p


_POWERS = _poly_powers(_MAX_POW)


def polyhash_column(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Deterministic (process-independent) 64-bit polynomial hash per string.

    Fully vectorized over the Arrow buffers: contribution of char c at
    distance d from the string end is c * BASE^d mod 2^64; per-string sums via
    ``np.add.reduceat``.  Used for term → bucket assignment — collisions only
    cost bucket imbalance, never correctness.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    arr = col if pa.types.is_large_string(col.type) else pc.cast(col, pa.large_string())
    buf_off = np.frombuffer(arr.buffers()[1], dtype=np.int64, count=n + 1, offset=8 * arr.offset)
    start, end = int(buf_off[0]), int(buf_off[-1])
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8, count=end)[start:end].astype(np.uint64)
    offs = (buf_off - buf_off[0]).astype(np.int64)
    lens = np.diff(offs)
    # distance from string end per char: (end_of_my_string - 1 - my_index)
    char_idx = np.arange(data.size, dtype=np.int64)
    ends_per_char = np.repeat(offs[1:], lens)
    dist = (ends_per_char - 1 - char_idx) % _MAX_POW  # mod keeps >64k-char strings safe
    with np.errstate(over="ignore"):  # uint64 wraparound == mod 2^64, intended
        contrib = data * _POWERS[dist]
    out = np.zeros(n, dtype=np.uint64)
    nonempty = lens > 0
    if data.size:
        out[nonempty] = np.add.reduceat(contrib, offs[:-1][nonempty])
    # mix in length so "a" and "a\0"-style degeneracies differ
    return out ^ (lens.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))

