"""Exact vectorized scoring of valuation-induced matroids over lattice boxes.

The optimal-basis set at a point alpha is the argmax of e_B . alpha - nu(B)
over the finite-valued d-subsets.  ``score_ids`` is the one routine that
scans such argmax sets over many points; it alone decides the score dtype,
how argmax sets are encoded and how they are decoded.

Exactness: values are shifted so the smallest is 0, which changes no argmax.
Every score and partial sum then has absolute value at most
spread + d * reach, where reach is the largest |coordinate|.  Below 2^53 all
of them are integers that float64 represents exactly, so scores are computed
with BLAS in float64; otherwise the same code runs on Python ints in object
arrays.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

_CHUNK = 1 << 16
_FLOAT_EXACT = 1 << 53


def score_ids(finite_items, n: int, points: np.ndarray):
    """Dense argmax-set ids for each lattice point.

    ``finite_items`` is a list of (basis_mask, value); ``points`` is an
    (N, n) int array.  Returns ``(ids, table)``: ``ids`` is an (N,) int
    array and ``table[k]`` is the frozenset of basis masks optimal at every
    point with id k, so ids are dense: 0 .. len(table) - 1.
    """
    m = len(finite_items)
    if m == 0:
        raise ValueError("valuation has no finite values")
    masks = [mask for mask, _ in finite_items]
    low = min(val for _, val in finite_items)
    shifted = [val - low for _, val in finite_items]
    d = max(mask.bit_count() for mask in masks)
    reach = max(-int(points.min()), int(points.max())) if points.size else 0
    exact_float = max(shifted) + d * reach < _FLOAT_EXACT
    dtype = np.float64 if exact_float else object

    EB = np.zeros((m, n), dtype=dtype)
    for k, mask in enumerate(masks):
        for i in range(n):
            if mask >> i & 1:
                EB[k, i] = 1
    vals = np.array(shifted, dtype=dtype)[:, None]

    # bit j of a point's argmax set (basis j optimal) is bit j % 64 of its
    # little-endian word j // 64
    width = (m + 63) // 64
    words = np.zeros((len(points), width), dtype="<u8")
    word_bytes = words.view(np.uint8)
    nbytes = (m + 7) // 8
    for start in range(0, len(points), _CHUNK):
        stop = start + _CHUNK
        # one row per basis: the max runs across rows, which numpy
        # vectorizes far better than a max along short rows
        scores = EB @ points[start:stop].T.astype(dtype) - vals
        opt = scores == scores.max(axis=0)
        word_bytes[start:stop, :nbytes] = np.packbits(opt, axis=0, bitorder="little").T

    # dense ids, one word at a time: (id so far, next word) -> id
    distinct, ids = np.unique(words[:, 0], return_inverse=True)
    for w in range(1, width):
        distinct, inverse = np.unique(words[:, w], return_inverse=True)
        distinct, ids = np.unique(ids * len(distinct) + inverse, return_inverse=True)
    rep = np.zeros(len(distinct), dtype=np.intp)
    rep[ids] = np.arange(len(points))
    bits = np.unpackbits(word_bytes[rep], axis=1, bitorder="little")[:, :m]
    table = [frozenset(compress(masks, row)) for row in bits.tolist()]
    return ids, table


def _box_rows(lo, hi, start: int, stop: int) -> np.ndarray:
    """Points start .. stop - 1 of the lex-ordered box [lo, hi], by index."""
    flat = np.arange(start, stop, dtype=np.int64)
    # filled one contiguous coordinate row at a time, returned transposed
    out = np.empty((len(lo), len(flat)), dtype=np.int64)
    for axis in reversed(range(len(lo))):
        size = hi[axis] - lo[axis] + 1
        rest = flat // size
        np.subtract(flat, rest * size, out=out[axis])
        out[axis] += lo[axis]
        flat = rest
    return out.T


def _box_size(lo, hi) -> int:
    size = 1
    for l, h in zip(lo, hi):
        size *= max(h - l + 1, 0)
    return size


def box_array(lo, hi) -> np.ndarray:
    """All lattice points of [lo, hi] as an (N, n) int array, lex order."""
    return _box_rows(lo, hi, 0, _box_size(lo, hi))


def iter_box_chunks(lo, hi, chunk: int = _CHUNK):
    """Lattice points of [lo, hi] in lex order, yielded as (M, n) arrays.

    Memory stays bounded for windows too large to materialize whole.
    """
    size = _box_size(lo, hi)
    for start in range(0, size, chunk):
        yield _box_rows(lo, hi, start, min(start + chunk, size))
