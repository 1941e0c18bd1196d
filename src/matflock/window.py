"""Exact vectorized scoring of valuation-induced matroids over lattice boxes.

This is the one library module that imports numpy at module level (the
SVG renderer imports it for its own slice).  Every box scan runs here, and
the other modules import this one inside the functions that scan, so the
exact pipelines (valuations, toric and linearized sources, extraction from a
valuation-backed flock) never load numpy.

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


# ---------------------------------------------------------------------------
# id grids and the local axioms

def _scored_grid(finite_items, n: int, lo: int, hi: int):
    """(grid, table) of the argmax families over [lo, hi]^n: an int32 grid
    indexed by alpha - lo per axis, and ``table`` as in ``score_ids``."""
    ids, table = score_ids(finite_items, n, box_array([lo] * n, [hi] * n))
    return ids.reshape((hi - lo + 1,) * n).astype(np.int32), table


def _id_grid(n: int, lo: int, hi: int, value_at):
    """(grid, table) of ``value_at(alpha)`` over [lo, hi]^E, point by point,
    indexed by alpha - lo: equal values share an id, ``table[id]`` is the
    value."""
    table: list = []
    intern: dict = {}
    grid = np.empty((hi - lo + 1,) * n, dtype=np.int32)
    for idx in np.ndindex(*grid.shape):
        value = value_at(tuple(k + lo for k in idx))
        got = intern.get(value)
        if got is None:
            got = len(table)
            intern[value] = got
            table.append(value)
        grid[idx] = got
    return grid, table


def _local_axioms(grid: np.ndarray, radius: int, moves):
    """Local axioms on an id grid whose index 0 is alpha = -radius on every axis.

    A move (I, left, right) holds at alpha when left(id at alpha) equals
    right(id at alpha + e_I); it is checked at every alpha of
    [-radius, radius]^E whose shift is in the grid, so a grid over
    [-radius, radius + 1]^E checks the whole box.  ``left`` is called once
    per id occurring in [-radius, radius]^E, ``right`` once per id on the
    shifted side of the move, and their values interned, so a move costs
    two gathers and one comparison.  Returns (checked, failed) per move and the violation
    (alpha, move index, id, id') at the lex-first failing alpha, ties going
    to the earlier move, or None.
    """
    size = int(grid.max()) + 1
    # every move's base points lie in [-radius, radius]^E
    checked = _occurring(grid[(slice(0, 2 * radius + 1),) * grid.ndim], size)
    counts = []
    first = None
    for k, (axes, left, right) in enumerate(moves):
        base, top = [], []
        for axis in range(grid.ndim):
            step = int(axis in axes)
            stop = min(2 * radius + 1, grid.shape[axis] - step)
            base.append(slice(0, stop))
            top.append(slice(step, stop + step))
        at, shifted = grid[tuple(base)], grid[tuple(top)]
        intern: dict = {}
        fails = (_keys(left, checked, size, intern)[at]
                 != _keys(right, _occurring(shifted, size), size, intern)[shifted])
        failed = int(np.count_nonzero(fails))
        if failed:
            idx = np.unravel_index(int(np.argmax(fails)), fails.shape)
            alpha = tuple(int(x) - radius for x in idx)
            if first is None or alpha < first[0]:
                first = (alpha, k, int(at[idx]), int(shifted[idx]))
        counts.append((int(fails.size), failed))
    return counts, first


def _occurring(grid: np.ndarray, size: int) -> list:
    """The ids (all below size) that occur in ``grid``, in increasing order."""
    return np.flatnonzero(np.bincount(grid.ravel(), minlength=size)).tolist()


def _keys(side, ids: list, size: int, intern: dict) -> np.ndarray:
    """Interned ``side(i)`` at each id i in ``ids``, -1 at the other ids below size."""
    keys = np.full(size, -1)
    for i in ids:
        keys[i] = intern.setdefault(side(i), len(intern))
    return keys


# ---------------------------------------------------------------------------
# predicates on pairs of ids

def _pair_holds(left, right, size: int, holds) -> np.ndarray:
    """``holds(i, j)`` at each pair (i, j) of the broadcast id arrays ``left``
    and ``right`` (every right id below ``size``), called once per distinct
    pair."""
    codes = left * size + right
    pairs, inverse = np.unique(codes, return_inverse=True)
    values = np.array([holds(*divmod(k, size)) for k in pairs.tolist()], dtype=bool)
    return values[inverse].reshape(codes.shape)


def _first_mismatch(finite_items, n: int, grid, table, radius: int):
    """Lex-first alpha of [-radius, radius]^n whose argmax family is not
    ``table[grid[alpha + radius]]``, or None."""
    points = box_array([-radius] * n, [radius] * n)
    ids, scored = score_ids(finite_items, n, points)
    bad = np.flatnonzero(_pair_holds(ids, grid.ravel(), len(table),
                                     lambda i, j: scored[i] != table[j]))
    return tuple(int(x) for x in points[bad[0]]) if len(bad) else None


# ---------------------------------------------------------------------------
# leaders and cell vertices

def _leader_reps(finite_items, n: int, R: int) -> dict:
    """The lex-first point of {alpha : alpha_0 = 0, |alpha_i| <= R} at which
    each argmax family occurs, keyed by the family."""
    reps: dict = {}
    # chunked lex-order scan, so the first point seen per argmax set is the
    # lexicographically smallest representative and memory stays bounded
    for points in iter_box_chunks([0] + [-R] * (n - 1), [0] + [R] * (n - 1)):
        ids, table = score_ids(finite_items, n, points)
        _, first = np.unique(ids, return_index=True)
        for masks, k in zip(table, first.tolist()):
            reps.setdefault(masks, tuple(points[k].tolist()))
    return reps


def _vertex_flags(finite_items, n: int, points) -> np.ndarray:
    """Per point alpha of ``points``: is alpha a vertex of the cell decomposition?

    alpha is a vertex exactly when no step alpha ± e_I (I a proper nonempty
    subset) keeps every basis of M_alpha optimal.  Each point is scored
    together with its steps in one ``score_ids`` call per chunk.
    """
    points = np.asarray(points, dtype=np.int64).reshape(len(points), n)
    up = np.array([[I >> i & 1 for i in range(n)] for I in range(1, (1 << n) - 1)],
                  dtype=np.int64).reshape(-1, n)
    around = np.concatenate([np.zeros((1, n), dtype=np.int64), up, -up])
    per = len(around)
    flags = np.empty(len(points), dtype=bool)
    chunk = max(1, _CHUNK // per)
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        steps = (block[:, None, :] + around).reshape(-1, n)
        ids, table = score_ids(finite_items, n, steps)
        ids = ids.reshape(len(block), per)
        # (id at alpha, id at a step) -> does the step keep M_alpha optimal?
        keeps = _pair_holds(ids[:, :1], ids[:, 1:], len(table),
                            lambda i, j: table[j] >= table[i])
        flags[start:start + len(block)] = ~keeps.any(axis=1)
    return flags
