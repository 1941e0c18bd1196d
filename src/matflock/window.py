"""Exact vectorized scoring of valuation-induced matroids over lattice boxes.

This is the one library module that imports numpy at module level (the
SVG renderer imports it for its own slice).  Every box scan runs here, and
the other modules import this one inside the functions that scan, so the
exact pipelines (valuations, toric and linearized sources, extraction from a
valuation-backed flock) never load numpy.

The optimal-basis set at a point alpha is the argmax of e_B . alpha - nu(B)
over the finite-valued d-subsets.  Two routines score such argmax sets over
many points: ``score_ids`` at any list of points, and ``score_box`` over a
box, for the id grids, the round-trip comparison and the leader scan.  They
share one kernel: ``_kernel`` decides the score dtype, ``_pack`` encodes
argmax sets as bit words and ``_families`` decodes them.

Boxes are scored one line along the last axis k at a time.  On the line
through a head (a point of the first n - 1 axes), the score of B is affine
in t = alpha_k with slope 1 if k is in B and 0 otherwise.  So with G- and G+
the best head scores of the bases without and with k, and t* = G- - G+, the
line's argmax set is the argmax M- of the bases without k for t < t*, M+
for t > t*, and M- ∪ M+ at t = t*.  Only the heads are scored, and the line
is filled by comparing t with t*: a box of side s costs s^(n-1) * m scores
for m bases instead of s^n * m, and the leader window {alpha_0 = 0,
|alpha_i| <= R} costs (2R+1)^(n-2) * m.

Exactness: values are shifted so the smallest is 0, which changes no argmax.
Every score and partial sum then has absolute value at most
spread + d * reach, where reach is the largest |coordinate|.  Below 2^53 all
of them are integers that float64 represents exactly, so scores are computed
with BLAS in float64; otherwise the same code runs on Python ints in object
arrays.  A line's t* = G- - G+ can round in float64 only when |t*| >= 2^53,
far outside the box; rounding is monotone, so t* clipped to the line's
range [lo_k - 1, hi_k + 1] is exact.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

_CHUNK = 1 << 16
_FLOAT_EXACT = 1 << 53
_BITS = np.arange(8, dtype=np.uint8)[:, None]


def _kernel(finite_items, n: int, reach: int):
    """(masks, EB, vals) of the scores e_B . alpha - nu(B) at points whose
    coordinates have absolute value at most ``reach``: ``EB[k]`` is the
    incidence row of basis k and ``vals[k]`` its shifted value, as an (m, 1)
    column, both float64 when that is exact and object arrays otherwise."""
    m = len(finite_items)
    if m == 0:
        raise ValueError("valuation has no finite values")
    masks = [mask for mask, _ in finite_items]
    low = min(val for _, val in finite_items)
    shifted = [val - low for _, val in finite_items]
    d = max(mask.bit_count() for mask in masks)
    exact_float = max(shifted) + d * reach < _FLOAT_EXACT
    dtype = np.float64 if exact_float else object

    EB = np.zeros((m, n), dtype=dtype)
    for k, mask in enumerate(masks):
        for i in range(n):
            if mask >> i & 1:
                EB[k, i] = 1
    return masks, EB, np.array(shifted, dtype=dtype)[:, None]


def _scores(EB, vals, points) -> np.ndarray:
    """(m, N) scores of every basis at every point of the (N, n) ``points``."""
    # one row per basis: maxima run across rows, which numpy vectorizes far
    # better than a max along short rows
    return EB @ points.T.astype(EB.dtype) - vals


def _pack(opt: np.ndarray) -> np.ndarray:
    """The argmax sets of an (m, N) bool array as (N, width) words.

    Bit j of a set (basis j optimal) is bit j % 64 of its little-endian
    word j // 64, so the union of two sets is the OR of their words.
    """
    m, count = opt.shape
    nbytes = (m + 7) // 8
    # eight rows per byte by shifts: np.packbits along axis 0 is several
    # times slower on these short, wide arrays
    padded = np.zeros((8 * nbytes, count), dtype=np.uint8)
    padded[:m] = opt
    packed = np.bitwise_or.reduce(padded.reshape(nbytes, 8, count) << _BITS, axis=1)
    words = np.zeros((count, (m + 63) // 64), dtype="<u8")
    words.view(np.uint8)[:, :nbytes] = packed.T
    return words


def _dense_ids(words: np.ndarray) -> np.ndarray:
    """The rank of each row of ``words`` among its distinct rows, in lex order."""
    # one word at a time: (id so far, next word) -> id
    _, ids = np.unique(words[:, 0], return_inverse=True)
    for w in range(1, words.shape[1]):
        distinct, inverse = np.unique(words[:, w], return_inverse=True)
        _, ids = np.unique(ids * len(distinct) + inverse, return_inverse=True)
    return ids


def _families(masks, words: np.ndarray) -> list:
    """The frozenset of basis masks that each row of ``words`` encodes."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :len(masks)]
    return [frozenset(compress(masks, row)) for row in bits.tolist()]


def _ids_table(masks, words: np.ndarray):
    """(dense ids, table) of the argmax sets encoded by ``words``."""
    ids = _dense_ids(words)
    rep = np.zeros(int(ids.max()) + 1 if len(ids) else 0, dtype=np.intp)
    rep[ids] = np.arange(len(words))
    return ids, _families(masks, words[rep])


def score_ids(finite_items, n: int, points: np.ndarray):
    """Dense argmax-set ids for each lattice point.

    ``finite_items`` is a list of (basis_mask, value); ``points`` is an
    (N, n) int array.  Returns ``(ids, table)``: ``ids`` is an (N,) int
    array and ``table[k]`` is the frozenset of basis masks optimal at every
    point with id k, so ids are dense: 0 .. len(table) - 1.
    """
    reach = max(-int(points.min()), int(points.max())) if points.size else 0
    masks, EB, vals = _kernel(finite_items, n, reach)
    words = np.empty((len(points), (len(masks) + 63) // 64), dtype="<u8")
    for start in range(0, len(points), _CHUNK):
        scores = _scores(EB, vals, points[start:start + _CHUNK])
        words[start:start + _CHUNK] = _pack(scores == scores.max(axis=0))
    return _ids_table(masks, words)


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
# boxes, one line along the last axis at a time

def _lines(finite_items, n: int, lo, hi):
    """The argmax sets over the box [lo, hi], one line along the last axis
    at a time.

    Yields (heads, low, high, cut) per block of at most ``_CHUNK`` heads, the
    points of the first n - 1 axes in lex order.  On the line through a head
    the set at alpha_last = t is ``low`` for t < cut, ``high`` for t > cut
    and ``low | high`` at t = cut, as words in ``_pack``'s encoding; cut is
    clipped to [lo_last - 1, hi_last + 1].
    """
    lo, hi = list(lo), list(hi)
    size = _box_size(lo[:-1], hi[:-1]) if hi[-1] >= lo[-1] else 0
    reach = max(-min(lo), max(hi)) if size else 0
    masks, EB, vals = _kernel(finite_items, n, reach)
    # a basis scores t more at alpha_last = t when it contains the last
    # element, so the sets with and without it trade places at one t
    upper = np.array([mask >> (n - 1) & 1 for mask in masks], dtype=bool)
    high_bits = _pack(upper[:, None])
    families = [np.flatnonzero(rows) for rows in (~upper, upper) if rows.any()]
    for start in range(0, size, _CHUNK):
        heads = _box_rows(lo[:-1], hi[:-1], start, min(start + _CHUNK, size))
        scores = _scores(EB[:, :-1], vals, heads)
        opt = np.empty(scores.shape, dtype=bool)
        tops = []
        for rows in families:
            family = scores[rows]
            tops.append(family.max(axis=0))
            opt[rows] = family == tops[-1]
        if len(tops) == 2:
            cut = np.clip(tops[0] - tops[1], lo[-1] - 1, hi[-1] + 1).astype(np.int64)
        else:
            # the last element is a coloop (every t above cut) or a loop
            # (every t below)
            cut = np.full(len(heads), lo[-1] - 1 if upper.all() else hi[-1] + 1)
        words = _pack(opt)
        high = words & high_bits
        yield heads, words ^ high, high, cut


def _line_codes(low, high, cut, lo_last: int, hi_last: int):
    """Per head, the words of its line's three sets in the order the line
    meets them (low, low | high, high), and whether the line has each:
    (P, 3, width) words and (P, 3) bools.  The first t with each set is
    lo_last, cut and cut + 1."""
    words = np.stack([low, low | high, high], axis=1)
    occurs = np.stack([cut > lo_last, (cut >= lo_last) & (cut <= hi_last), cut < hi_last],
                      axis=1)
    return words, occurs


def score_box(finite_items, n: int, lo, hi):
    """``score_ids(finite_items, n, box_array(lo, hi))``, scored one line at
    a time: a box of side s scores s^(n-1) heads, not s^n points."""
    masks = [mask for mask, _ in finite_items]
    blocks = list(zip(*_lines(finite_items, n, lo, hi)))
    if not blocks:
        return np.zeros(0, dtype=np.intp), []
    low, high, cut = (np.concatenate(b) for b in blocks[1:])
    words, occurs = _line_codes(low, high, cut, lo[-1], hi[-1])
    # ids of the sets that occur in the box, numbered as score_ids numbers them
    line_ids = np.full(occurs.shape, -1, dtype=np.intp)
    line_ids[occurs], table = _ids_table(masks, words[occurs])
    t = np.arange(lo[-1], hi[-1] + 1)
    below, at = t < cut[:, None], t == cut[:, None]
    ids = np.where(below, line_ids[:, :1], np.where(at, line_ids[:, 1:2], line_ids[:, 2:]))
    return ids.ravel(), table


# ---------------------------------------------------------------------------
# id grids and the local axioms

def _scored_grid(finite_items, n: int, lo: int, hi: int):
    """(grid, table) of the argmax families over [lo, hi]^n: an int32 grid
    indexed by alpha - lo per axis, and ``table`` as in ``score_ids``."""
    ids, table = score_box(finite_items, n, [lo] * n, [hi] * n)
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
    ids, scored = score_box(finite_items, n, [-radius] * n, [radius] * n)
    bad = np.flatnonzero(_pair_holds(ids, grid.ravel(), len(table),
                                     lambda i, j: scored[i] != table[j]))
    if not len(bad):
        return None
    return tuple(int(x) - radius for x in np.unravel_index(bad[0], grid.shape))


# ---------------------------------------------------------------------------
# leaders and cell vertices

def _leader_reps(finite_items, n: int, R: int) -> dict:
    """The lex-first point of {alpha : alpha_0 = 0, |alpha_i| <= R} at which
    each argmax family occurs, keyed by the family."""
    masks = [mask for mask, _ in finite_items]
    lo, hi = [0] + [-R] * (n - 1), [0] + [R] * (n - 1)
    reps: dict = {}
    # heads come in lex order, and so do the entries of a head's line, so
    # the first entry per set is its lex-first point
    for heads, low, high, cut in _lines(finite_items, n, lo, hi):
        words, occurs = _line_codes(low, high, cut, lo[-1], hi[-1])
        # neighbouring lines mostly repeat their sets: drop those repeats
        # before sorting what is left
        occurs[1:] &= ~(occurs[:-1] & (words[1:] == words[:-1]).all(axis=2))
        words = words.reshape(-1, words.shape[2])
        at = np.flatnonzero(occurs.ravel())
        _, pick = np.unique(_dense_ids(words[at]), return_index=True)
        at = at[pick]
        head, k = np.divmod(at, 3)
        t = np.where(k == 0, lo[-1], cut[head] + k - 1)
        points = np.concatenate([heads[head], t[:, None]], axis=1)
        for family, alpha in zip(_families(masks, words[at]), points.tolist()):
            reps.setdefault(family, tuple(alpha))
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
