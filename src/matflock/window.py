"""Exact vectorized scoring of valuation-induced matroids over lattice boxes.

This is the one library module that imports numpy at module level (the
SVG renderer imports it for its own slice).  Every box scan runs here, and
the other modules import this one inside the functions that scan, so the
exact pipelines (valuations, toric and linearized sources, extraction from a
valuation-backed flock) never load numpy.

The optimal-basis set at a point alpha is the argmax of e_B . alpha - nu(B)
over the finite-valued d-subsets.  Two routines score such argmax sets over
many points: ``score_box`` scores every box of a valuation (the id grids of
flocks and Frobenius windows, the round-trip comparison, the leader scan
and the SVG slice), and ``score_ids`` scores any list of points, one point
at a time (the tests' oracle).  Both encode argmax sets as
``_row_words``'s bit words and number them in the lex order of those
words, and ``_families`` decodes them.

Boxes are scored one axis at a time: the separable lower envelope of
Felzenszwalb and Huttenlocher's distance transforms, in max-plus form.  A
family is the set of bases with one pattern on the elements not yet peeled;
it carries, at every point of the peeled axes, its best score G and the id A
of its argmax set.  Peeling element k joins the halves F0 and F1 of each
family (its bases without and with k): at alpha_k = t the family scores
max(G0, G1 + t), so with c = G0 - G1 its argmax set is A0 for t < c, A1 for
t > c and A0 ∪ A1 at t = c.  A level is a fixed number of numpy calls over
the stacked (families, points) arrays: a missing half reads a sentinel row
of scores -2^62, and a level whose families all have both halves reads them
as views.  Once the first n - 1 axes are peeled, two families remain,
without and with the last element, and the line through a head (a point of
the first n - 1 axes) holds A0 below its cut c, A1 above it and their union
at c; the id grid is expanded from the lines run by run.  Unions are
interned from their pair of ids at the ties only, through a table of the
pair codes when it is small and a sort otherwise: the halves are disjoint,
so a union is never a set seen before, and no set is ever hashed.
Each id carries the words of its set, the OR of its parts' words, and at the
end only the sets that occur are numbered, in the lex order of their words.
The levels of a box of side s fill arrays of at most 2 s^(n-1), 4 s^(n-2),
... entries, whatever the number m of bases, where scoring every point fills
m s^n.  A box with more than ``_CHUNK`` heads is scored in slabs along its
leading axes, so memory stays bounded; the leader window {alpha_0 = 0,
|alpha_i| <= R} is such a box.  The level plan (``_levels``) is built once
per box, for all its slabs.

The local axioms run here too, on an id grid and the table of its families.
A minor move I compares M_alpha / I with M_{alpha + e_I} \\ I.  A table is
one row of ``_row_words``'s words per id, bit j for basis ``masks[j]``, every
basis of one size, and no other module reads its bits.  A Frobenius flock
built from a source is checked by the same pass: every id's space there has
one Plücker vector q on its family, so two of its minors are equal exactly
when they keep the same bases (``algebraic``).  ``_minor_moves`` keys both
sides of every family as rows of uint64 words, in basis space: B -> B - i
is injective, so M / i is the family's bases that hold i and M \\ i those
that miss i (all of them when i is a loop or a coloop), and a
single-element key is the table's row ANDed with a column mask.  Set moves
keep the projected masks b_j \\ I as their bits.  ``_local_axioms`` then
checks a move over the whole box: the grid of ``score_box`` is expanded run
by run (each line's three ids repeated over the t below, at and above its
cut), one contiguous copy of the checked block is shared by every move, and
each side's keys are read from it with ``np.take`` and compared word by
word, so no key is ranked.  The all-ones shift (MF2, FF2) has no keys: it
compares the ids themselves.

The id grids of flocks and Frobenius flocks come from ``_scored_grid``,
which remembers one box: the last one it scored, keyed by content as (n,
the valuation's finite items), with its bounds.  A request for that very
box returns the remembered arrays.  Any other request scans first and
forgets the remembered box after (a refused scan keeps it): the remembered
grid is the block on the heap top, so freeing it first lets glibc trim the
heap, and the scan would fault those pages in again.  So a scan's peak is
its own plus the one remembered grid, at most ``_MEMO_IDS`` ids; between
requests at most one grid is held, and a grid of more than ``_MEMO_IDS``
ids is not kept.  The arrays returned are read-only, so no caller can
change what a later request reads.

The entry also keeps the verdicts of the local axioms checked on the
valuation (``_move_verdicts``, which the flock check of a valuation and a
source's Frobenius check call): per move, the radius R checked and the
flat indices of the alphas of [-R, R]^n where it fails.  A check compares
the families at alpha and alpha + e_I, not their ids, so a verdict holds
whatever box is remembered, and a scan that replaces the box for the same
valuation carries the verdicts over.  A later check at a radius <= R reads
the move's failures inside its own box and scans nothing: a flock check at
radius 2 and a Frobenius check at radius 1 make each comparison once.  A
valid flock keeps empty arrays, so the entry grows with the failures, not
the box.

Exactness: a box [lo, hi] of side s is read at beta = alpha - lo, in
[0, s]^n, against w(B) = nu(B) - e_B . lo, shifted to minimum 0 and capped
at d s + 1: the minimizer of w scores >= 0 at every beta and a capped basis
< 0, so no argmax moves.  Every score and partial sum then lies in
[-(d s + 1), d s], and the scan runs in int64 with a sentinel of -2^62,
exact while (d + 1) s + 1 < 2^62; a larger box is refused.
"""

from __future__ import annotations

import functools
import itertools
from itertools import compress

import numpy as np

_CHUNK = 1 << 16
# scores stay within 2^62 of 0, and -2^62 is the sentinel score
_LIMIT = 1 << 62
# _scored_grid's last box, {(n, finite items): (lo, hi, grid, words,
# verdicts)}, verdicts {move: (radius, failing flat indices)} of
# _move_verdicts, and the most ids and failing indices it keeps
_grid_memo: dict = {}
_MEMO_IDS = 1 << 20


def _row_words(bits: np.ndarray) -> np.ndarray:
    """The rows of an (N, m) array as (N, width) words: bit j of a row, set
    where entry j is nonzero, is bit j % 64 of its little-endian word
    j // 64, so the union of two sets is the OR of their words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), (bits.shape[1] + 63) // 64), dtype="<u8")
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def _dense_ids(words: np.ndarray) -> np.ndarray:
    """The rank of each row of ``words`` among its distinct rows, in lex order."""
    # one word at a time: (id so far, next word) -> id
    _, ids = np.unique(words[:, 0], return_inverse=True)
    for w in range(1, words.shape[1]):
        distinct, inverse = np.unique(words[:, w], return_inverse=True)
        _, ids = np.unique(ids * len(distinct) + inverse, return_inverse=True)
    return ids


def _bits(words: np.ndarray, m: int) -> np.ndarray:
    """The (N, m) bool matrix of the sets that the rows of ``words`` encode."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=m, bitorder="little").view(bool)


def _families(masks, words: np.ndarray) -> list:
    """The frozenset of basis masks that each row of the table ``words`` holds."""
    return [frozenset(compress(masks, row)) for row in _bits(words, len(masks)).tolist()]


def _lex_rows(words: np.ndarray):
    """(dense ids of the rows of ``words``, the index of one row per id)."""
    ids = _dense_ids(words)
    rep = np.zeros(int(ids.max()) + 1 if len(ids) else 0, dtype=np.intp)
    rep[ids] = np.arange(len(words))
    return ids, rep


def score_ids(finite_items, n: int, points: np.ndarray):
    """Dense argmax-set ids for each lattice point.

    ``finite_items`` is a list of (basis_mask, value); ``points`` is an
    (N, n) int array.  Returns ``(ids, table)``: ``ids`` is an (N,) int
    array and ``table[k]`` is the frozenset of basis masks optimal at every
    point with id k, so ids are dense: 0 .. len(table) - 1.  Scores are
    int64 when spread + d * reach < 2^62 (reach the largest |coordinate|),
    Python ints otherwise.
    """
    if not finite_items:
        raise ValueError("valuation has no finite values")
    masks = [mask for mask, _ in finite_items]
    low = min(val for _, val in finite_items)
    shifted = [val - low for _, val in finite_items]
    d = max(mask.bit_count() for mask in masks)
    reach = max(-int(points.min()), int(points.max())) if points.size else 0
    dtype = np.int64 if max(shifted) + d * reach < _LIMIT else object
    vals = np.array(shifted, dtype=dtype)
    # one row per basis: maxima run across rows, which numpy vectorizes far
    # better than a max along short rows
    EB = np.array([[mask >> i & 1 for i in range(n)] for mask in masks], dtype=dtype)
    words = np.empty((len(points), (len(masks) + 63) // 64), dtype="<u8")
    for start in range(0, len(points), _CHUNK):
        scores = EB @ points[start:start + _CHUNK].T.astype(dtype) - vals[:, None]
        words[start:start + _CHUNK] = _row_words((scores == scores.max(axis=0)).T)
    ids, rep = _lex_rows(words)
    return ids, _families(masks, words[rep])


def _box_points(lo, hi, flat: np.ndarray) -> np.ndarray:
    """The points of the lex-ordered box [lo, hi] with indices ``flat``."""
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
    return _box_points(lo, hi, np.arange(_box_size(lo, hi), dtype=np.int64))


def iter_box_chunks(lo, hi):
    """Lattice points of [lo, hi] in lex order, yielded as (M, n) arrays of
    at most ``_CHUNK`` rows.

    Memory stays bounded for windows too large to materialize whole.
    """
    size = _box_size(lo, hi)
    for start in range(0, size, _CHUNK):
        yield _box_points(lo, hi, np.arange(start, min(start + _CHUNK, size), dtype=np.int64))


# ---------------------------------------------------------------------------
# boxes, one axis at a time

def _slabs(lo, hi):
    """Boxes tiling [lo, hi] in lex order, each with at most ``_CHUNK``
    heads (points of the first n - 1 axes): every value of the axes after
    some axis k, a run of values of axis k, one value of the axes before."""
    heads = len(lo) - 1
    inner, k = 1, heads
    while k > 0 and inner * (hi[k - 1] - lo[k - 1] + 1) <= _CHUNK:
        k -= 1
        inner *= hi[k] - lo[k] + 1
    if k == 0:
        yield lo, hi
        return
    step = _CHUNK // inner
    k -= 1
    for prefix in itertools.product(*map(range, lo[:k], [h + 1 for h in hi[:k]])):
        for start in range(lo[k], hi[k] + 1, step):
            stop = min(start + step - 1, hi[k])
            yield [*prefix, start, *lo[k + 1:]], [*prefix, stop, *hi[k + 1:]]


def _levels(masks, n: int):
    """How the families of each level make up those of the next.

    Going from level j to j + 1 peels element n - 2 - j for j < n - 1, and
    the last element for j = n - 1.  The families of level j are the
    patterns of bases on the elements not yet peeled: the values of
    key >> j, where a basis's key is its mask with the bits of elements
    0 .. n - 2 reversed.  So level 0 has a family per basis and level n one.
    Returns the bases in level-0 order (by key), and per level j < n the
    rows (ig, ia) in level j of the halves of each family of level j + 1,
    without and with the element peeled, one pair after the other: ``ig``
    reads scores and ``ia`` ids.  A missing half is the sentinel row after
    the families of level j in ``ig``, whose scores are -2^62, and its
    partner's row in ``ia``, whose ids it then never shows.  Where every
    family has both halves, its halves are rows 2i and 2i + 1, and both are
    the slice of the first 2 f rows, which reads views.  The plan takes
    O(m n) Python steps per box, whatever the box's size.
    """
    width, spec = n - 1, f"0{n - 1}b"
    key = [mask >> width << width | int(format(mask & ~(-1 << width), spec)[::-1], 2)
           for mask in masks]
    rows = sorted(range(len(masks)), key=key.__getitem__)
    # sorted by key, the bases are sorted by key >> j at every level, so a
    # family is one or two neighbouring rows of the level below, the half
    # without the element first
    family = [key[k] for k in rows]
    ig, ia, spans = [], [], []
    for _ in range(n):
        sentinel, start = len(family), len(ig)
        up = []
        for r, v in enumerate(family):
            if up and up[-1] == v >> 1:
                ig[-1] = ia[-1] = r
            else:
                up.append(v >> 1)
                ig += (sentinel, r) if v & 1 else (r, sentinel)
                ia += (r, r)
        spans.append((start, len(ig), ig[start:] == ia[start:]))
        family = up
    index = np.array([rows + ig, rows + ia], dtype=np.intp)
    m = len(rows)
    levels = [(slice(0, b - a),) * 2 if view else (index[0, m + a:m + b], index[1, m + a:m + b])
              for a, b, view in spans]
    return index[0, :m], levels


def _ranks(ids: np.ndarray, size: int):
    """(rank, distinct) of ids below ``size``: the distinct ids in increasing
    order, and a (size,) table of their ranks, 0 at the ids absent."""
    hit = np.zeros(size, dtype=bool)
    hit[ids] = True
    distinct = hit.nonzero()[0]
    rank = np.zeros(size, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    return rank, distinct


def _intern(a0: np.ndarray, a1: np.ndarray, words: np.ndarray):
    """(ids, words) of the unions of the sets with ids ``a0`` and ``a1``,
    sets of disjoint families whose words (``_row_words``'s encoding) are
    rows of ``words``.  No union is a set seen before, so each distinct pair
    gets the next free id, and the words of the new sets are appended."""
    count = len(words)
    codes = a0 * count + a1
    # a table per possible code while count^2 <= 8 len(codes) (or 2^12),
    # and a sort otherwise.  _ranks then allocates a bool hit table of
    # count^2 bytes, at most the codes' bytes, and an intp rank table of
    # 8 count^2 bytes, up to 8 times the codes' bytes.  The table is the
    # cheaper on small boxes and on most levels of large ones
    if count * count <= max(8 * len(codes), 1 << 12):
        rank, pairs = _ranks(codes, count * count)
        new = rank[codes]
    else:
        pairs, new = np.unique(codes, return_inverse=True)
    first, second = np.divmod(pairs, count)
    return count + new, np.concatenate([words, words[first] | words[second]])


def _slab_lines(rows, levels, vals: np.ndarray, lo, hi):
    """(lines, runs, rank, words) of the argmax sets over the box [lo, hi] of
    beta, against the int64 values ``vals`` of ``_box_values``.

    Level j of ``_levels`` holds, per family and per point of the axes
    peeled (n - 1 - j .. n - 2, lex order), its best score G and the id A
    of its argmax set.  A family F0 ∪ F1 whose halves lack and hold element
    k scores max(G0, G1 + t) at beta_k = t: with c = G0 - G1, its argmax is
    A0 for t < c, A1 for t > c and their interned union at t = c.  Axis k
    comes first in the new points, so every call runs along the long axis
    of the points.  At the last axis this is the line through a head: A0
    below the cut c, A1 above it.

    Returns ``lines``, the (heads, 3) ids of each line's sets below, at and
    above its cut, ``runs``, the number of t at which the line has each
    (0 for a set it does not meet), ``words``, the words of the sets that
    occur, and ``rank``, the row of ``words`` of each id that occurs.
    """
    n, m = len(lo), len(rows)
    # one row per family, and the sentinel row
    G = np.empty((m + 1, 1), dtype=np.int64)
    np.negative(vals[rows], out=G[:m, 0])
    G[m] = -_LIMIT
    A = rows[:, None]
    # the words of each basis alone
    words = np.zeros((m, (m + 63) // 64), dtype="<u8")
    b = np.arange(m)
    words.view(np.uint8)[b, b >> 3] = 1 << (b & 7)
    for j, (ig, ia) in enumerate(levels):
        g, a = G[ig].reshape(-1, 2, G.shape[1]), A[ia].reshape(-1, 2, A.shape[1])
        g0, g1, a0, a1, f = g[:, 0], g[:, 1], a[:, 0], a[:, 1], len(g)
        c = g0 - g1
        if j == n - 1:
            break
        k = n - 2 - j
        t = np.arange(lo[k], hi[k] + 1, dtype=np.int64)[:, None]
        A = np.where(c[:, None] < t, a1[:, None], a0[:, None])
        q, p = ((c >= lo[k]) & (c <= hi[k])).nonzero()
        if len(q):
            A[q, c[q, p] - lo[k], p], words = _intern(a0[q, p], a1[q, p], words)
        A = A.reshape(f, -1)
        G = np.empty((f + 1, A.shape[1]), dtype=np.int64)
        new = G[:f].reshape(f, len(t), -1)
        np.add(g1[:, None], t, out=new)
        np.maximum(new, g0[:, None], out=new)
        G[f] = -_LIMIT
    # t below, at and above the cut, clipped to [lo - 1, hi + 1]
    cut = np.minimum(np.maximum(c[0], lo[-1] - 1, out=c[0]), hi[-1] + 1, out=c[0])
    runs = np.empty((len(cut), 3), dtype=np.intp)
    np.subtract(cut, lo[-1], out=runs[:, 0], casting="unsafe")
    np.subtract(hi[-1], cut, out=runs[:, 2], casting="unsafe")
    np.maximum(runs, 0, out=runs)
    np.subtract(hi[-1] - lo[-1] + 1 - runs[:, 0], runs[:, 2], out=runs[:, 1])
    lines = np.empty(runs.shape, dtype=np.intp)
    lines[:, 0] = lines[:, 1] = a0[0]
    lines[:, 2] = a1[0]
    tie = runs[:, 1].nonzero()[0]
    if len(tie):
        lines[tie, 1], words = _intern(a0[0, tie], a1[0, tie], words)
    # only the sets that occur get a row of words
    rank, distinct = _ranks(lines[runs > 0], len(words))
    return lines, runs, rank, words[distinct]


def _box_values(finite_items, lo, hi):
    """(masks, vals) of the box [lo, hi] read from its corner: the basis
    masks, and the int64 values w(B) = nu(B) - e_B . lo shifted to minimum 0
    and capped at d * side + 1, which moves no argmax in the box (module
    docstring).  A box with (d + 1) * side + 1 >= 2^62 is refused."""
    if not finite_items:
        raise ValueError("valuation has no finite values")
    masks = [mask for mask, _ in finite_items]
    d = max(mask.bit_count() for mask in masks)
    side = max((h - l for l, h in zip(lo, hi)), default=0)
    if (d + 1) * side + 1 >= _LIMIT:
        raise ValueError(f"the box from {lo} to {hi} is too large to score: bases of "
                         f"size d = {d} and a side of {side} need (d + 1) * side + 1 < 2^62")
    w = [val - sum(l for i, l in enumerate(lo) if mask >> i & 1) for mask, val in finite_items]
    low, cap = min(w), d * side + 1
    return masks, np.array([min(v - low, cap) for v in w], dtype=np.int64)


def _box_lines(finite_items, n: int, lo, hi):
    """``_slab_lines`` over the slabs of the box [lo, hi], in lex order, each
    scored at beta = alpha - lo: yields (slab lo, slab hi, lines, runs, rank,
    words), the slab bounds in alpha.  A box with an empty side has no
    slabs."""
    lo, hi = list(lo), list(hi)
    empty = any(h < l for l, h in zip(lo, hi))
    masks, vals = _box_values(finite_items, lo, lo if empty else hi)
    if empty:
        return
    rows, levels = _levels(masks, n)
    for slo, shi in _slabs(lo, hi):
        yield slo, shi, *_slab_lines(rows, levels, vals, [l - o for l, o in zip(slo, lo)],
                                     [h - o for h, o in zip(shi, lo)])


def _box_sets(finite_items, n: int, lo, hi):
    """(ids, words): the ids of ``score_box``, and its table, one row of
    ``_row_words``'s words per id, bit j for basis j of ``finite_items``.
    The ids are expanded run by run, with one ``np.repeat`` per slab."""
    slabs = [slab[2:] for slab in _box_lines(finite_items, n, lo, hi)]
    if not slabs:
        return np.zeros(0, dtype=np.intp), np.zeros((0, (len(finite_items) + 63) // 64), "<u8")
    words = np.concatenate([slab[3] for slab in slabs])
    # renumbered as score_ids numbers them: by the lex order of their words
    order, rep = _lex_rows(words)
    ids, offset = [], 0
    for lines, runs, rank, sets in slabs:
        ids.append(np.repeat(order[offset + rank][lines].ravel(), runs.ravel()))
        offset += len(sets)
    # one slab is the whole grid: no copy
    return ids[0] if len(ids) == 1 else np.concatenate(ids), words[rep]


def score_box(finite_items, n: int, lo, hi):
    """``score_ids(finite_items, n, box_array(lo, hi))``, scored one axis at
    a time: a box of side s costs about 2 s^(n-1) scores, not m s^n."""
    ids, words = _box_sets(finite_items, n, lo, hi)
    return ids, _families([mask for mask, _ in finite_items], words)


# ---------------------------------------------------------------------------
# id grids and the local axioms

def _scored_grid(finite_items, n: int, lo: int, hi: int):
    """(grid, masks, words) of ``_box_sets`` over [lo, hi]^n: its ids as a
    grid indexed by alpha - lo per axis, the masks of ``finite_items`` and
    its table, grid and table read-only.  The box remembered for the same
    (n, finite_items, lo, hi) is returned as it is; any other request scans
    while the remembered box is still held and forgets it after, so that
    freeing it does not trim the heap before the scan (module docstring)."""
    key = (n, tuple(finite_items))
    held = _grid_memo.get(key)
    if held is not None and held[:2] == (lo, hi):
        grid, words = held[2:4]
    else:
        ids, words = _box_sets(finite_items, n, [lo] * n, [hi] * n)
        grid = ids.reshape((hi - lo + 1,) * n)
        _grid_memo.clear()
        if lo <= hi and grid.size <= _MEMO_IDS:
            _grid_memo[key] = (lo, hi, grid, words, {})
    grid.setflags(write=False)
    words.setflags(write=False)
    return grid, [mask for mask, _ in finite_items], words


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


def _table_words(table):
    """(masks, words) of a list of basis-mask families: the masks that
    occur, in increasing order, and the table whose row k holds ``table[k]``."""
    masks = sorted(set().union(*table))
    return masks, _row_words(np.array([[mask in family for mask in masks] for family in table]))


def _local_axioms(grid: np.ndarray, radius: int, moves):
    """Local axioms on an id grid whose index 0 is alpha = -radius on every axis.

    A move (I, left, right) holds at alpha when row left[id at alpha] equals
    row right[id at alpha + e_I]: ``left`` and ``right`` are (ids, words)
    arrays of keys, one row per id, of one width.  A move without keys
    (I, None, None) holds when the two ids are equal (MF2, FF2): distinct
    ids hold distinct families.  A move is checked at every alpha of
    [-radius, radius]^E whose shift is in the grid, so a grid over
    [-radius, radius + 1]^E checks the whole box (``_move_fails``).
    Returns (checked, failed) per move and where a move fails first, (alpha,
    move index) at the lex-first failing alpha, ties going to the earlier
    move, or None; the caller reads the two sides that the move compared.
    """
    counts = []
    first = None
    for k, fails in enumerate(_move_fails(grid, radius, moves)):
        failed = int(np.count_nonzero(fails))
        if failed:
            idx = np.unravel_index(int(np.argmax(fails)), fails.shape)
            alpha = tuple(int(x) - radius for x in idx)
            if first is None or alpha < first[0]:
                first = (alpha, k)
        counts.append((int(fails.size), failed))
    return counts, first


def _move_fails(grid: np.ndarray, radius: int, moves):
    """The bool array of the alphas where each move of ``_local_axioms``
    fails, in order, over the checked block of ``_move_views``.  The block
    is copied once per block shape into a contiguous array that its moves
    share, and a move compares its keys word by word, each word read with
    ``np.take``: two gathers and one comparison per word, no key ranked."""
    blocks: dict = {}
    for axes, left, right in moves:
        at, shifted = _move_views(grid, radius, axes)
        if at.shape not in blocks:
            blocks[at.shape] = np.ascontiguousarray(at)
        block = blocks[at.shape]
        if left is None:
            fails = block != shifted
        else:
            fails = np.take(left[:, 0], block) != np.take(right[:, 0], shifted)
            for w in range(1, left.shape[1]):
                fails |= np.take(left[:, w], block) != np.take(right[:, w], shifted)
        yield fails


def _move_views(grid: np.ndarray, radius: int, axes):
    """(at, shifted) of the move along ``axes`` in ``_local_axioms``: the ids
    at the checked alphas whose shift by e_I is in the grid, and the ids at
    those shifts."""
    base, top = [], []
    for axis in range(grid.ndim):
        step = int(axis in axes)
        stop = min(2 * radius + 1, grid.shape[axis] - step)
        base.append(slice(0, stop))
        top.append(slice(step, stop + step))
    return grid[tuple(base)], grid[tuple(top)]


# moves x (id, basis) entries per block of ``_set_moves``
_KEY_BLOCK = 1 << 18


def _minor_moves(n: int, masks, words: np.ndarray, moves):
    """(I, left, right) per tuple I of element indices in ``moves``, for
    ``_local_axioms``: row k of ``left`` keys the contraction and row k of
    ``right`` the deletion by I of the family in row k of ``words``, as rows
    of uint64 words, so that equal keys are equal minors.  ``words`` is a
    table (module docstring), bit j for basis ``masks[j]``, every family
    nonempty and every basis of one size.

    A single-element move i is keyed in basis space: B -> B - i is
    injective, so the contraction is the family's bases that hold i (all of
    them when i is a loop) and the deletion those that miss i (all of them
    when i is a coloop), and a key is the row's words ANDed with a column
    mask (``_word_keys``).  A set move is keyed by its projected masks
    (``_set_moves``).
    """
    keys = _word_keys(n, masks, words)
    for single, run in itertools.groupby(moves, key=lambda axes: len(axes) == 1):
        if single:
            for axes in run:
                yield axes, keys[0, axes[0]], keys[1, axes[0]]
        else:
            yield from _set_moves(n, masks, words, list(run))


def _word_keys(n: int, masks, table: np.ndarray) -> np.ndarray:
    """``_minor_moves``'s single-element keys, as a (side, element, id,
    word) array: each row of the table ANDed with the words of the columns
    that hold the element (contraction) or miss it (deletion), the whole
    row where that leaves nothing."""
    hold = _row_words((np.array(masks, dtype=np.int64) >> np.arange(n)[:, None] & 1).astype(bool))
    sides = np.stack([table & hold[:, None], table & ~hold[:, None]])
    # a side is empty where the OR of its words is 0, one array pass per word
    filled = functools.reduce(np.bitwise_or, np.moveaxis(sides, 3, 0)) != 0
    return np.where(filled[..., None], sides, table)


def _set_moves(n: int, masks, words: np.ndarray, moves):
    """``_minor_moves``'s keys of the moves I.  With cnt_j = |b_j ∩ I|, the
    contraction keeps the bases of largest cnt and the deletion those of
    largest |b_j \\ I|, and a key is the set of their projections b_j \\ I,
    one bit per projected mask at its rank among the move's projected
    masks.  A block holds as many moves as keep its arrays within
    ``_KEY_BLOCK`` (id, basis) entries per side, and at least one."""
    size, m = len(words), len(masks)
    rows, cols = np.nonzero(_bits(words, m))
    # nonzero is row-major: the entries of an id are contiguous
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    bases = np.array(masks, dtype=np.int64)
    elements = np.arange(n)
    incidence = (bases[:, None] >> elements & 1).astype(np.int8)
    sizes = incidence.sum(axis=1, dtype=np.int8)[cols]
    block = max(1, _KEY_BLOCK // len(cols))
    for start in range(0, len(moves), block):
        sets = moves[start:start + block]
        cuts = np.zeros((len(sets), n), dtype=np.int8)
        for k, axes in enumerate(sets):
            cuts[k, list(axes)] = 1
        # (side, move, entry): the count each side maximizes, from bit matrices
        inside = (cuts @ incidence.T)[:, cols]
        held = np.stack([inside, sizes - inside])
        keep = held == np.maximum.reduceat(held, starts, axis=2)[:, :, rows]
        # the rank of each projected mask among the distinct ones of its move
        projected = bases & ~(cuts.astype(np.int64) @ (np.int64(1) << elements))[:, None]
        order = np.argsort(projected, axis=1, kind="stable")
        ordered = np.take_along_axis(projected, order, axis=1)
        fresh = np.ones(ordered.shape, dtype=np.intp)
        fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.cumsum(fresh, axis=1) - 1, axis=1)
        # a key as words: OR over the kept entries of an id, so equal
        # projections set one bit
        word = (rank // 64)[:, cols]
        fields = (np.uint64(1) << (rank % 64).astype(np.uint64))[:, cols]
        keys = np.empty((2, len(sets), size, -(-m // 64)), dtype=np.uint64)
        for w in range(keys.shape[3]):
            keys[..., w] = np.bitwise_or.reduceat(
                np.where(keep & (word == w), fields, np.uint64(0)), starts, axis=2)
        for k, axes in enumerate(sets):
            yield axes, keys[0, k], keys[1, k]


def _keyed_moves(n: int, masks, words: np.ndarray, moves):
    """``_local_axioms``'s (I, left, right) of each move, in order: a tuple
    I of element indices keyed by ``_minor_moves``, or None, the all-ones
    shift (MF2, FF2), which has no keys."""
    minors = _minor_moves(n, masks, words, [move for move in moves if move is not None])
    for move in moves:
        yield (tuple(range(n)), None, None) if move is None else next(minors)


def _move_verdicts(finite_items, n: int, radius: int, moves):
    """``_local_axioms`` of ``_keyed_moves``'s ``moves`` over
    [-radius, radius]^n on the scored grid of [-radius, radius + 1]^n:
    (counts, first), its counts and where a move fails first, (alpha, move
    index), or None.

    The verdicts stored (module docstring) are read first, and a move with
    a verdict at R >= radius is read from them: lex order is the flat order
    of every box.  The other moves run ``_move_fails`` on ``_scored_grid``'s
    grid, and all the verdicts are kept in the entry that scan leaves,
    unless they would hold more than ``_MEMO_IDS`` failing indices."""
    key = (n, tuple(finite_items))
    held = _grid_memo.get(key)
    verdicts = dict(held[4]) if held is not None else {}
    todo = [move for move in moves if verdicts.get(move, (-1,))[0] < radius]
    if todo:
        grid, masks, words = _scored_grid(finite_items, n, -radius, radius + 1)
        for move, fails in zip(todo, _move_fails(grid, radius,
                                                 _keyed_moves(n, masks, words, todo))):
            verdicts[move] = radius, np.flatnonzero(fails)
        held = _grid_memo.get(key)
        if held is not None and sum(len(flat) for _, flat in verdicts.values()) <= _MEMO_IDS:
            held[4].update(verdicts)
    side = 2 * radius + 1
    counts, first = [], None
    for k, move in enumerate(moves):
        checked, flat = verdicts[move]
        if checked > radius and len(flat):
            idx = np.array(np.unravel_index(flat, (2 * checked + 1,) * n)) - (checked - radius)
            flat = np.ravel_multi_index(idx[:, ((idx >= 0) & (idx < side)).all(axis=0)],
                                        (side,) * n)
        if len(flat) and (first is None or flat[0] < first[0]):
            first = (int(flat[0]), k)
        counts.append((side ** n, len(flat)))
    if first is not None:
        flat, k = first
        first = (tuple(int(i) - radius for i in np.unravel_index(flat, (side,) * n)), k)
    return counts, first


# ---------------------------------------------------------------------------
# leaders

def _leader_reps(finite_items, n: int, R: int) -> dict:
    """The lex-first point of {alpha : alpha_0 = 0, |alpha_i| <= R} at which
    each argmax family occurs, keyed by the family."""
    masks = [mask for mask, _ in finite_items]
    lo, hi = [0] + [-R] * (n - 1), [0] + [R] * (n - 1)
    reps: dict = {}
    # heads come in lex order, and so do the entries of a head's line, so
    # the first entry per set is its lex-first point
    for slo, shi, lines, runs, rank, words in _box_lines(finite_items, n, lo, hi):
        at = runs.ravel().nonzero()[0]
        first = np.full(len(words), lines.size)
        np.minimum.at(first, rank[lines.ravel()[at]], at)
        head, k = np.divmod(first, 3)
        # an entry's first t is lo_last plus the runs before it
        t = lo[-1] + (runs[head] * (np.arange(3) < k[:, None])).sum(axis=1)
        points = np.concatenate([_box_points(slo[:-1], shi[:-1], head), t[:, None]], axis=1)
        for family, alpha in zip(_families(masks, words), points.tolist()):
            reps.setdefault(family, tuple(alpha))
    return reps
