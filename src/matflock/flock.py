"""Matroid flocks: families alpha -> M_alpha verified on finite windows.

A flock is an oracle from integer vectors to matroids of fixed rank.  The
two local axioms (minor compatibility under unit steps, invariance under the
all-ones shift) are checked exhaustively over boxes; the potential g and the
valuation extracted from it give the finite description of the whole family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import window
from .lattice import INF, vadd
from .matroid import Matroid, _raise_unless, bases_contract, bases_delete
from .valuation import Valuation, check_valuation_axioms, optimal_masks


class ExtractionError(RuntimeError):
    """Round-trip verification failed; carries the cutoff-hitting subsets."""

    def __init__(self, message, cutoff_hits=()):
        super().__init__(message)
        self.cutoff_hits = tuple(cutoff_hits)


# FIFO (dicts keep insertion order); a radius-3 check on 5 elements walks 9^5 points
_MEMO_CAP = 1 << 16


class MatroidFlock:
    """An oracle alpha in Z^E -> matroid of rank d on E, memoized per alpha."""

    def __init__(self, ground, d: int, masks_eval: Callable[[tuple], frozenset],
                 source: str, valuation: Optional[Valuation] = None):
        self.ground = tuple(ground)
        self.d = int(d)
        self.source = source
        self.valuation = valuation
        self._masks_eval = masks_eval
        self._memo: dict[tuple, frozenset[int]] = {}

    def masks_at(self, alpha) -> frozenset[int]:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != len(self.ground):
            raise ValueError("alpha has the wrong length")
        got = self._memo.get(alpha)
        if got is None:
            got = self._masks_eval(alpha)
            if len(self._memo) >= _MEMO_CAP:
                del self._memo[next(iter(self._memo))]
            self._memo[alpha] = got
        return got

    def matroid_at(self, alpha) -> Matroid:
        return Matroid(self.ground, self.masks_at(alpha))

    def rank_at(self, alpha, subset_mask: int) -> int:
        return max((b & subset_mask).bit_count() for b in self.masks_at(alpha))

    def __repr__(self):
        return f"MatroidFlock(source={self.source!r}, n={len(self.ground)}, d={self.d})"


def flock_from_valuation(nu: Valuation) -> MatroidFlock:
    """The flock alpha -> M^nu_alpha; ValueError unless nu is a valuation."""
    _raise_unless(check_valuation_axioms(nu), "valuation")
    return MatroidFlock(nu.ground, nu.d, lambda a: optimal_masks(nu, a),
                        "valuation", valuation=nu)


def constant_flock(M: Matroid) -> MatroidFlock:
    return MatroidFlock(M.ground, M.d, lambda a: M.masks, "constant")


def explicit_flock(table: dict, ground, d: int) -> MatroidFlock:
    """A flock given by a finite table alpha -> Matroid (tests and JSON input).

    Evaluation outside the table raises.
    """
    tbl = {}
    for alpha, M in table.items():
        alpha = tuple(int(a) for a in alpha)
        if M.ground != tuple(ground) or M.d != d:
            raise ValueError("table entry with mismatched ground set or rank")
        tbl[alpha] = M.masks

    def ev(alpha):
        try:
            return tbl[alpha]
        except KeyError:
            raise ValueError(f"alpha {alpha} outside the explicit window") from None
    return MatroidFlock(ground, d, ev, "explicit")


def oracle_flock(ground, d: int, fn: Callable[[tuple], Matroid],
                 source: str = "oracle") -> MatroidFlock:
    return MatroidFlock(ground, d, lambda a: fn(a).masks, source)


# ---------------------------------------------------------------------------
# window evaluation

def window_ids(flock: MatroidFlock, radius: int):
    """Matroid identities over the box [-radius, radius]^E.

    Returns (grid, table): an int array indexed by alpha + radius per axis,
    and the list mapping ids to basis-mask families.  Valuation-backed flocks
    are scored vectorized; anything else walks the oracle.
    """
    return _box_ids(flock, -radius, radius)


def _box_ids(flock: MatroidFlock, lo: int, hi: int):
    """(grid, table) as in ``window_ids``, over [lo, hi]^E, indexed by alpha - lo."""
    n = len(flock.ground)
    if flock.valuation is not None:
        points = window.box_array([lo] * n, [hi] * n)
        ids, table = window.score_ids(flock.valuation.finite_items(), n, points)
        return ids.reshape((hi - lo + 1,) * n).astype(np.int32), table
    return _id_grid(n, lo, hi, flock.masks_at)


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


# ---------------------------------------------------------------------------
# axiom checking

@dataclass(frozen=True)
class FlockViolation:
    alpha: tuple
    move: object          # an element label, "1", or a tuple of labels
    left: Matroid
    right: Matroid


@dataclass(frozen=True)
class FlockWindowReport:
    radius: int
    mf1_checked: int = 0
    mf1_failed: int = 0
    mf2_checked: int = 0
    mf2_failed: int = 0
    set_checked: int = 0
    set_failed: int = 0
    violation: Optional[FlockViolation] = None

    @property
    def ok(self) -> bool:
        return self.mf1_failed == 0 and self.mf2_failed == 0 and self.set_failed == 0

    def __bool__(self):
        return self.ok


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


def _same(i):
    """The key of a move that compares ids themselves (MF2, FF2)."""
    return i


def check_flock_axioms(flock: MatroidFlock, radius: int,
                       check_sets: bool = False) -> FlockWindowReport:
    """Verify the minor axiom and shift invariance over [-radius, radius]^E.

    Each check compares M_alpha with M_{alpha + e_I}, so the flock is read on
    [-radius, radius + 1]^E only (an explicit table must cover that box).
    ``check_sets`` additionally verifies the set version M_a / I = M_{a+e_I} \\ I
    for every nonempty I.  Violations are data, not errors.  The violation
    reported is at the lex-first failing alpha, ties going to the axes in
    ground order, then the all-ones shift "1", then the sets I in order.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    n = len(flock.ground)
    grid, table = _box_ids(flock, -radius, radius + 1)

    def minor_move(axes):
        cmask = sum(1 << i for i in axes)
        return (axes, lambda i: bases_contract(table[i], cmask),
                lambda i: bases_delete(table[i], cmask))

    moves = [minor_move((axis,)) for axis in range(n)]
    moves.append((tuple(range(n)), _same, _same))
    if check_sets:
        moves += [minor_move(combo) for r in range(1, n + 1)
                  for combo in itertools.combinations(range(n), r)]
    counts, first = _local_axioms(grid, radius, moves)

    violation = None
    if first is not None:
        alpha, k, ida, idb = first
        left, right = Matroid(flock.ground, table[ida]), Matroid(flock.ground, table[idb])
        if k < n:
            move = flock.ground[k]
            left, right = left.minor(contract=[move]), right.minor(delete=[move])
        else:
            move = "1" if k == n else tuple(flock.ground[i] for i in moves[k][0])
        violation = FlockViolation(alpha, move, left, right)
    mf1, mf2, sets = counts[:n], counts[n], counts[n + 1:]
    return FlockWindowReport(radius, sum(c for c, _ in mf1), sum(f for _, f in mf1),
                             *mf2, sum(c for c, _ in sets), sum(f for _, f in sets),
                             violation)


# ---------------------------------------------------------------------------
# the potential g

def g_M(flock: MatroidFlock, alpha, check_path: bool = False) -> int:
    """The unique potential with g(0) = 0 and g(a + e_I) = g(a) + r_a(I).

    Computed along the canonical staircase of threshold sets of
    alpha - (min alpha) * 1, then corrected using 1-affinity with slope d.
    Path independence holds for genuine flocks; ``check_path`` re-derives the
    value along per-coordinate unit steps and asserts agreement.
    """
    alpha = tuple(int(a) for a in alpha)
    n = len(flock.ground)
    if len(alpha) != n:
        raise ValueError("alpha has the wrong length")
    m = min(alpha, default=0)
    beta = tuple(a - m for a in alpha)
    g = flock.d * m
    cur = (0,) * n
    for t in range(1, max(beta, default=0) + 1):
        step_mask = sum(1 << i for i in range(n) if beta[i] >= t)
        g += flock.rank_at(cur, step_mask)
        cur = tuple(c + (1 if beta[i] >= t else 0) for i, c in enumerate(cur))
    if check_path:
        g2 = flock.d * m
        cur = (0,) * n
        for i in range(n):
            for _ in range(beta[i]):
                g2 += flock.rank_at(cur, 1 << i)
                cur = vadd(cur, tuple(1 if k == i else 0 for k in range(n)))
        if g2 != g:
            raise AssertionError(f"path dependence at {alpha}: {g} != {g2}")
    return g


# ---------------------------------------------------------------------------
# valuation extraction

def _default_cutoff(flock: MatroidFlock) -> int:
    if flock.valuation is not None:
        # h(0) = nu(B) <= spread along the k*e_B walk, so spread+1 suffices
        return flock.valuation.spread + 1
    return 16


def extract_valuation(flock: MatroidFlock, cutoff: Optional[int] = None,
                      verify_radius: Optional[int] = None) -> Valuation:
    """Recover the valuation nu with M^nu_alpha = flock(alpha).

    For each d-subset B, walk alpha = k * e_B until B is a basis of
    M_alpha; then nu(B) = k*d - g(k*e_B).  Subsets that never become bases
    within the cutoff get nu(B) = ∞.

    The result is then verified, and a failure raises ExtractionError
    listing the subsets that hit the cutoff.  A flock that carries a
    valuation determines it up to a constant, and the walk fixes that
    constant by g(0) = 0, so the walked map must equal
    ``flock.valuation.normalized()`` exactly; this holds at every alpha,
    not just on a window, and ``verify_radius`` is ignored.  Any other flock
    is compared with M^nu_alpha on the box of ``verify_radius`` (default 2,
    0 skips the check).
    """
    n = len(flock.ground)
    if cutoff is None:
        cutoff = _default_cutoff(flock)
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if verify_radius is None:
        verify_radius = 2

    finite: dict[int, int] = {}
    cutoff_hits = []
    d = flock.d
    for combo in itertools.combinations(range(n), d):
        bmask = sum(1 << i for i in combo)
        g = 0
        value = None
        for k in range(cutoff + 1):
            point = tuple(k if i in combo else 0 for i in range(n))
            masks = flock.masks_at(point)
            if bmask in masks:
                value = k * d - g
                break
            g += max((b & bmask).bit_count() for b in masks)
        if value is None:
            cutoff_hits.append(tuple(flock.ground[i] for i in combo))
        else:
            finite[bmask] = value

    nu = Valuation(flock.ground, d, finite)
    check = check_valuation_axioms(nu)
    if not check.ok:
        raise ExtractionError(
            f"extracted map violates ({check.kind}) at {check.witness}", cutoff_hits)
    if flock.valuation is not None:
        bad = _value_mismatch(nu, flock.valuation.normalized())
        if bad is not None:
            subset, got, want = bad
            raise ExtractionError(
                f"round-trip mismatch at {subset}: extracted {got}, "
                f"the flock's valuation {want}; cutoff {cutoff} may be too small",
                cutoff_hits)
    elif verify_radius:
        bad = _window_mismatch(nu, flock, verify_radius)
        if bad is not None:
            raise ExtractionError(
                f"round-trip mismatch at alpha={bad}; "
                f"cutoff {cutoff} may be too small", cutoff_hits)
    return nu


def _value_mismatch(nu: Valuation, ref: Valuation):
    """(labels, nu value, ref value) at the lex-first d-subset where the two
    differ, ∞ shown as such, or None; both live on one ground set and rank."""
    if nu.finite == ref.finite:
        return None
    differ = [m for m in nu.finite.keys() | ref.finite.keys()
              if nu.value_mask(m) != ref.value_mask(m)]
    mask = min(differ, key=lambda m: [i for i in range(len(nu.ground)) if m >> i & 1])
    return (nu.labels_of(mask),
            *("∞" if v == INF else v for v in (nu.value_mask(mask), ref.value_mask(mask))))


def _window_mismatch(nu: Valuation, flock: MatroidFlock, radius: int):
    """Lex-first alpha in the box where M^nu_alpha and the flock differ, or None."""
    grid, table = window_ids(flock, radius)
    n = len(nu.ground)
    points = window.box_array([-radius] * n, [radius] * n)
    ids, nu_table = window.score_ids(nu.finite_items(), n, points)
    pairs, inverse = np.unique(ids * len(table) + grid.ravel(), return_inverse=True)
    differs = np.array([nu_table[k // len(table)] != table[k % len(table)]
                        for k in pairs.tolist()])
    bad = np.flatnonzero(differs[inverse])
    return tuple(int(x) for x in points[bad[0]]) if len(bad) else None
