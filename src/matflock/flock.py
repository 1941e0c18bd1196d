"""Matroid flocks: families alpha -> M_alpha verified on finite windows.

A flock is an oracle from integer vectors to matroids of fixed rank.  The
two local axioms (minor compatibility under unit steps, invariance under the
all-ones shift) are checked exhaustively over boxes; the potential g and the
valuation extracted from it give the finite description of the whole family.

A flock that carries a valuation has it checked, once per ``Valuation``, when
it is built; its extraction reads each value off local optimality, and the
envelope walk over the flock's matroids is the oracle in tests/oracles.py.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Callable, Optional

from .lattice import INF, as_int, as_ints, vadd
from .matroid import Matroid, _raise_unless, _single_exchanges, positional_ground, record
from .valuation import Valuation, _check_alpha, check_valuation_axioms, optimal_masks


class ExtractionError(RuntimeError):
    """Round-trip verification failed; carries the cutoff-hitting subsets."""

    def __init__(self, message, cutoff_hits=()):
        super().__init__(message)
        self.cutoff_hits = tuple(cutoff_hits)


# FIFO; a radius-3 check on 5 elements walks 9^5 points.  An OrderedDict
# evicts its oldest entry in O(1): a plain dict's first key sits behind the
# deleted slots of every eviction since its last resize
_MEMO_CAP = 1 << 16


class MatroidFlock:
    """An oracle alpha in Z^E -> matroid of rank d on E, memoized per alpha.

    Coordinate i of alpha belongs to ground[i], so the ground must be given
    in canonical (sorted) order, the order of its matroids' ground sets:
    ValueError otherwise.  A ``valuation`` is checked here, once per read-only
    ``Valuation``, which stores its verdict: ValueError unless it satisfies
    (V1)/(V2) on the flock's ground set and rank."""

    def __init__(self, ground, d: int, masks_eval: Callable[[tuple], frozenset],
                 source: str, valuation: Optional[Valuation] = None):
        ground = tuple(ground)
        self.d = as_int(d, "rank")
        if valuation is not None:
            if (valuation.ground, valuation.d) != (ground, self.d):
                raise ValueError("valuation on another ground set or rank")
            _raise_unless(check_valuation_axioms(valuation), "valuation")
        self.ground = positional_ground(ground, len(ground), "coordinate")
        self.source = source
        self.valuation = valuation
        self._masks_eval = masks_eval
        self._memo: OrderedDict[tuple, frozenset[int]] = OrderedDict()

    def masks_at(self, alpha) -> frozenset[int]:
        alpha = _check_alpha(self, alpha)
        got = self._memo.get(alpha)
        if got is None:
            got = self._masks_eval(alpha)
            if any(mask.bit_count() != self.d for mask in got):
                raise ValueError(f"the matroid at alpha={alpha} has a basis whose size "
                                 f"is not the flock's rank {self.d}")
            if len(self._memo) >= _MEMO_CAP:
                self._memo.popitem(last=False)
            self._memo[alpha] = got
        return got

    def matroid_at(self, alpha) -> Matroid:
        return Matroid(self.ground, self.masks_at(alpha))

    def rank_at(self, alpha, subset_mask: int) -> int:
        return max((b & subset_mask).bit_count() for b in self.masks_at(alpha))

    def __repr__(self):
        return f"MatroidFlock(source={self.source!r}, n={len(self.ground)}, d={self.d})"


def flock_from_valuation(nu: Valuation) -> MatroidFlock:
    """The flock alpha -> M^nu_alpha; ValueError unless nu is a valuation
    (checked once, by ``MatroidFlock``)."""
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
        alpha = as_ints(alpha, "alpha entry")
        if len(alpha) != len(ground):
            raise ValueError(f"alpha {alpha} has length {len(alpha)}, "
                             f"expected {len(ground)}")
        if M.ground != tuple(ground) or M.d != d:
            raise ValueError("table entry with mismatched ground set or rank")
        tbl[alpha] = M.masks

    def ev(alpha):
        try:
            return tbl[alpha]
        except KeyError:
            raise ValueError(f"alpha {alpha} outside the explicit window") from None
    return MatroidFlock(ground, d, ev, "explicit")


def oracle_flock(ground, d: int, fn: Callable[[tuple], Matroid]) -> MatroidFlock:
    return MatroidFlock(ground, d, lambda a: fn(a).masks, "oracle")


# ---------------------------------------------------------------------------
# window evaluation

def window_ids(flock: MatroidFlock, radius: int):
    """Matroid identities over the box [-radius, radius]^E.

    Returns (grid, table): a read-only int array indexed by alpha + radius
    per axis, and the list mapping ids to basis-mask families.
    Valuation-backed flocks are scored vectorized; anything else walks the
    oracle.  A negative radius is refused before anything is scanned.
    """
    from . import window
    radius = as_int(radius, "radius", 0)
    grid, masks, words = _grid(flock, -radius, radius)
    grid.setflags(write=False)
    return grid, window._families(masks, words)


def _grid(flock: MatroidFlock, lo: int, hi: int):
    """(grid, masks, words) of ``window._scored_grid`` over [lo, hi]^E for a
    valuation-backed flock, else of the oracle walked by ``window._id_grid``."""
    from . import window
    n = len(flock.ground)
    if flock.valuation is not None:
        return window._scored_grid(flock.valuation.finite_items(), n, lo, hi)
    grid, table = window._id_grid(n, lo, hi, flock.masks_at)
    return (grid, *window._table_words(table))


# ---------------------------------------------------------------------------
# axiom checking

@record
class FlockViolation:
    alpha: tuple
    move: object          # an element label, "1", or a tuple of labels
    left: Matroid
    right: Matroid


@record
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


def check_flock_axioms(flock: MatroidFlock, radius: int,
                       check_sets: bool = False) -> FlockWindowReport:
    """Verify the minor axiom and shift invariance over [-radius, radius]^E.

    Each check compares M_alpha with M_{alpha + e_I}, so the flock is read on
    [-radius, radius + 1]^E only (an explicit table must cover that box).
    ``check_sets`` additionally verifies the set version M_a / I = M_{a+e_I} \\ I
    for every nonempty I.  Violations are data, not errors: the matroids
    reported are the two sides the failing move compared, M_a / I and
    M_{a+e_I} \\ I on E \\ I, or M_a and M_{a+1} for the all-ones shift.  The
    violation reported is at the lex-first failing alpha, ties going to the
    axes in ground order, then the all-ones shift "1", then the sets I in
    order.  A flock that carries a valuation is checked on its scored grid
    by ``window._move_verdicts``, which reads back the verdict of each move
    an earlier check of that valuation made at a radius as large.  Either
    pass says where a move fails first; its two sides are read from
    ``optimal_masks`` of the valuation, or from ``masks_at``.
    """
    radius = as_int(radius, "radius", 1)
    from . import window
    n = len(flock.ground)
    # the sets {i} are the (MF1) moves again, whose counts they reuse;
    # ties go to (MF1), so a singleton never supplies the violation
    subsets = [combo for r in range(2, n + 1) for combo in itertools.combinations(range(n), r)
               if check_sets]
    moves = [(axis,) for axis in range(n)] + [None] + subsets
    if flock.valuation is not None:
        # verdicts a check of this valuation already made are read back
        counts, first = window._move_verdicts(flock.valuation.finite_items(), n, radius, moves)
        masks_at = lambda alpha: optimal_masks(flock.valuation, alpha)
    else:
        grid, masks, words = _grid(flock, -radius, radius + 1)
        counts, first = window._local_axioms(grid, radius,
                                             window._keyed_moves(n, masks, words, moves))
        masks_at = flock.masks_at

    violation = None
    if first is not None:
        alpha, k = first
        shift = range(n) if moves[k] is None else moves[k]
        left, right = (Matroid(flock.ground, masks_at(at)) for at in
                       (alpha, tuple(a + (i in shift) for i, a in enumerate(alpha))))
        if moves[k] is None:
            move = "1"
        else:
            labels = [flock.ground[i] for i in moves[k]]
            left, right = left.minor(contract=labels), right.minor(delete=labels)
            move = labels[0] if k < n else tuple(labels)
        violation = FlockViolation(alpha, move, left, right)
    mf1, mf2, sets = counts[:n], counts[n], counts[n + 1:]
    if check_sets:
        sets = mf1 + sets
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
    alpha = _check_alpha(flock, alpha)
    n = len(flock.ground)
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
    within the cutoff get nu(B) = ∞.  A flock without a valuation is read at
    every step through ``masks_at`` (``_point_value``); one that carries a
    valuation, checked when the flock was built, is read off local
    optimality (``_local_values``).

    The result is then verified, and a failure raises ExtractionError
    listing the subsets that hit the cutoff.  A flock that carries a
    valuation determines it up to a constant, and the walk fixes that
    constant by g(0) = 0, so the walked map must equal
    ``flock.valuation.normalized()`` exactly, and is returned at once if it
    does; else its (V2) failure, or the lex-first subset where the two
    differ, is reported.  This holds at every alpha, not just on a window,
    and ``verify_radius`` is ignored.  Any other flock's map is checked for
    (V1)/(V2) and compared with M^nu_alpha on the box of ``verify_radius``
    (default 2, 0 skips the check); a negative ``verify_radius`` is refused
    for every flock.
    """
    n, d = len(flock.ground), flock.d
    cutoff = as_int(_default_cutoff(flock) if cutoff is None else cutoff, "cutoff", 1)
    verify_radius = as_int(2 if verify_radius is None else verify_radius, "verify_radius", 0)

    subsets = [sum(1 << i for i in combo) for combo in itertools.combinations(range(n), d)]
    if flock.valuation is None:
        value_of = lambda bmask: _point_value(flock, bmask, cutoff)
    else:
        value_of = _local_values(flock.valuation, cutoff).get
    walked = [(bmask, value_of(bmask)) for bmask in subsets]
    finite = {bmask: value for bmask, value in walked if value is not None}
    nu = Valuation(flock.ground, d, finite)
    cutoff_hits = [nu.labels_of(bmask) for bmask, value in walked if value is None]
    mismatch = None
    if flock.valuation is not None:
        mismatch = _value_mismatch(nu, flock.valuation.normalized())
        if mismatch is None:
            return nu
    check = check_valuation_axioms(nu)
    if not check.ok:
        raise ExtractionError(
            f"extracted map violates ({check.kind}) at {check.witness}", cutoff_hits)
    if mismatch is not None:
        subset, got, want = mismatch
        raise ExtractionError(
            f"round-trip mismatch at {subset}: extracted {got}, "
            f"the flock's valuation {want}; cutoff {cutoff} may be too small",
            cutoff_hits)
    if verify_radius:
        bad = _window_mismatch(nu, flock, verify_radius)
        if bad is not None:
            raise ExtractionError(
                f"round-trip mismatch at alpha={bad}; "
                f"cutoff {cutoff} may be too small", cutoff_hits)
    return nu


def _point_value(flock: MatroidFlock, bmask: int, walk: int) -> Optional[int]:
    """k*d - g(k*e_B) at the first k <= walk where B (the subset ``bmask``)
    is a basis of M_{k*e_B}, reading the flock at every step; else None."""
    n = len(flock.ground)
    g = 0
    for k in range(walk + 1):
        masks = flock.masks_at(tuple(k if bmask >> i & 1 else 0 for i in range(n)))
        if bmask in masks:
            return k * flock.d - g
        g += max((b & bmask).bit_count() for b in masks)
    return None


def _local_values(nu: Valuation, cutoff: int) -> dict[int, int]:
    """``_point_value`` by mask of each finite B of the valuation nu that is
    a basis on its walk by k = cutoff.  By local optimality (Dress-Wenzel
    1992; Murota, *Discrete Convex Analysis*, ch. 5) B is optimal at k*e_B
    exactly when no finite single exchange B' = B - i + j scores higher,
    k*(d-1) - nu(B') against k*d - nu(B), so from k_B = max(0, max over B'
    of nu(B) - nu(B')) <= spread on, where the walk reads nu(B) - min nu.
    So a cutoff >= spread (the default is spread + 1) keeps every B, and
    no exchange is read."""
    n, low = len(nu.ground), min(nu.finite.values())
    if cutoff >= nu.spread:
        return {bmask: value - low for bmask, value in nu.finite.items()}
    values = {}
    for bmask, value in nu.finite.items():
        if max((value - nu.finite[other] for _, _, other in _single_exchanges(bmask, n)
                if other in nu.finite), default=0) <= cutoff:
            values[bmask] = value - low
    return values


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
    """Lex-first alpha in the box where M^nu_alpha and the flock differ, or
    None.  The flock's box is read whole first; its ids are then compared
    with ``score_box``'s through one numbering of the scored families."""
    import numpy as np
    from . import window
    grid, table = window_ids(flock, radius)
    n = len(nu.ground)
    ids, scored = window.score_box(nu.finite_items(), n, [-radius] * n, [radius] * n)
    number = {family: k for k, family in enumerate(scored)}
    # -1 for a family that M^nu takes nowhere in the box
    bad = np.flatnonzero(np.array([number.get(f, -1) for f in table])[grid.ravel()] != ids)
    if len(bad):
        return tuple(int(x) - radius for x in np.unravel_index(bad[0], grid.shape))
