"""Finite-window M/L-convexity checks and Legendre-Fenchel duality.

Functions live on explicit boxes; every sup over Z^n is replaced by a max
over a finite domain, which is exact whenever the domain of the primal
function is finite (always the case for valuation-derived functions).

A ``WindowFunction`` is a ``matroid.record`` with a read-only ``values``;
its integers, and the x of ``lconvex_is_minimizer``, are read by
``lattice.as_ints``.  The public constructor checks every input; ``_on_box``
builds a function from a box the library has already checked and values
it computed in box order, and reads neither again.  ``fenchel_dual``
returns through ``_on_box`` and hands its box-ordered values on, so
``check_lconvex`` reads them as they are; for a function from the public
constructor that list is built on first use and kept.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from types import MappingProxyType
from typing import Callable, Optional

from .lattice import INF, as_int, as_ints, vadd, vjoin, vmeet, vsub
from .matroid import _write, record
from .valuation import Valuation


def _ints(xs):
    """``xs`` as a list of ints by ``lattice.as_ints``, or None where it refuses."""
    try:
        return list(as_ints(xs, "entry"))
    except ValueError:
        return None


def _box(n, lo, hi):
    """(n, lo, hi) of a box as ints, with bounds of length n and lo <= hi."""
    try:
        n, lo, hi = as_int(n, "n"), as_ints(lo, "lo"), as_ints(hi, "hi")
    except ValueError:
        raise ValueError("box size and bounds must be integers") from None
    if len(lo) != n or len(hi) != n:
        raise ValueError("box bounds have the wrong length")
    if any(l > h for l, h in zip(lo, hi)):
        raise ValueError("empty box")
    return n, lo, hi


def _fill(f, *values):
    """Write a ``WindowFunction``'s n, lo, hi, values and kept box-order values."""
    for name, value in zip(("n", "lo", "hi", "values", "_box_vals"), values):
        _write(f, name, value)


@record
class WindowFunction:
    """A map from the lattice points of a box to Z ∪ {∞}.

    Only finite values are stored, in the read-only mapping ``values``;
    lattice points of the box without an entry, and everything outside the
    box, take the value ∞.  Bounds, coordinates and values must be integers
    (see ``_ints``); a point of the wrong length or outside the box raises
    ValueError.  Each check reads one axis, or the values, at a time.  A
    record without a hash, so the values in box order that ``_box_values``
    keeps always agree with ``values``.
    """
    n: int
    lo: tuple
    hi: tuple
    values: dict

    __hash__ = None

    def __post_init__(self):
        n, lo, hi = _box(self.n, self.lo, self.hi)
        pts = list(self.values)
        if set(map(len, pts)) - {n}:
            bad = next(pt for pt in pts if len(pt) != n)
            raise ValueError(f"point {tuple(bad)} outside the box")
        axes = [_ints(axis) for axis in zip(*pts)]
        if None in axes:
            bad = next(pt for pt in pts if _ints(pt) is None)
            raise ValueError(f"point {tuple(bad)} has a coordinate that is not an integer")
        if any(min(axis) < l or max(axis) > h for axis, l, h in zip(axes, lo, hi)):
            bad = next(pt for pt in pts if not all(l <= x <= h for x, l, h in zip(pt, lo, hi)))
            raise ValueError(f"point {tuple(bad)} outside the box")
        vals = dict(zip(zip(*axes) if n else [()] * len(pts), self.values.values()))
        if INF in vals.values():
            vals = {pt: v for pt, v in vals.items() if v != INF}
        if not vals:
            raise ValueError("empty domain")
        ints = _ints(vals.values())
        if ints is None:
            pt, v = next((pt, v) for pt, v in vals.items() if _ints([v]) is None)
            raise ValueError(f"value {v!r} at {pt} is not an integer")
        _fill(self, n, lo, hi, MappingProxyType(dict(zip(vals, ints))), None)

    @classmethod
    def _on_box(cls, n: int, lo: tuple, hi: tuple, vals) -> "WindowFunction":
        """The function finite on the whole box [lo, hi], a box of
        ``_box``'s output, with the int values ``vals`` listed in box order.
        Nothing is checked or converted again: for boxes the library has
        checked and values it computed, such as ``fenchel_dual``'s.
        ``vals`` is kept, as a tuple, for ``check_lconvex``."""
        vals = tuple(vals)
        f = cls.__new__(cls)
        _fill(f, n, lo, hi, MappingProxyType(dict(zip(_box_points(lo, hi), vals))), vals)
        return f

    def _box_values(self) -> tuple:
        """The values at the lattice points of the box in box order (lex
        order), ∞ off the domain: built on the first call and kept."""
        if self._box_vals is None:
            _write(self, "_box_vals", tuple(map(
                self.values.get, _box_points(self.lo, self.hi), itertools.repeat(INF))))
        return self._box_vals

    def __call__(self, pt):
        return self.values.get(tuple(pt), INF)

    def domain(self):
        return sorted(self.values)

    def in_box(self, pt) -> bool:
        return all(l <= x <= h for x, l, h in zip(pt, self.lo, self.hi))

    def __repr__(self):
        return f"WindowFunction(n={self.n}, box=[{self.lo}, {self.hi}], |dom|={len(self.values)})"


def valuation_point_function(nu: Valuation) -> WindowFunction:
    """The 0/1-point function e_B -> nu(B) on the unit box."""
    n = len(nu.ground)
    values = {
        tuple(1 if mask >> i & 1 else 0 for i in range(n)): v
        for mask, v in nu.finite.items()
    }
    return WindowFunction(n, (0,) * n, (1,) * n, values)


# ---------------------------------------------------------------------------
# checks

@record
class LConvexReport:
    """Verdict of ``check_lconvex``.

    ``submodular_checked`` counts unit squares when the function is finite
    on its whole box, and pairs of finite points otherwise; ``witness`` is
    the failing pair (x, y), or the shift pair (x, x+1).
    """
    ok: bool
    r: Optional[int] = None
    witness: Optional[tuple] = None
    submodular_checked: int = 0
    shift_checked: int = 0
    shift_skipped: int = 0

    def __bool__(self):
        return self.ok


@record
class MConvexReport:
    ok: bool
    witness: Optional[tuple] = None
    checked: int = 0

    def __bool__(self):
        return self.ok


def _box_points(lo, hi):
    """The lattice points of the box [lo, hi], in lex order."""
    return list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))


def _strides(lo, hi):
    """The sides of the box [lo, hi] and the stride of each axis in its flat
    (box order) index: the last axis has stride 1."""
    sides = [h - l + 1 for l, h in zip(lo, hi)]
    strides = [1] * len(sides)
    for k in range(len(sides) - 1, 0, -1):
        strides[k - 1] = strides[k] * sides[k]
    return sides, strides


def _flat_indices(extent, strides):
    """The flat indices, in box order, of the points lo + t with
    0 <= t_k < extent_k."""
    flat = [0]
    for e, s in zip(extent, strides):
        flat = [f + t for f in flat for t in range(0, e * s, s)]
    return flat


def _submodular(lo, hi, vals):
    """First submodularity failure g(x) + g(y) < g(x ∨ y) + g(x ∧ y) on the
    box [lo, hi], whose values ``vals`` are listed in box order.

    A function finite on the whole box is submodular iff every unit square
    is (Topkis 1978; Murota 2003, ch. 7): for each x and axes i < j with
    x + e_i + e_j in the box, the pair (x + e_i, x + e_j).  With strides
    s_k, the square at flat index f in plane (i, j) is (f, f + s_i, f + s_j,
    f + s_i + s_j): one comprehension per plane lists the failing squares.
    The witness is the first failure in box order of x, then (i, j) in
    order, and the count is the number of squares up to it in that order;
    both follow from the planes' lists by bisection.  With an ∞ value
    squares are not enough (on the domain {(0, 2), (2, 0)} no square has
    both diagonal points finite), so the pairs of finite points are checked
    and counted, in box order; a pair with an ∞ member can never fail.
    Returns (count, witness or None).
    """
    if INF in vals:
        pts = _box_points(lo, hi)
        value = dict(zip(pts, vals))
        finite = [(x, v) for x, v in zip(pts, vals) if v != INF]
        checked = 0
        for (x, vx), (y, vy) in itertools.combinations(finite, 2):
            checked += 1
            if vx + vy < value[vjoin(x, y)] + value[vmeet(x, y)]:
                return checked, (x, y)
        return checked, None
    sides, strides = _strides(lo, hi)
    planes = []
    for i, j in itertools.combinations(range(len(sides)), 2):
        si, sj = strides[i], strides[j]
        sij = si + sj
        extent = [s - (k == i or k == j) for k, s in enumerate(sides)]
        squares = _flat_indices(extent, strides)
        failed = [f for f in squares if vals[f + si] + vals[f + sj] < vals[f] + vals[f + sij]]
        planes.append((squares, failed, si, sj))
    first = min(((failed[0], p) for p, (_, failed, _, _) in enumerate(planes) if failed),
                default=None)
    if first is None:
        return sum(len(squares) for squares, *_ in planes), None
    f, p = first
    checked = (sum(bisect_right(squares, f) for squares, *_ in planes[:p + 1])
               + sum(bisect_left(squares, f) for squares, *_ in planes[p + 1:]))
    pts = _box_points(lo, hi)
    si, sj = planes[p][2:]
    return checked, (pts[f + si], pts[f + sj])


def check_lconvex(g: WindowFunction) -> LConvexReport:
    """Submodularity on the box plus a constant all-ones slope.

    The values are read in box order from ``g._box_values()``: the list
    ``fenchel_dual`` computed, or one built from ``g.values`` once.  If g
    is finite on its whole box (always so for ``fenchel_dual`` output),
    submodularity is checked on the unit squares, plane by plane at flat
    strides; otherwise on all pairs of finite box points (see
    ``_submodular``).  Joins and meets of box points stay in the box, so
    the check is complete either way.  The shift pairs (x, x+1) are the
    flat indices f of [lo, hi - 1] and f + sum of the strides, checked in
    one comprehension: both values ∞ passes, one ∞ fails, and every finite
    step must equal the first.
    Shift pairs with x+1 outside the box are skipped and counted, so a
    Valid verdict documents its coverage; on a failure both counts stop at
    the witness, in box order.  The box's points are listed only to name a
    witness.
    """
    vals = g._box_values()
    sub_checked, witness = _submodular(g.lo, g.hi, vals)
    if witness is not None:
        return LConvexReport(False, None, witness, sub_checked, 0, 0)
    sides, strides = _strides(g.lo, g.hi)
    corners = _flat_indices([s - 1 for s in sides], strides)
    shift = sum(strides)
    r = next((vals[f + shift] - vals[f] for f in corners
              if vals[f] != INF and vals[f + shift] != INF), None)
    failed = [c for c, f in enumerate(corners)
              if (vals[f] == INF) != (vals[f + shift] == INF)
              or vals[f] != INF and vals[f + shift] - vals[f] != r]
    if not failed:
        return LConvexReport(True, r, None, sub_checked, len(corners),
                             len(vals) - len(corners))
    c = failed[0]
    f = corners[c]
    pts = _box_points(g.lo, g.hi)
    return LConvexReport(False, None, (pts[f], pts[f + shift]), sub_checked, c + 1, f - c)


def check_mconvex(f: WindowFunction) -> MConvexReport:
    """Exhaustive exchange check over pairs of finite-domain points.

    Exchange targets outside the stored domain count as ∞.
    """
    dom = f.domain()
    checked = 0
    for x in dom:
        for y in dom:
            diff = vsub(x, y)
            for i in range(f.n):
                if diff[i] <= 0:
                    continue
                checked += 1
                feasible = False
                for j in range(f.n):
                    if diff[j] >= 0:
                        continue
                    xm = list(x)
                    xm[i] -= 1
                    xm[j] += 1
                    ym = list(y)
                    ym[i] += 1
                    ym[j] -= 1
                    rhs = f(xm) + f(ym)
                    if rhs != INF and f(x) + f(y) >= rhs:
                        feasible = True
                        break
                if not feasible:
                    return MConvexReport(False, (x, y, i), checked)
    return MConvexReport(True, None, checked)


# ---------------------------------------------------------------------------
# duality

def fenchel_dual(h: WindowFunction, dual_lo, dual_hi) -> WindowFunction:
    """h•(x) = max over the finite domain D of h of x . y - h(y), on the dual box.

    The max is taken one axis at a time, like the separable max-plus
    transform of the window kernel (Lucet 1997).  Start from H_0 = -h on D;
    pass k turns each state (x_0..x_{k-1}; y_k..y_{n-1}) into
    H_{k+1}(x_0..x_k; y_{k+1}..y_{n-1}) = max over y_k of x_k y_k + H_k,
    for every x_k of the dual box, so that after n passes the states are
    the dual points and H_n = h•.  This regroups the same finite max, so it
    is exact in ints.  Pass k visits (dual points on the first k axes) x
    (distinct suffixes of D) states, so it never takes more steps than the
    exhaustive max has products.  Each suffix keeps its values as one list
    over the dual box of the first k axes, in box order, so no state is a
    tuple until the last pass has run.  The last pass's list is h• in box
    order: it becomes the dual through ``WindowFunction._on_box``, and
    ``check_lconvex`` reads it as it is.
    """
    n, lo, hi = _box(h.n, dual_lo, dual_hi)
    # H_k maps each suffix (y_k..y_{n-1}) to its values at the dual points
    # of the first k axes, in box order
    H = {y: [-v] for y, v in h.values.items()}
    for k in range(n):
        xs = range(lo[k], hi[k] + 1)
        children = {}
        for s, col in H.items():
            children.setdefault(s[1:], []).append((s[0], col))
        H = {}
        for rest, pairs in children.items():
            lines = [[x * y + c for c in col for x in xs] for y, col in pairs]
            H[rest] = lines[0] if len(lines) == 1 else list(map(max, *lines))
    return WindowFunction._on_box(n, lo, hi, H[()])


# ---------------------------------------------------------------------------
# local optimality for L-convex oracles

def lconvex_is_minimizer(g_oracle: Callable[[tuple], int], x, n: int) -> bool:
    """Global-minimality test for an L-convex oracle: 2^n + 1 evaluations.

    True iff G(x) <= G(x + e_I) for every I and G(x) = G(x + 1).  L-convexity
    of the oracle is the caller's responsibility; as a guard, submodularity
    is verified on the evaluated cube {x + e_I} with the check of
    ``check_lconvex`` (unit squares if every value is finite).  The
    entries of x are read by ``lattice.as_ints``, and n by ``as_int``.
    """
    x, n = as_ints(x, "x entry"), as_int(n, "n")
    if len(x) != n:
        raise ValueError("x has the wrong length")
    hi = vadd(x, (1,) * n)
    vals = [g_oracle(pt) for pt in itertools.product(*zip(x, hi))]
    if _submodular(x, hi, vals)[1] is not None:
        raise ValueError(f"oracle is not L-convex near {x}")
    base = vals[0]
    if any(val < base for val in vals):
        return False
    return vals[-1] == base
