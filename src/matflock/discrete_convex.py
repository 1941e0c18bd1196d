"""Finite-window M/L-convexity checks and Legendre-Fenchel duality.

Functions live on explicit boxes; every sup over Z^n is replaced by a max
over a finite domain, which is exact whenever the domain of the primal
function is finite (always the case for valuation-derived functions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .lattice import INF, vadd, vjoin, vmeet, vsub
from .valuation import Valuation


class WindowFunction:
    """A map from the lattice points of a box to Z ∪ {∞}.

    Only finite values are stored; lattice points of the box without an
    entry, and everything outside the box, take the value ∞.
    """

    def __init__(self, n: int, lo, hi, values: dict):
        self.n = int(n)
        self.lo = tuple(int(x) for x in lo)
        self.hi = tuple(int(x) for x in hi)
        if len(self.lo) != self.n or len(self.hi) != self.n:
            raise ValueError("box bounds have the wrong length")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty box")
        vals = {}
        for pt, v in values.items():
            pt = tuple(int(x) for x in pt)
            if len(pt) != self.n or not all(
                    l <= x <= h for x, l, h in zip(pt, self.lo, self.hi)):
                raise ValueError(f"point {pt} outside the box")
            if v == INF:
                continue
            vals[pt] = int(v)
        if not vals:
            raise ValueError("empty domain")
        self.values = vals

    def __call__(self, pt):
        return self.values.get(tuple(pt), INF)

    def domain(self):
        return sorted(self.values)

    def in_box(self, pt) -> bool:
        return all(l <= x <= h for x, l, h in zip(pt, self.lo, self.hi))

    def __eq__(self, other):
        return (isinstance(other, WindowFunction) and self.n == other.n
                and self.lo == other.lo and self.hi == other.hi
                and self.values == other.values)

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

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class MConvexReport:
    ok: bool
    witness: Optional[tuple] = None
    checked: int = 0

    def __bool__(self):
        return self.ok


def _box_points(lo, hi):
    """The lattice points of the box [lo, hi], in lex order."""
    return list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))


def _submodular(pts, hi, vals):
    """First submodularity failure g(x) + g(y) < g(x ∨ y) + g(x ∧ y) on a box.

    ``pts`` lists the box points in lex order (``pts[0]`` is the low
    corner, ``hi`` the high one) and ``vals`` the values there.
    A function finite on the whole box is submodular iff every unit square
    is (Topkis 1978; Murota 2003, ch. 7): for each x and axes i < j with
    x + e_i + e_j in the box, the pair (x + e_i, x + e_j) is checked, and
    squares are counted.  With an ∞ value squares are not enough (on the
    domain {(0, 2), (2, 0)} no square has both diagonal points finite), so
    the pairs of finite points are checked and counted, in box order; a
    pair with an ∞ member can never fail.  Returns (count, witness or None).
    """
    if INF in vals:
        value = dict(zip(pts, vals))
        finite = [(x, v) for x, v in zip(pts, vals) if v != INF]
        checked = 0
        for (x, vx), (y, vy) in itertools.combinations(finite, 2):
            checked += 1
            if vx + vy < value[vjoin(x, y)] + value[vmeet(x, y)]:
                return checked, (x, y)
        return checked, None
    n = len(hi)
    strides = [1] * n
    for k in range(n - 1, 0, -1):
        strides[k - 1] = strides[k] * (hi[k] - pts[0][k] + 1)
    checked = 0
    for f, x in enumerate(pts):
        up = [k for k in range(n) if x[k] < hi[k]]
        for a, i in enumerate(up):
            fi = f + strides[i]
            for j in up[a + 1:]:
                fj = f + strides[j]
                checked += 1
                if vals[fi] + vals[fj] < vals[f] + vals[fi + strides[j]]:
                    return checked, (pts[fi], pts[fj])
    return checked, None


def check_lconvex(g: WindowFunction) -> LConvexReport:
    """Submodularity on the box plus a constant all-ones slope.

    If g is finite on its whole box (always so for ``fenchel_dual``
    output), submodularity is checked on the unit squares, in box order;
    otherwise on all pairs of finite box points (see ``_submodular``).
    Joins and meets of box points stay in the box, so the check is
    complete either way.  Shift pairs (x, x+1) with x+1 outside the box are
    skipped and counted, so a Valid verdict documents its coverage.
    """
    pts = _box_points(g.lo, g.hi)
    sub_checked, witness = _submodular(pts, g.hi, [g(x) for x in pts])
    if witness is not None:
        return LConvexReport(False, None, witness, sub_checked, 0, 0)
    r = None
    shift_checked = shift_skipped = 0
    one = (1,) * g.n
    for x in pts:
        xs = vadd(x, one)
        if not g.in_box(xs):
            shift_skipped += 1
            continue
        shift_checked += 1
        a, b = g(x), g(xs)
        if a == INF and b == INF:
            continue
        if (a == INF) != (b == INF):
            return LConvexReport(False, None, (x, xs), sub_checked,
                                 shift_checked, shift_skipped)
        step = b - a
        if r is None:
            r = step
        elif step != r:
            return LConvexReport(False, None, (x, xs), sub_checked,
                                 shift_checked, shift_skipped)
    return LConvexReport(True, r, None, sub_checked, shift_checked, shift_skipped)


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
    """h•(x) = max over the finite domain of h of x . y - h(y)."""
    dom = [(pt, h(pt)) for pt in h.domain()]
    values = {}
    for x in _box_points(dual_lo, dual_hi):
        values[x] = max(sum(a * b for a, b in zip(x, y)) - v for y, v in dom)
    return WindowFunction(h.n, dual_lo, dual_hi, values)


# ---------------------------------------------------------------------------
# local optimality for L-convex oracles

def lconvex_is_minimizer(g_oracle: Callable[[tuple], int], x, n: int) -> bool:
    """Global-minimality test for an L-convex oracle: 2^n + 1 evaluations.

    True iff G(x) <= G(x + e_I) for every I and G(x) = G(x + 1).  L-convexity
    of the oracle is the caller's responsibility; as a guard, submodularity
    is verified on the evaluated cube {x + e_I} with the check of
    ``check_lconvex`` (unit squares if every value is finite).
    """
    x = tuple(int(v) for v in x)
    if len(x) != n:
        raise ValueError("x has the wrong length")
    hi = vadd(x, (1,) * n)
    cube = list(itertools.product(*zip(x, hi)))
    vals = [g_oracle(pt) for pt in cube]
    if _submodular(cube, hi, vals)[1] is not None:
        raise ValueError(f"oracle is not L-convex near {x}")
    base = vals[0]
    if any(val < base for val in vals):
        return False
    return vals[-1] == base
