"""Algebraic matroid representations with computable twist structure.

Two variety classes are implemented exactly:

* toric: the closure of a monomial map given by an integer matrix A whose
  rows generate a saturated lattice; twisting by alpha scales columns by
  p^(-alpha_i), so basis competition is decided by p-adic minor valuations.

* linearized: additive-polynomial parametrizations over GF(p), coordinates
  sums of terms c * x_v^(p^k) with prime-field coefficients; twisting is a
  Frobenius-level shift on coordinates, with domain reparametrizations
  x_v -> x_v^p used to keep everything polynomial.  Their flock is the
  flock of the T-adic valuation of the maximal minors over GF(p)[T].

One walk over the signed maximal minors, behind one cache, gives either
source's Lindström valuation nu and initial coefficients q(B) in GF(p)
(``_lindstrom``): q is the initial form of the valued Plücker vector
(Speyer 2008).  Every later step is one path for both sources: one flock
builder (``_source_flock``), and Frobenius routines that take either.
V_alpha has as Plücker vector q on the argmax family S at alpha, so (FF1)
is the matroid minor axiom with values attached.  A move i keeps the bases
of S that hold i, or those that miss i, or all of them, and signs each by B
and i alone, so two such minors of one q are equal up to a unit exactly
when they keep the same bases: a source's (FF1)/(FF2) check is the flock's
own GF(2) pass over the argmax families (``window._minor_moves``), and q is
read only for a violation's two sides.  Windows given as data have no
common q, and their minors are keyed one distinct space at a time
(``_plucker_keys``).  A space's RREF rows are built only for a window's
table and for the two sides of a violation.  Shifted tangent spaces
(``linearized_tangent_flock``) remain as the independent route.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from . import linalg
from .lattice import INF, as_int, as_ints
from .matroid import GF, GroundSet, Matroid, _write, matroid_from_matrix, positional_ground, record
from .valuation import Valuation, _check_alpha, matroid_at, optimal_masks

if TYPE_CHECKING:       # annotations only: each flock builder imports the class
    from .flock import MatroidFlock


class DegenerateParametrization(ValueError):
    """Tangent rank dropped below the generic rank: the base point is not general."""


# ---------------------------------------------------------------------------
# toric representations

def saturate_lattice(rows):
    """Integer basis of rowspace_Q(rows) ∩ Z^E, rank preserved."""
    return linalg.saturate_rows(rows)


def padic_minor_valuation(rows, cols, p: int, ground=None):
    """val_p(det A_B) for the column subset B = ``cols``; ∞ when the minor
    vanishes.  ``ground`` labels the columns in order (1 .. n by default)
    and must be sorted; B is read through ``GroundSet.mask_of``."""
    p = linalg.as_prime(p)
    A = linalg.as_rat_matrix(rows)
    n = len(A[0]) if A else 0
    ground = positional_ground(range(1, n + 1) if ground is None else ground, n, "column")
    mask = GroundSet(ground).mask_of(cols)
    picks = [j for j in range(n) if mask >> j & 1]
    if len(picks) != len(A):
        raise ValueError("column subset size differs from the row count")
    sub = [[row[j] for j in picks] for row in A]
    det = linalg.det_frac(sub)
    return INF if det == 0 else linalg.val_p(det, p)


@record
class ToricRep:
    """A saturated integer d x n matrix together with a prime p."""
    A: tuple
    p: int
    ground: tuple = ()

    def __post_init__(self):
        A = linalg.as_int_matrix(self.A)
        _write(self, "A", A)
        _write(self, "p", linalg.as_prime(self.p))
        if not A:
            raise ValueError("empty matrix")
        n = len(A[0])
        _write(self, "ground", positional_ground(self.ground or range(1, n + 1), n, "column"))
        if linalg.rat_rank(A) != len(A):
            raise ValueError("matrix does not have full row rank")
        if not linalg.is_saturated(A):
            raise ValueError(
                "rows do not generate a saturated lattice; apply saturate_lattice")

    @property
    def d(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])


def lindstrom_toric(rep: ToricRep) -> Valuation:
    """The valuation B -> val_p(det A_B) over all d-subsets of columns.

    Saturation guarantees some minor is a p-adic unit, so the minimum value
    is 0 and the support matroid is the column matroid of A over Q.
    """
    return _lindstrom(rep)[0]


def toric_matroid_at(rep: ToricRep, alpha) -> Matroid:
    """Bases minimizing val_p(det A_B) - e_B . alpha (column scaling by p^-alpha)."""
    return matroid_at(lindstrom_toric(rep), alpha)


def flock_from_toric(rep: ToricRep) -> MatroidFlock:
    """The flock of the p-adic Lindström valuation of A (``_source_flock``)."""
    return _source_flock(rep)


# ---------------------------------------------------------------------------
# linearized (additive-polynomial) representations

@record
class LinearizedParam:
    """An additive parametrization: coordinate i is sum of c * x_v^(p^k).

    Coefficients live in the prime field GF(p), so inverse Frobenius fixes
    them and all twist mechanics reduce to shifting the exponents k.  A
    record, so it can key ``_lindstrom_cache``; p, m and the terms' (v, k,
    c) are read by ``lattice.as_ints``.
    """
    p: int
    m: int
    coords: tuple
    ground: Optional[tuple] = None

    def __post_init__(self):
        p, m = linalg.as_prime(self.p), as_int(self.m, "m")
        canon = []
        for i, terms in enumerate(self.coords):
            seen = {}
            what = f"coordinate {i}: term entry"
            for term in terms:
                v, k, c = as_ints(term, what)
                c %= p
                if not 0 <= v < m:
                    raise ValueError(f"coordinate {i}: parameter index {v} out of range")
                if k < 0:
                    raise ValueError(f"coordinate {i}: negative Frobenius level")
                if c == 0:
                    raise ValueError(f"coordinate {i}: zero coefficient")
                if (v, k) in seen:
                    raise ValueError(f"coordinate {i}: duplicate term for (v={v}, k={k})")
                seen[(v, k)] = c
            if not seen:
                raise ValueError(f"coordinate {i} has no terms")
            canon.append(tuple(sorted((v, k, c) for (v, k), c in seen.items())))
        if not canon:
            raise ValueError("no coordinates: empty ground set")
        ground = positional_ground(range(1, len(canon) + 1) if self.ground is None
                                   else self.ground, len(canon), "coordinate")
        for name, value in (("p", p), ("m", m), ("coords", tuple(canon)), ("ground", ground)):
            _write(self, name, value)

    @property
    def n(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return f"LinearizedParam(p={self.p}, m={self.m}, n={len(self.coords)})"


def linearized_shift(param: LinearizedParam, alpha) -> LinearizedParam:
    """Apply F^(-alpha_i) to coordinate i, as a new additive parametrization.

    Term (v, k) of coordinate i moves to level k - alpha_i.  The global
    reparametrization x_v -> x_v^(p^s) leaves the image variety unchanged
    and adds s to every level of v, so each variable's levels are then
    moved to start at 0: the result is polynomial, and normalized, so
    shifting by 1 and then -1 is the identity.
    """
    alpha = _check_alpha(param, alpha)
    low: dict[int, int] = {}
    for a, terms in zip(alpha, param.coords):
        for (v, k, _) in terms:
            low[v] = min(low.get(v, k - a), k - a)
    coords = [[(v, k - a - low[v], c) for (v, k, c) in terms]
              for a, terms in zip(alpha, param.coords)]
    return LinearizedParam(param.p, param.m, coords, param.ground)


def linearized_tangent(param: LinearizedParam):
    """The Jacobian at the origin: coefficient of the level-0 term per (v, i)."""
    rows = []
    for v in range(param.m):
        row = [0] * param.n
        for i, terms in enumerate(param.coords):
            for (tv, k, c) in terms:
                if tv == v and k == 0:
                    row[i] = c
        rows.append(tuple(row))
    return tuple(rows)


_MAX_COEFFICIENTS = 1 << 16     # of a parametrization's matrix over GF(p)[T]


def _param_polymatrix(param: LinearizedParam):
    """The m x n matrix over GF(p)[T]: entry (v, i) collects coordinate i's
    terms in variable v, with T recording the Frobenius level.  An entry of
    level k holds k + 1 coefficients; a matrix that would hold more than
    ``_MAX_COEFFICIENTS`` is refused (ValueError) before it is built."""
    entries = [[{k: c for (tv, k, c) in terms if tv == v} for terms in param.coords]
               for v in range(param.m)]
    count = sum(max(entry, default=-1) + 1 for row in entries for entry in row)
    if count > _MAX_COEFFICIENTS:
        top = max(k for terms in param.coords for _, k, _ in terms)
        raise ValueError(f"Frobenius level {top} needs {count} polynomial "
                         f"coefficients, more than the {_MAX_COEFFICIENTS} allowed")
    return [[tuple(entry.get(k, 0) for k in range(max(entry, default=-1) + 1))
             for entry in row] for row in entries]


def generic_rank(param: LinearizedParam) -> int:
    """Rank of the parametrization over GF(p)(T), T standing for Frobenius.

    Prime-field coefficients commute with Frobenius, so each coordinate is a
    column of univariate polynomials and algebraic independence matches
    linear independence of columns.
    """
    return linalg.polymat_rank(_param_polymatrix(param), param.p)


def linearized_support_matroid(param: LinearizedParam) -> Matroid:
    """Column matroid over GF(p)(T): the matroid the parametrization represents."""
    return Matroid(param.ground, tadic_valuation(param).finite)


# FIFO: dicts keep insertion order, so the first key is the oldest entry
_LINDSTROM_CACHE_CAP = 32
_lindstrom_cache: dict[ToricRep | LinearizedParam, tuple[Valuation, dict[int, int]]] = {}


def _lindstrom(rep: ToricRep | LinearizedParam):
    """(nu, q) from one walk over the maximal minors: A's over Z read
    p-adically, or the parametrization's over GF(p)[T] read T-adically
    (the ring's ``initial``).  nu(B) is the valuation of B's minor shifted
    to minimum 0, q[B] its initial coefficient.  The minors carry their
    Plücker signs and are exact up to one common factor, so q is the
    initial Plücker vector up to one unit of GF(p)."""
    got = _lindstrom_cache.get(rep)
    if got is not None:
        return got
    if isinstance(rep, ToricRep):
        rows, ring = rep.A, linalg._ZZ
    else:
        rows, ring = _param_polymatrix(rep), linalg._PolyRing(rep.p)
    initial, p = ring.initial, rep.p
    finite, q = {}, {}
    for mask, minor in linalg._maximal_minors(rows, ring):
        finite[mask], q[mask] = initial(minor, p)
    low = min(finite.values())
    nu = Valuation(rep.ground, next(iter(finite)).bit_count(),
                   {mask: v - low for mask, v in finite.items()} if low else finite)
    if len(_lindstrom_cache) >= _LINDSTROM_CACHE_CAP:
        del _lindstrom_cache[next(iter(_lindstrom_cache))]
    _lindstrom_cache[rep] = nu, q
    return nu, q


def tadic_valuation(param: LinearizedParam) -> Valuation:
    """The valuation B -> val_T(det) of the maximal minors over GF(p)[T].

    Prime-field coefficients commute with Frobenius, so this valuation
    describes the flock of the parametrization (Lindström's valuation).
    The minor walk drops dependent rows of the polynomial matrix; its
    minors then share one common factor, which the shift to minimum 0
    removes.
    """
    return _lindstrom(param)[0]


def _saturated_tangent(param: LinearizedParam, d: int):
    """Tangent rows at 0 via saturation of the GF(p)[T] row module at (T).

    The plain level-0 Jacobian misses tangent directions when the
    parametrization is inseparable.  Replacing GF(p)-combinations of rows
    whose constant terms vanish by their quotient under T strictly lowers
    total degree and terminates with an evaluation of full rank d, which
    spans the true tangent space of the image.  Any d rows spanning the row
    space over GF(p)(T) saturate to the same module, so the start is the
    fraction-free elimination's rows with their common powers of T divided out."""
    p = param.p
    red, pivots, _ = linalg._bareiss(_param_polymatrix(param), linalg._PolyRing(p))
    kept = [_t_primitive(row) for row in red[:len(pivots)]]
    if len(kept) != d:
        raise DegenerateParametrization(
            f"row space rank {len(kept)} differs from generic rank {d}")

    while True:
        evals = [[(poly[0] if poly else 0) for poly in row] for row in kept]
        if linalg.gf_rank(evals, p) == d:
            return tuple(tuple(x % p for x in row) for row in evals)
        # a GF(p) combination with zero constant term: divide out its power of T
        aug = [list(ev) + [int(i == k) for k in range(d)]
               for i, ev in enumerate(evals)]
        red, pivots = linalg.gf_rref(aug, p)
        combo = next(row[param.n:] for row in red
                     if not any(row[:param.n]) and any(row[param.n:]))
        vec = [()] * param.n
        for i, c in enumerate(combo):
            if c:
                vec = [linalg.poly_add(a, linalg.poly_scale(b, c, p), p)
                       for a, b in zip(vec, kept[i])]
        if not any(vec) or any(poly and poly[0] for poly in vec):
            raise DegenerateParametrization("saturation at (T) failed")
        kept[next(i for i, c in enumerate(combo) if c)] = _t_primitive(vec)


def _t_primitive(vec):
    """A nonzero polynomial vector divided by the largest power of T dividing it."""
    k = min(next(i for i, c in enumerate(poly) if c) for poly in vec if poly)
    return [poly[k:] for poly in vec]


def _tangent_at(param: LinearizedParam, alpha, d: int):
    """Tangent rows over GF(p) of the parametrization shifted by alpha.

    The level-0 Jacobian is used when it already reaches the generic rank
    d; rank drops (inseparable shifts) are rescued by saturating the
    GF(p)[T] row module at (T).
    """
    shifted = linearized_shift(param, alpha)
    tan = linearized_tangent(shifted)
    if linalg.gf_rank(tan, param.p) != d:
        tan = _saturated_tangent(shifted, d)
    return tan


def flock_from_linearized(param: LinearizedParam) -> MatroidFlock:
    """The flock of the T-adic Lindström valuation (``_source_flock``);
    ``linearized_tangent_flock`` computes it point by point from tangents."""
    return _source_flock(param)


def _source_flock(source: ToricRep | LinearizedParam) -> MatroidFlock:
    """alpha -> M^nu_alpha for either source, nu its Lindström valuation:
    valuation-backed, so its windows are scored by the vectorized kernel."""
    from .flock import MatroidFlock
    nu = _lindstrom(source)[0]
    return MatroidFlock(source.ground, nu.d, lambda a: optimal_masks(nu, a),
                        "toric" if isinstance(source, ToricRep) else "linearized",
                        valuation=nu)


def linearized_tangent_flock(param: LinearizedParam) -> MatroidFlock:
    """The flock alpha -> column matroid over GF(p) of the shifted tangent.

    A parametrization the saturation rescue cannot bring to rank d is
    degenerate: the base point 0 is not general.
    """
    from .flock import MatroidFlock
    d = generic_rank(param)
    return MatroidFlock(
        param.ground, d,
        lambda a: matroid_from_matrix(_tangent_at(param, a, d), GF(param.p),
                                      param.ground).masks,
        "linearized")


# ---------------------------------------------------------------------------
# Frobenius flock windows over GF(p)

@record
class FrobeniusFlockWindow:
    """Row spaces V_alpha of a Frobenius flock over a box, as matrices over GF(p)."""
    radius: int
    p: int
    d: int
    ground: tuple
    table: dict


@record
class FrobeniusWindowReport:
    """(FF1)/(FF2) counts over [-radius, radius]^E, the box of checked alphas."""
    radius: int
    ff1_checked: int = 0
    ff1_failed: int = 0
    ff2_checked: int = 0
    ff2_failed: int = 0
    violation: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.ff1_failed == 0 and self.ff2_failed == 0

    def __bool__(self):
        return self.ok


def frobenius_window(source: ToricRep | LinearizedParam, radius: int) -> FrobeniusFlockWindow:
    """The row spaces V_alpha of either source over [-radius, radius]^E,
    keyed by alpha.  V_alpha, the reduction at p (toric) or T = 0
    (linearized) of the row lattice twisted by alpha, has as Plücker vector
    the initial form of the valued one (Speyer 2008): q(B), the lowest
    coefficient of B's signed minor, on the argmax family at alpha and 0
    off it.  So the spaces are read off the Lindström valuation's scored
    grid, one per id, and distinct ids hold distinct spaces."""
    from . import window
    radius = as_int(radius, "radius", 0)
    nu, q = _lindstrom(source)
    grid, masks, words = window._scored_grid(nu.finite_items(), source.n, -radius, radius)
    spaces = [_plucker_rref({B: q[B] for B in family}, source.n, source.p)
              for family in window._families(masks, words)]
    points = itertools.product(range(-radius, radius + 1), repeat=source.n)
    table = dict(zip(points, map(spaces.__getitem__, grid.ravel().tolist())))
    return FrobeniusFlockWindow(radius, source.p, nu.d, source.ground, table)


def _plucker_rref(vector, n: int, p: int):
    """The RREF of the space over GF(p)^n whose Plücker vector is
    ``vector``, a dict {basis mask: nonzero value} up to one unit.

    B0 = min(vector) is the lex-first basis, the pivot columns of the RREF.
    By Cramer's rule the row at b in B0 holds 1 at b and, at j outside B0,
    q(B0 - b + j) / q(B0) (0 when B0 - b + j is no basis), negated once per
    element of B0 strictly between b and j.  It is 0 left of b, where
    B0 - b + j would precede B0, so these rows are the RREF.
    """
    B0 = min(vector)
    inv = pow(vector[B0], -1, p)
    rows = []
    for b in range(n):
        if not B0 >> b & 1:
            continue
        rest = B0 & ~(1 << b)
        row = [0] * n
        row[b] = 1
        for j in range(b + 1, n):
            x = vector.get(rest | 1 << j)
            if x:
                between = B0 >> b + 1 & (1 << j - b - 1) - 1
                row[j] = (-x if between.bit_count() & 1 else x) * inv % p
        rows.append(tuple(row))
    return tuple(rows)


def _plucker_minor(vector, i: int, contract: bool, p: int):
    """The Plücker vector of V / i (``contract``) or V \\ i on the other
    elements, in order: the values at the bases that hold i (contraction)
    or miss i (deletion), at all of them when none do, each B projected to
    B - i and its value negated when i lies above an odd number of B's
    elements.  This builds the two sides of a violation and, scaled, the
    keys of ``_plucker_keys``; on a source's grid every space has one q, so
    the bases kept decide the minor and ``window._minor_moves`` keys them."""
    kept = [B for B in vector if bool(B >> i & 1) == contract] or list(vector)
    low = (1 << i) - 1
    return {B & low | B >> i + 1 << i:
            -vector[B] % p if B >> i & 1 and (B & low).bit_count() & 1 else vector[B]
            for B in kept}


def validate_frobenius_window(win: FrobeniusFlockWindow,
                              box_radius: Optional[int] = None) -> FrobeniusWindowReport:
    """Check (FF1) and (FF2) at every alpha whose shifted points are in the table.

    The checked alphas are those of [-r, r]^E, where r is ``box_radius``
    capped at win.radius (win.radius by default); each check compares
    V_alpha with V_{alpha + e_I}, so the table is read on
    [-r, min(r + 1, win.radius)]^E only and must cover that box, with rows
    of one entry per ground element (ValueError otherwise); a window of
    radius 0 checks nothing and is refused.  The record checks none of its
    fields, so win.radius and win.p are read here, by ``lattice.as_int``
    and ``linalg.as_prime`` (ValueError unless a nonnegative integer and a
    prime).  Each distinct
    entry's Plücker vector comes from one walk over its minors, scaled to 1
    at its least basis, so equal spaces share an id, and its minors are
    keyed once (``_plucker_keys``); the violation is the one at the
    lex-first failing alpha, (FF1) in ground order first.
    """
    from . import window
    p, R, n = linalg.as_prime(win.p), as_int(win.radius, "radius", 0), len(win.ground)
    radius = as_int(R if box_radius is None else min(as_int(box_radius, "box_radius"), R),
                    "radius", 0)
    if R == 0:
        raise ValueError("a window of radius 0 checks nothing: no alpha has its shift in it")
    canon: dict[tuple, tuple] = {}

    def vector_at(alpha):
        if alpha not in win.table:
            raise ValueError(f"the window table has no row space at alpha={alpha}")
        rows = tuple(map(tuple, win.table[alpha]))
        if rows not in canon:
            wrong = {len(row) for row in rows} - {n}
            if wrong:
                raise ValueError(f"the row space at alpha={alpha} has a row of "
                                 f"length {min(wrong)}, not {n}")
            canon[rows] = _scaled(dict(linalg._maximal_minors(rows, linalg._PrimeField(p))), p)
        return canon[rows]

    grid, vectors = window._id_grid(n, -radius, min(radius + 1, R), vector_at)
    keys = _plucker_keys([dict(vector) for vector in vectors], n, p)
    moves = [((k,), keys[0, k], keys[1, k]) for k in range(n)]
    counts, first = window._local_axioms(grid, radius, [*moves, (tuple(range(n)), None, None)])
    return _frobenius_report(counts, first, lambda a: dict(vector_at(a)), radius, win.ground, p)


def _scaled(vector, p: int) -> tuple:
    """The items of a Plücker vector {basis mask: value}, sorted, over the
    value at its least basis: equal for two vectors of one space."""
    inv = pow(vector[min(vector)], -1, p)
    return tuple((B, x * inv % p) for B, x in sorted(vector.items()))


def _plucker_keys(vectors, n: int, p: int):
    """The (FF1) keys of the spaces with Plücker vectors ``vectors`` (dicts
    {basis mask: nonzero value}, of any scale and rank) for
    ``window._local_axioms``, as a (side, element, id, 1) uint64 array:
    side 0 keys V / i and side 1 V \\ i, each ``_plucker_minor`` scaled and
    numbered in one table, so equal keys are equal spaces."""
    import numpy as np
    seen: dict = {}
    keys = np.empty((2, n, len(vectors), 1), dtype=np.uint64)
    for k, vector in enumerate(vectors):
        for i in range(n):
            for side in (0, 1):
                key = _scaled(_plucker_minor(vector, i, not side, p), p)
                keys[side, i, k] = seen.setdefault(key, len(seen))
    return keys


def _frobenius_report(counts, first, vector_at, radius: int, ground,
                      p: int) -> FrobeniusWindowReport:
    """The report over [-radius, radius]^E of ``window._local_axioms``'s
    ``counts`` and ``first`` (alpha, move index) for the (FF1) moves, one
    per element in ground order, then the all-ones shift (FF2).  The
    violation's two sides are read by ``vector_at``, the Plücker vector of
    V_alpha, at alpha and at alpha + e_k (alpha + 1 for the shift)."""
    n = len(ground)
    violation = None
    if first is not None:
        alpha, k = first
        left, right = (vector_at(at) for at in
                       (alpha, tuple(a + (i == k or k == n) for i, a in enumerate(alpha))))
        if k < n:
            left, right = _plucker_minor(left, k, True, p), _plucker_minor(right, k, False, p)
        violation = (alpha, ground[k] if k < n else "1",
                     *(_plucker_rref(side, n - (k < n), p) for side in (left, right)))
    return FrobeniusWindowReport(radius, sum(c for c, _ in counts[:n]),
                                 sum(f for _, f in counts[:n]), *counts[n], violation)


def check_frobenius_axioms(source: ToricRep | LinearizedParam, radius: int) -> FrobeniusWindowReport:
    """(FF1)/(FF2) of either source for all alpha in [-radius, radius]^E.

    They are the (MF1)/(MF2) moves of its flock on the argmax families of
    its Lindström valuation's scored grid over [-radius, radius + 1]^E, the
    box the checks compare, keyed by the flock's own minor keys:
    ``window._move_verdicts`` runs them once per remembered box, so after a
    check of the source's flock at a radius >= ``radius`` every verdict is
    read back and nothing is scanned.  A violation's sides are q on
    ``optimal_masks``; no row space is built unless a check fails."""
    from . import window
    radius = as_int(radius, "radius", 0)
    nu, q = _lindstrom(source)
    n = source.n
    counts, first = window._move_verdicts(nu.finite_items(), n, radius,
                                          [(k,) for k in range(n)] + [None])
    return _frobenius_report(counts, first, lambda a: {B: q[B] for B in optimal_masks(nu, a)},
                             radius, source.ground, source.p)
