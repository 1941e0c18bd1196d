"""Algebraic matroid representations with computable twist structure.

Two variety classes are implemented exactly:

* toric: the closure of a monomial map given by an integer matrix A whose
  rows generate a saturated lattice; twisting by alpha scales columns by
  p^(-alpha_i), so basis competition is decided by p-adic minor valuations.

* linearized: additive-polynomial parametrizations over GF(p), coordinates
  sums of terms c * x_v^(p^k) with prime-field coefficients; twisting is a
  Frobenius-level shift on coordinates, with domain reparametrizations
  x_v -> x_v^p used to keep everything polynomial.  Their flock is the
  flock of the T-adic valuation of the maximal minors over GF(p)[T], and
  their Frobenius flock V_alpha is built from the lowest coefficients of
  the same minors, one space per distinct matroid.  Shifted tangent spaces
  (``linearized_tangent_flock``) remain as the independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg, window
from .lattice import INF
from .matroid import GF, Matroid, matroid_from_matrix
from .valuation import Valuation, matroid_at, optimal_masks
from .flock import MatroidFlock, _id_grid, _local_axioms, _same


class DegenerateParametrization(ValueError):
    """Tangent rank dropped below the generic rank: the base point is not general."""


# ---------------------------------------------------------------------------
# toric representations

def saturate_lattice(rows):
    """Integer basis of rowspace_Q(rows) ∩ Z^E, rank preserved."""
    return linalg.saturate_rows(rows)


def padic_minor_valuation(rows, cols, p: int, ground=None):
    """val_p(det A_B) for the column subset B; ∞ when the minor vanishes."""
    if not linalg.is_prime(p):
        raise ValueError(f"{p} is not prime")
    A = linalg.as_rat_matrix(rows)
    n = len(A[0]) if A else 0
    if ground is None:
        ground = tuple(range(1, n + 1))
    ground = tuple(ground)
    index = {e: i for i, e in enumerate(ground)}
    try:
        picks = sorted(index[c] for c in cols)
    except KeyError as exc:
        raise ValueError(f"unknown column {exc.args[0]!r}") from None
    if len(picks) != len(A):
        raise ValueError("column subset size differs from the row count")
    sub = [[row[j] for j in picks] for row in A]
    det = linalg.det_frac(sub)
    return INF if det == 0 else linalg.val_p(det, p)


@dataclass(frozen=True)
class ToricRep:
    """A saturated integer d x n matrix together with a prime p."""
    A: tuple
    p: int
    ground: tuple = ()

    def __post_init__(self):
        A = linalg.as_int_matrix(self.A)
        object.__setattr__(self, "A", A)
        if not linalg.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        n = len(A[0]) if A else 0
        ground = self.ground or tuple(range(1, n + 1))
        if len(ground) != n:
            raise ValueError("ground size does not match column count")
        if tuple(sorted(ground)) != tuple(ground):
            raise ValueError("ground must be sorted (columns align positionally)")
        object.__setattr__(self, "ground", tuple(ground))
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


# FIFO: dicts keep insertion order, so the first key is the oldest entry
_LINDSTROM_CACHE_CAP = 32
_lindstrom_cache: dict[ToricRep, Valuation] = {}


def lindstrom_toric(rep: ToricRep) -> Valuation:
    """The valuation B -> val_p(det A_B) over all d-subsets of columns.

    Saturation guarantees some minor is a p-adic unit, so the minimum value
    is 0 and the support matroid is the column matroid of A over Q.
    """
    got = _lindstrom_cache.get(rep)
    if got is not None:
        return got
    finite = {mask: linalg.val_p_int(minor, rep.p)
              for mask, minor in linalg._maximal_minors(rep.A, linalg._ZZ)}
    nu = Valuation(rep.ground, rep.d, finite)
    if len(_lindstrom_cache) >= _LINDSTROM_CACHE_CAP:
        del _lindstrom_cache[next(iter(_lindstrom_cache))]
    _lindstrom_cache[rep] = nu
    return nu


def toric_matroid_at(rep: ToricRep, alpha) -> Matroid:
    """Bases minimizing val_p(det A_B) - e_B . alpha (column scaling by p^-alpha)."""
    return matroid_at(lindstrom_toric(rep), alpha)


def flock_from_toric(rep: ToricRep) -> MatroidFlock:
    nu = lindstrom_toric(rep)
    return MatroidFlock(rep.ground, rep.d, lambda a: optimal_masks(nu, a),
                        "toric", valuation=nu)


# ---------------------------------------------------------------------------
# linearized (additive-polynomial) representations

class LinearizedParam:
    """An additive parametrization: coordinate i is sum of c * x_v^(p^k).

    Coefficients live in the prime field GF(p), so inverse Frobenius fixes
    them and all twist mechanics reduce to shifting the exponents k.
    """

    def __init__(self, p: int, m: int, coords, ground=None):
        if not linalg.is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.m = int(m)
        canon = []
        for i, terms in enumerate(coords):
            seen = {}
            for (v, k, c) in terms:
                v, k, c = int(v), int(k), int(c) % p
                if not 0 <= v < self.m:
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
        self.coords = tuple(canon)
        n = len(self.coords)
        self.ground = tuple(ground) if ground is not None else tuple(range(1, n + 1))
        if len(self.ground) != n:
            raise ValueError("ground size does not match coordinate count")
        if tuple(sorted(self.ground)) != self.ground:
            raise ValueError("ground must be sorted (coordinates align positionally)")

    @property
    def n(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return (isinstance(other, LinearizedParam) and self.p == other.p
                and self.m == other.m and self.coords == other.coords
                and self.ground == other.ground)

    def __hash__(self):
        return hash((self.p, self.m, self.coords, self.ground))

    def __repr__(self):
        return f"LinearizedParam(p={self.p}, m={self.m}, n={self.n})"


def linearized_shift(param: LinearizedParam, alpha) -> LinearizedParam:
    """Apply F^(-alpha_i) to coordinate i, as a new additive parametrization.

    Term (v, k) of coordinate i moves to level k - alpha_i.  The global
    reparametrization x_v -> x_v^(p^s) leaves the image variety unchanged
    and adds s to every level of v, so each variable's levels are then
    moved to start at 0: the result is polynomial, and normalized, so
    shifting by 1 and then -1 is the identity.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != param.n:
        raise ValueError("alpha has the wrong length")
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


def _param_polymatrix(param: LinearizedParam):
    """The m x n matrix over GF(p)[T]: entry (v, i) collects coordinate i's
    terms in variable v, with T recording the Frobenius level."""
    mat = []
    for v in range(param.m):
        row = []
        for terms in param.coords:
            coeffs = {k: c for (tv, k, c) in terms if tv == v}
            deg = max(coeffs, default=-1)
            row.append(tuple(coeffs.get(k, 0) for k in range(deg + 1)))
        mat.append(row)
    return mat


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


def tadic_valuation(param: LinearizedParam) -> Valuation:
    """The valuation B -> val_T(det) of the maximal minors over GF(p)[T].

    Prime-field coefficients commute with Frobenius, so this valuation
    describes the flock of the parametrization (Lindström's valuation).
    The minor walk drops dependent rows of the polynomial matrix; its
    minors then share one common factor, which the normalization to
    minimum 0 removes.
    """
    finite = {mask: next(k for k, c in enumerate(minor) if c)
              for mask, minor in linalg._maximal_minors(_param_polymatrix(param),
                                                        linalg._PolyRing(param.p))}
    return Valuation(param.ground, next(iter(finite)).bit_count(), finite).normalized()


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
    """The flock alpha -> M^nu_alpha of the parametrization, nu its T-adic valuation.

    Being valuation-backed, its windows are scored by the vectorized kernel;
    ``linearized_tangent_flock`` computes the same flock point by point from
    tangent spaces.
    """
    nu = tadic_valuation(param)
    return MatroidFlock(param.ground, nu.d, lambda a: optimal_masks(nu, a),
                        "linearized", valuation=nu)


def linearized_tangent_flock(param: LinearizedParam) -> MatroidFlock:
    """The flock alpha -> column matroid over GF(p) of the shifted tangent.

    A parametrization the saturation rescue cannot bring to rank d is
    degenerate: the base point 0 is not general.
    """
    d = generic_rank(param)
    return MatroidFlock(
        param.ground, d,
        lambda a: matroid_from_matrix(_tangent_at(param, a, d), GF(param.p),
                                      param.ground).masks,
        "linearized")


# ---------------------------------------------------------------------------
# Frobenius flock windows over GF(p)

@dataclass(frozen=True)
class FrobeniusFlockWindow:
    """Row spaces V_alpha of a Frobenius flock over a box, as matrices over GF(p)."""
    radius: int
    p: int
    d: int
    ground: tuple
    table: dict


@dataclass(frozen=True)
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


def frobenius_window(param: LinearizedParam, radius: int) -> FrobeniusFlockWindow:
    """The row spaces V_alpha over [-radius, radius]^E, one per distinct matroid.

    V_alpha, the T = 0 reduction of the row lattice of P * diag(T^-alpha),
    has as Plücker vector the initial form of the T-adic one (Speyer 2008),
    so it depends only on the argmax family S at alpha.  With B0 = min(S),
    entry (r, j) of the tableau delta * P_B0^-1 * P is a Plücker ratio, and
    V_S keeps its lowest coefficient over delta's where B0 - b_r + j is in S.
    """
    return _frobenius_window(param, radius, -radius)


def _frobenius_window(param: LinearizedParam, radius: int, lo: int) -> FrobeniusFlockWindow:
    """``frobenius_window`` with the table held on [lo, radius]^E only."""
    nu = tadic_valuation(param)
    n, p = param.n, param.p
    points = window.box_array([lo] * n, [radius] * n)
    ids, families = window.score_ids(nu.finite_items(), n, points)
    P = _param_polymatrix(param)
    spaces = []
    for S in families:
        B0 = min(S)
        order = sorted(range(n), key=lambda j: not B0 >> j & 1)
        M, pivots, _ = linalg._bareiss([[row[j] for j in order] for row in P],
                                       linalg._PolyRing(p))
        inv = pow(next(c for c in M[0][0] if c), -1, p)   # lowest coefficient of delta
        rows = []
        for r, b in enumerate(order[:len(pivots)]):
            row = [0] * n
            for pos, j in enumerate(order):
                if (B0 & ~(1 << b)) | 1 << j in S:
                    row[j] = next(c for c in M[r][pos] if c) * inv % p
            rows.append(row)
        spaces.append(linalg.gf_row_space(rows, p))
    table = {alpha: spaces[k] for alpha, k in zip(map(tuple, points.tolist()), ids.tolist())}
    return FrobeniusFlockWindow(radius, p, nu.d, param.ground, table)


def _space_delete(rows, i: int, p: int):
    cut = [row[:i] + row[i + 1:] for row in rows]
    return linalg.gf_row_space(cut, p)


def _space_contract(rows, i: int, p: int):
    """Row space of {w in V : w_i = 0}, coordinate i dropped: in the RREF
    with column i first, the nonzero rows after the one pivoting there,
    which are in RREF themselves."""
    red, pivots = linalg.gf_rref([[row[i], *row[:i], *row[i + 1:]] for row in rows], p)
    first = 1 if pivots[:1] == [0] else 0
    return tuple(row[1:] for row in red[first:len(pivots)])


def validate_frobenius_window(win: FrobeniusFlockWindow,
                              box_radius: Optional[int] = None) -> FrobeniusWindowReport:
    """Check (FF1) and (FF2) at every alpha whose shifted points are in the table.

    The checked alphas are those of [-r, r]^E, where r is ``box_radius``
    capped at win.radius (win.radius by default); each check compares
    V_alpha with V_{alpha + e_I}, so the table is read on
    [-r, min(r + 1, win.radius)]^E only and must cover that box (ValueError
    otherwise).  Each side of a check is computed once per distinct row
    space; the violation is the one at the lex-first failing alpha, (FF1)
    in ground order before (FF2) at the same alpha.
    """
    p, R, n = win.p, win.radius, len(win.ground)
    radius = R if box_radius is None else min(box_radius, R)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    canon: dict[tuple, tuple] = {}

    def space_at(alpha):
        if alpha not in win.table:
            raise ValueError(f"the window table has no row space at alpha={alpha}")
        rows = tuple(map(tuple, win.table[alpha]))
        if rows not in canon:
            canon[rows] = linalg.gf_row_space(rows, p)
        return canon[rows]

    grid, spaces = _id_grid(n, -radius, min(radius + 1, R), space_at)

    def sides(k, a, b):
        """The two spaces (FF1) at axis k, or (FF2) for k = n, compares."""
        if k == n:
            return spaces[a], spaces[b]
        return _space_contract(spaces[a], k, p), _space_delete(spaces[b], k, p)

    moves = [((k,), lambda i, k=k: _space_contract(spaces[i], k, p),
              lambda i, k=k: _space_delete(spaces[i], k, p)) for k in range(n)]
    moves.append((tuple(range(n)), _same, _same))
    counts, first = _local_axioms(grid, radius, moves)
    violation = None
    if first is not None:
        alpha, k, a, b = first
        violation = (alpha, win.ground[k] if k < n else "1", *sides(k, a, b))
    return FrobeniusWindowReport(radius, sum(c for c, _ in counts[:n]),
                                 sum(f for _, f in counts[:n]), *counts[n], violation)


def check_frobenius_axioms(param: LinearizedParam, radius: int) -> FrobeniusWindowReport:
    """(FF1)/(FF2) for all alpha in [-radius, radius]^E.

    The row spaces are computed on [-radius, radius + 1]^E only, the box
    the checks read.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    win = _frobenius_window(param, radius + 1, -radius)
    return validate_frobenius_window(win, box_radius=radius)
