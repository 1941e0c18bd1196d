"""Exact linear algebra: integers, rationals, GF(p), and GF(p)[T].

Everything here is exact; no floating point.  Ranks, determinants and
reduced row echelon forms over Q, GF(p) and GF(p)[T] all come from one
routine, fraction-free Bareiss elimination over an integral domain
(``_bareiss``); rational matrices are cleared of denominators row by row
first, so ``Fraction`` appears only in the final division of an RREF.
Every enumeration of maximal minors is one walk over that routine's
tableau (``_maximal_minors``); a lattice is saturated when the gcd of the
maximal minors of its rows is 1.  Smith/Hermite normal forms are Euclidean
and track unimodular transforms; they serve ``saturate_rows``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from fractions import Fraction
from typing import Sequence

from .lattice import INF


# Miller-Rabin with the first 13 primes as bases decides every n below this
# bound (Sorenson-Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality; ValueError when n has no small factor and
    lies above the bound the Miller-Rabin bases are proven for."""
    n = operator.index(n)                               # TypeError for 2.0
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided above {_MR_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1          # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << k, n) == n - 1 for k in range(s))
               for a in _MR_BASES)


# ---------------------------------------------------------------------------
# matrix validation helpers

def as_int_matrix(rows) -> tuple[tuple[int, ...], ...]:
    """Validate a rectangular matrix with (arbitrary-precision) int entries."""
    out = []
    width = None
    for row in rows:
        r = tuple(row)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("matrix is not rectangular")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"non-integer entry {x!r}")
        out.append(r)
    return tuple(out)


def as_rat_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Validate a rectangular matrix with exact rational entries."""
    out = []
    width = None
    for row in rows:
        r = tuple(Fraction(x) for x in row)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("matrix is not rectangular")
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------
# one elimination routine over an integral domain
#
# A ring object gives ``one``, the ``size`` by which pivots are chosen, ``row``
# to normalize an input row, and combine(row, prow, a, c, prev), which is
# (a * row - c * prow) / prev with the division exact.  Zero is falsy in
# every ring (0, or the empty polynomial ()).

class _ZZ:
    one = 1
    size = staticmethod(abs)
    row = staticmethod(list)

    @staticmethod
    def combine(row, prow, a, c, prev):
        return [(a * x - c * y) // prev for x, y in zip(row, prow)]


class _PrimeField:
    one = 1
    size = staticmethod(lambda x: 0)          # every nonzero entry is a unit

    def __init__(self, p: int):
        self.p = p

    def row(self, r):
        return [x % self.p for x in r]

    def combine(self, row, prow, a, c, prev):
        p = self.p
        inv = pow(prev, -1, p)
        a, c = a * inv % p, c * inv % p
        return [(a * x - c * y) % p for x, y in zip(row, prow)]


class _PolyRing:
    """GF(p)[T]; polynomials are coefficient tuples, constant term first."""
    one = (1,)
    size = staticmethod(len)

    def __init__(self, p: int):
        self.p = p

    @staticmethod
    def row(r):
        return [poly_trim(tuple(e)) for e in r]

    def combine(self, row, prow, a, c, prev):
        p = self.p
        return [poly_divexact(poly_sub(poly_mul(x, a, p), poly_mul(y, c, p), p), prev, p)
                for x, y in zip(row, prow)]


def _bareiss(rows, ring):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) over ``ring``.

    Works on any rectangular matrix.  Each column takes as pivot the nonzero
    entry of least size in the rows not yet used; a column with none is
    skipped.  Every other nonzero row, above and below, is combined with the
    pivot row and divided exactly by the previous pivot.  Returns (M,
    pivots, sign): all pivots of M equal delta, the determinant of the pivot
    block of the row-swapped input, so M = delta * RREF; ``sign`` is the
    sign of the row swaps.
    """
    M = [ring.row(r) for r in rows]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    size = ring.size
    pivots = []
    sign = 1
    prev = ring.one
    for j in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            x = M[i][j]
            if x and (piv is None or size(x) < size(M[piv][j])):
                piv = i
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        prow = M[r]
        for i in range(nrows):
            if i != r and any(M[i]):
                M[i] = ring.combine(M[i], prow, prow[j], M[i][j], prev)
        prev = prow[j]
        pivots.append(j)
    return M, pivots, sign


def _maximal_minors(rows, ring):
    """Yield (mask, minor) for every nonzero maximal minor of ``rows``.

    At a basis B with minor delta, the tableau delta * A_B^-1 * A of
    ``_bareiss`` holds +-det A_{B - b_k + j} at (k, j) (Cramer).  A
    breadth-first walk over single exchanges reaches every basis (Maurer);
    a step is one fraction-free pivot, divided exactly by the old delta.
    Dependent rows drop out, so the minors of independent rows are exact
    up to sign; otherwise they share one common factor.
    """
    M, pivots, _ = _bareiss(rows, ring)
    start = sum(1 << j for j in pivots)
    yield start, M[0][pivots[0]] if pivots else ring.one
    seen = {start}
    todo = deque([(start, pivots, M[:len(pivots)], None, None)])
    while todo:
        mask, owner, tab, k, j = todo.popleft()
        if k is not None:                     # pivot the parent's tableau at (k, j)
            prow, delta = tab[k], tab[k][owner[k]]
            tab = [prow if i == k else ring.combine(row, prow, prow[j], row[j], delta)
                   for i, row in enumerate(tab)]
            owner = owner[:k] + [j] + owner[k + 1:]
        for k, row in enumerate(tab):
            for j, x in enumerate(row):
                nxt = mask & ~(1 << owner[k]) | 1 << j
                if x and nxt not in seen:
                    seen.add(nxt)
                    yield nxt, x
                    todo.append((nxt, owner, tab, k, j))


def _integer_rows(rows):
    """Each row of an exact rational matrix times the lcm of its denominators.

    Returns (rows, scale), scale being the product of those multipliers.
    Rows of ints are copied as they are, with multiplier 1.
    """
    out = []
    scale = 1
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        row = [Fraction(x) for x in row]
        m = math.lcm(*(x.denominator for x in row))
        scale *= m
        out.append([x.numerator * (m // x.denominator) for x in row])
    return out, scale


def _last_pivot(rows, ring):
    """(delta, sign) of a square matrix, whose determinant is sign * delta.

    A singular matrix reduces its last row to zero, and delta with it.
    """
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    if not rows:
        return ring.one, 1
    M, _, sign = _bareiss(rows, ring)
    return M[-1][-1], sign


# ---------------------------------------------------------------------------
# determinants

def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination.

    All intermediate divisions are exact, so every value stays an int.
    Pivots are chosen with minimal absolute value to limit entry growth.
    """
    delta, sign = _last_pivot(rows, _ZZ)
    return sign * delta


def det_frac(rows) -> Fraction:
    """Determinant of a square rational matrix (row scaling + Bareiss)."""
    int_rows, scale = _integer_rows(rows)
    return Fraction(det_int(int_rows), scale)


# ---------------------------------------------------------------------------
# p-adic valuations

def val_p_int(x: int, p: int):
    """p-adic valuation of an integer; INF for 0."""
    if x == 0:
        return INF
    v = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        v += 1
    return v


def val_p(q, p: int):
    """p-adic valuation of an exact rational; INF for 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return INF
    return val_p_int(q.numerator, p) - val_p_int(q.denominator, p)


# ---------------------------------------------------------------------------
# GF(p)

def gf_rref(rows, p: int):
    """Reduced row echelon form over GF(p). Returns (rows, pivot_columns)."""
    M, pivots, _ = _bareiss(rows, _PrimeField(p))
    inv = pow(M[len(pivots) - 1][pivots[-1]], -1, p) if pivots else 1
    return [tuple([x * inv % p for x in row]) for row in M], pivots


def gf_rank(rows, p: int) -> int:
    return len(_bareiss(rows, _PrimeField(p))[1])


def gf_row_space(rows, p: int) -> tuple:
    """Canonical form of the row space over GF(p): nonzero RREF rows."""
    rref, pivots = gf_rref(rows, p)
    return tuple(rref[: len(pivots)])


# ---------------------------------------------------------------------------
# rationals

def rat_rref(rows):
    """RREF over Q. Returns (rows as tuples of Fractions, pivot columns)."""
    M, pivots, _ = _bareiss(_integer_rows(rows)[0], _ZZ)
    delta = M[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [tuple(Fraction(x, delta) for x in row) for row in M], pivots


def rat_rank(rows) -> int:
    return len(_bareiss(_integer_rows(rows)[0], _ZZ)[1])


def rat_solve(A, b):
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to 0.
    """
    aug = [list(row) + [bx] for row, bx in zip(A, b)]
    if not aug:
        return ()
    ncols = len(A[0])
    rref, pivots = rat_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, j in enumerate(pivots):
        x[j] = rref[r][-1]
    return tuple(x)


def rat_kernel(A):
    """Basis of the right kernel {x : A x = 0} over Q."""
    if not A:
        return []
    ncols = len(A[0])
    rref, pivots = rat_rref(A)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, j in enumerate(pivots):
            v[j] = -rref[r][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Smith and Hermite normal forms

def smith_normal_form(A):
    """Smith normal form with transforms: returns (S, U, V), S = U A V.

    U and V are unimodular; the diagonal of S is the divisor chain
    d_1 | d_2 | ..., all nonnegative.  Pivots are chosen with minimal
    absolute value to limit entry growth.
    """
    S = [list(map(int, row)) for row in A]
    m = len(S)
    n = len(S[0]) if S else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        S[a], S[b] = S[b], S[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in S:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, c):
        S[dst] = [x + c * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            changed = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    add_row(i, t, -q)
                    if S[i][t] != 0:
                        swap_rows(i, t)
                        changed = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    add_col(j, t, -q)
                    if S[t][j] != 0:
                        swap_cols(j, t)
                        changed = True
            if not changed:
                break
        # divisor chain: pivot must divide the remaining submatrix
        d = S[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return ([tuple(r) for r in S], [tuple(r) for r in U], [tuple(r) for r in V])


def hermite_normal_form(rows):
    """Row-style Hermite normal form of the integer row lattice.

    Canonical: positive pivots, entries above each pivot reduced into
    [0, pivot), zero rows dropped.
    """
    M = [list(map(int, row)) for row in rows]
    if not M:
        return ()
    ncols = len(M[0])
    r = 0
    for j in range(ncols):
        while True:
            piv = None
            for i in range(r, len(M)):
                if M[i][j] != 0 and (piv is None or abs(M[i][j]) < abs(M[piv][j])):
                    piv = i
            if piv is None:
                break
            M[r], M[piv] = M[piv], M[r]
            done = True
            for i in range(r + 1, len(M)):
                if M[i][j] != 0:
                    q = M[i][j] // M[r][j]
                    M[i] = [x - q * y for x, y in zip(M[i], M[r])]
                    if M[i][j] != 0:
                        done = False
            if done:
                break
        if piv is None:
            continue
        if M[r][j] < 0:
            M[r] = [-x for x in M[r]]
        for i in range(r):
            q = M[i][j] // M[r][j]
            if q:
                M[i] = [x - q * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == len(M):
            break
    return tuple(tuple(row) for row in M[:r] if any(row))


def integer_right_kernel(A, ncols: int | None = None):
    """Basis of the saturated lattice {x in Z^n : A x = 0}.

    ``ncols`` is required when A has no rows.
    """
    m = len(A)
    if m == 0:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [tuple(int(i == j) for i in range(ncols)) for j in range(ncols)]
    n = len(A[0])
    S, _, V = smith_normal_form(A)
    rank = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    return [tuple(V[i][j] for i in range(n)) for j in range(rank, n)]


def saturate_rows(rows):
    """Basis of rowspace_Q(rows) ∩ Z^n, for a full-row-rank rational matrix.

    Clears denominators, then saturates via the kernel-of-kernel of the
    integer row space; the result is put in Hermite normal form so it is
    canonical.  Rows that already generate a saturated lattice skip the
    kernels: their Smith-form transforms can grow without bound.
    """
    int_rows, _ = _integer_rows(as_rat_matrix(rows))
    if not int_rows:
        raise ValueError("empty matrix")
    n = len(int_rows[0])
    if rat_rank(int_rows) != len(int_rows):
        raise ValueError("matrix does not have full row rank")
    if is_saturated(int_rows):
        return hermite_normal_form(int_rows)
    kern = integer_right_kernel(int_rows)
    if not kern:
        sat = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        sat = integer_right_kernel([list(k) for k in kern], ncols=n)
    return hermite_normal_form(sat)


def is_saturated(int_rows) -> bool:
    """True when the rows are independent and generate a saturated lattice.

    That holds exactly when the gcd of the maximal minors, the
    determinantal divisor d_d, is 1; the walk stops at the first gcd of 1.
    """
    A = as_int_matrix(int_rows)
    walk = _maximal_minors(A, _ZZ)
    start, delta = next(walk)
    gcds = itertools.accumulate((minor for _, minor in walk), math.gcd, initial=abs(delta))
    return start.bit_count() == len(A) and 1 in gcds


# ---------------------------------------------------------------------------
# polynomial matrices over GF(p)[T]
#
# Additive parametrizations with prime-field coefficients reduce to matrices
# over the (commutative) ring GF(p)[T]; their rank over the fraction field
# gives the generic rank of the parametrized variety.

def poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_mul(a, b, p: int):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(tuple(out))


def poly_sub(a, b, p: int):
    return poly_trim(tuple((x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)))


def poly_add(a, b, p: int):
    return poly_trim(tuple((x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)))


def poly_scale(a, c: int, p: int):
    c %= p
    if c == 0:
        return ()
    return poly_trim(tuple((c * x) % p for x in a))


def poly_divexact(a, b, p: int):
    """The quotient a / b over GF(p); ValueError unless b divides a."""
    b = poly_trim(tuple(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [x % p for x in poly_trim(tuple(a))]
    if len(rem) < len(b):
        if rem:
            raise ValueError("inexact polynomial division")
        return ()
    inv = pow(b[-1], -1, p)
    quot = [0] * (len(rem) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c = rem[shift + len(b) - 1] * inv % p
        quot[shift] = c
        if c:
            for i, y in enumerate(b):
                rem[shift + i] = (rem[shift + i] - c * y) % p
    if any(rem):
        raise ValueError("inexact polynomial division")
    return poly_trim(tuple(quot))


def poly_det(rows, p: int):
    """Determinant of a square matrix over GF(p)[T], by Bareiss elimination.

    The same fraction-free scheme as ``det_int``: every division is exact
    in GF(p)[T], so entries stay polynomials.  Pivots of least degree limit
    degree growth.
    """
    delta, sign = _last_pivot(rows, _PolyRing(p))
    return poly_scale(delta, sign, p)


def polymat_rank(rows, p: int) -> int:
    """Rank over GF(p)(T) of a matrix with GF(p)[T] entries."""
    return len(_bareiss(rows, _PolyRing(p))[1])
