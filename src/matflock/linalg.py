"""Exact linear algebra: integers, rationals, GF(p), and GF(p)[T].

Everything here is exact; no floating point.  Determinants, and ranks
and reduced row echelon forms over GF(p) and GF(p)[T], come from one
routine, fraction-free Bareiss elimination over an integral domain
(``_bareiss``).  Rank, RREF and kernel over Q come from one sparse
Gauss-Jordan elimination over Z (``_echelon``), whose rows are
{column: int} dicts cleared of denominators, so ``Fraction`` appears only
in the final division of an RREF.  Every enumeration of maximal minors is
one walk over the Bareiss tableau (``_maximal_minors``), which yields each
minor with its Plücker sign, exact up to one common factor; a lattice is
saturated when the gcd of the maximal minors of its rows is 1.
``saturate_rows`` reads the saturation off the same tableau: a kernel
modulo its pivot delta, whose Hermite basis is found with every entry in
[0, delta) and maps onto the Hermite normal form of the saturation.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from fractions import Fraction
from typing import Sequence

from .lattice import INF, as_int


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


def as_prime(p) -> int:
    """p as an int by ``lattice.as_int``; ValueError unless it is prime."""
    p = as_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


# ---------------------------------------------------------------------------
# matrix validation helpers

def as_int_matrix(rows) -> tuple[tuple[int, ...], ...]:
    """Validate a rectangular matrix with (arbitrary-precision) int entries."""
    return _rectangular(rows, _int_entry)


def as_rat_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """Validate a rectangular matrix with exact rational entries."""
    return _rectangular(rows, Fraction)


def _int_entry(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"non-integer entry {x!r}")
    return x


def _rectangular(rows, entry) -> tuple[tuple, ...]:
    """The rows as tuples of ``entry(x)``; a row's width is checked before its entries."""
    out = []
    for row in rows:
        r = tuple(row)
        if out and len(r) != len(out[0]):
            raise ValueError("matrix is not rectangular")
        out.append(tuple(map(entry, r)))
    return tuple(out)


# ---------------------------------------------------------------------------
# one elimination routine over an integral domain
#
# A ring object gives ``one``, the ``size`` by which pivots are chosen, ``row``
# to normalize an input row, ``neg``, and combine(row, prow, a, c, prev), which
# is (a * row - c * prow) / prev with the division exact.  Zero is falsy in
# every ring (0, or the empty polynomial ()).  Z and GF(p)[T] also give
# initial(x, p), the valuation and initial coefficient in GF(p) of a nonzero
# x: (val_p x, x / p^val_p(x) mod p) over Z, (k, x_k) at the least k with
# x_k nonzero over GF(p)[T].

class _ZZ:
    one = 1
    size = staticmethod(abs)
    row = staticmethod(list)
    neg = staticmethod(operator.neg)

    @staticmethod
    def combine(row, prow, a, c, prev):
        return [(a * x - c * y) // prev for x, y in zip(row, prow)]

    @staticmethod
    def initial(x, p):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v, x % p


class _PrimeField:
    one = 1
    size = staticmethod(lambda x: 0)          # every nonzero entry is a unit

    def __init__(self, p: int):
        self.p = p

    def row(self, r):
        return [x % self.p for x in r]

    def neg(self, x):
        return -x % self.p

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

    def neg(self, a):
        return poly_scale(a, -1, self.p)

    def combine(self, row, prow, a, c, prev):
        p = self.p
        return [poly_divexact(poly_sub(poly_mul(x, a, p), poly_mul(y, c, p), p), prev, p)
                for x, y in zip(row, prow)]

    @staticmethod
    def initial(a, p):
        k = next(k for k, c in enumerate(a) if c)
        return k, a[k]


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
    ``_bareiss`` holds det A_{B - b_k + j} at (k, j) (Cramer), its columns
    in the tableau's row order with j in place of b_k.  A breadth-first
    walk over single exchanges reaches every basis (Maurer); a step is one
    fraction-free pivot, divided exactly by the old delta.  Each tableau
    keeps the sign of the permutation that sorts its row order, and an
    exchange of b_k for j flips it once per element of B strictly between
    them, so every minor is yielded with its Plücker sign, the columns in
    ground order.  The minors are then exact up to one common factor: a
    sign when the rows are independent, and a factor that dependent rows,
    which drop out, leave behind otherwise.
    """
    M, pivots, _ = _bareiss(rows, ring)
    start = sum(1 << j for j in pivots)
    yield start, M[0][pivots[0]] if pivots else ring.one
    seen = {start}
    todo = deque([(start, pivots, M[:len(pivots)], 1, None, None)])
    while todo:
        mask, owner, tab, sign, k, j = todo.popleft()
        if k is not None:                     # pivot the parent's tableau at (k, j)
            prow, delta = tab[k], tab[k][owner[k]]
            tab = [prow if i == k else ring.combine(row, prow, prow[j], row[j], delta)
                   for i, row in enumerate(tab)]
            owner = owner[:k] + [j] + owner[k + 1:]
        for k, row in enumerate(tab):
            b = owner[k]
            for j, x in enumerate(row):
                nxt = mask & ~(1 << b) | 1 << j
                if x and nxt not in seen:
                    seen.add(nxt)
                    lo, hi = (b, j) if b < j else (j, b)
                    between = mask >> lo + 1 & (1 << hi - lo - 1) - 1
                    s = -sign if between.bit_count() & 1 else sign
                    yield nxt, x if s > 0 else ring.neg(x)
                    todo.append((nxt, owner, tab, s, k, j))


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


# ---------------------------------------------------------------------------
# determinants

def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination.

    All intermediate divisions are exact, so every value stays an int.
    Pivots are chosen with minimal absolute value to limit entry growth.
    A singular matrix reduces its last row to zero, and the last pivot
    with it.
    """
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    if not rows:
        return 1
    M, _, sign = _bareiss(rows, _ZZ)
    return sign * M[-1][-1]


def det_frac(rows) -> Fraction:
    """Determinant of a square rational matrix (row scaling + Bareiss)."""
    int_rows, scale = _integer_rows(rows)
    return Fraction(det_int(int_rows), scale)


# ---------------------------------------------------------------------------
# p-adic valuations

def val_p_int(x: int, p: int):
    """p-adic valuation of an integer; INF for 0."""
    return _ZZ.initial(x, p)[0] if x else INF


def val_p(q, p: int):
    """p-adic valuation of an exact rational; INF for 0."""
    p = as_prime(p)
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


# ---------------------------------------------------------------------------
# rationals, by sparse elimination over Z

def _combine(row, prow, j):
    """a * row - c * prow, with a / c = prow[j] / row[j] in lowest terms.

    Rows are sparse {column: int} dicts; column j cancels, and every other
    column of ``prow`` is added into ``row``.
    """
    a, c = prow[j], row[j]
    g = math.gcd(a, c)
    a, c = a // g, c // g
    out = {k: a * x for k, x in row.items()} if a != 1 else row.copy()
    for k, y in prow.items():
        x = out.get(k, 0) - c * y
        if x:
            out[k] = x
        else:
            del out[k]
    return out


def _reduce(row, echelon):
    """A sparse row with every pivot column of ``echelon`` eliminated.

    Each row of a reduced echelon form is zero at the other pivots, so one
    step per pivot column of the row suffices; what is left is empty
    exactly when the row lies in the span.
    """
    for k in [k for k in row if k in echelon]:
        row = _combine(row, echelon[k], k)
    return row


def _sparse(row):
    """A row of an exact rational matrix as a sparse {column: int} dict,
    times the lcm of its denominators (``_integer_rows``)."""
    (row,), _ = _integer_rows([row])
    return {k: x for k, x in enumerate(row) if x}


def _primitive(row):
    g = math.gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g != 1 else row


def _echelon(rows, limit=None):
    """Reduced echelon form over Z of sparse integer rows, as {pivot: row}.

    Sparse Gauss-Jordan elimination: each input row, a {column: int} dict
    (``_sparse`` clears a rational row of its denominators), is reduced
    against the rows kept so far, and a nonzero remainder, divided by its
    content, is kept under its leading column, which is then cleared from
    the kept rows.  The form stays reduced after every row, so each kept
    row is a primitive integer multiple of a row of the RREF, under that
    row's pivot column; the RREF is fixed by the row space, whatever the
    order of the steps.  Reducing a row takes one step per pivot column it
    meets, sparse rows keep the fill-in small, and dividing by gcds keeps
    the entries small.  With a ``limit``, it stops reducing rows once it
    holds ``limit`` pivots: a caller that knows the rank can go no higher
    stops there.
    """
    echelon = {}
    for r in rows:
        if len(echelon) == limit:
            break
        row = _reduce(r, echelon)
        if row:
            j = min(row)
            row = _primitive(row)
            for k, prow in echelon.items():
                if j in prow:
                    echelon[k] = _primitive(_combine(prow, row, j))
            echelon[j] = row
    return echelon


def rat_rref(rows):
    """RREF over Q. Returns (rows as tuples of Fractions, pivot columns)."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    echelon = _echelon(map(_sparse, rows))
    pivots = sorted(echelon)
    rref = [tuple(Fraction(echelon[j].get(k, 0), echelon[j][j]) for k in range(ncols))
            for j in pivots]
    rref += [(Fraction(0),) * ncols] * (len(rows) - len(pivots))
    return rref, pivots


def rat_rank(rows) -> int:
    return len(_echelon(map(_sparse, rows)))


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
    return list(_kernel(_echelon(map(_sparse, A)), len(A[0])))


def _kernel(echelon, ncols: int):
    """The kernel basis of the RREF held by ``echelon``, one vector per free
    column f in increasing order, generated lazily: 1 at f, and at each
    pivot j minus the RREF entry of row j in column f."""
    for f in range(ncols):
        if f in echelon:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for j, row in echelon.items():
            if f in row:
                v[j] = Fraction(-row[f], row[j])
        yield tuple(v)


# ---------------------------------------------------------------------------
# saturation

def _xgcd(a: int, b: int):
    """(g, s, t) with s * a + t * b == g == gcd(a, b), for a, b >= 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
    return a, s, t


def _echelon_mod(rows, delta: int):
    """Hermite basis of the lattice spanned by ``rows`` and delta * Z^w.

    Column j merges delta * e_j and every row with a nonzero entry there
    into one pivot row, by unimodular extended-Euclid steps; its pivot is
    the gcd of those entries and delta.  Entries in columns not yet reached
    are reduced into [0, delta): delta * e_k is still to join the generators
    there (Domich-Kannan-Trotter 1987).  Each earlier pivot row is then
    reduced into [0, pivot) at column j.  Returns the w rows of the Hermite
    normal form, the j-th with its positive pivot in column j.
    """
    active = [[x % delta for x in row] for row in rows]
    width = len(active[0])
    basis = []
    for j in range(width):
        piv = [0] * width
        piv[j] = delta
        rest = []
        for row in active:
            b = row[j]
            if b:
                a = piv[j]
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                piv, row = ([(s * x + t * y) % delta for x, y in zip(piv, row)],
                            [(a * y - b * x) % delta for x, y in zip(piv, row)])
            if any(row):
                rest.append(row)
        for i, row in enumerate(basis):
            q = row[j] // piv[j]
            if q:
                basis[i] = row[:j] + [(x - q * y) % delta for x, y in zip(row[j:], piv[j:])]
        basis.append(piv)
        active = rest
    return basis


def saturate_rows(rows):
    """Hermite basis of rowspace_Q(rows) ∩ Z^n, for a full-row-rank rational matrix.

    Clears denominators and takes the Bareiss tableau T = delta * RREF of
    the d rows.  As T is delta times the identity on the pivot columns,
    the saturation is {y T / delta : y in Z^d, y T = 0 mod delta}, and y
    needs checking on the other columns only.  That lattice of y contains
    delta * Z^d, so ``_echelon_mod`` finds its Hermite basis with every
    entry in [0, |delta|).  |delta| is a maximal minor of the integer rows,
    at most the product of their Euclidean norms (Hadamard), so no entry
    grows past the size of the input's minors.  The map y -> y T / delta
    is the identity on the pivot columns and keeps zeros left of each
    pivot, so it takes that basis to the Hermite normal form of the
    saturation.
    """
    int_rows, _ = _integer_rows(as_rat_matrix(rows))
    if not int_rows:
        raise ValueError("empty matrix")
    d, n = len(int_rows), len(int_rows[0])
    M, pivots, _ = _bareiss(int_rows, _ZZ)
    if len(pivots) != d:
        raise ValueError("matrix does not have full row rank")
    T = M[:d]
    delta = T[0][pivots[0]]
    free = [j for j in range(n) if j not in pivots]
    gens = [[row[j] for j in free] + [int(i == k) for k in range(d)]
            for i, row in enumerate(T)]
    K = [row[len(free):] for row in _echelon_mod(gens, abs(delta))[len(free):]]
    return tuple(tuple(sum(y * t for y, t in zip(ys, col)) // delta for col in zip(*T))
                 for ys in K)


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


def polymat_rank(rows, p: int) -> int:
    """Rank over GF(p)(T) of a matrix with GF(p)[T] entries."""
    return len(_bareiss(rows, _PolyRing(p))[1])
