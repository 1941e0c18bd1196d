"""Seeded input generators for the benchmark workloads.

Everything here is plain Python: the generators never call the library, so
the library only ever sees finished inputs.  A generator draws from the
``random.Random`` it is given, so one seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random


def det_int(rows) -> int:
    """Determinant of a square integer matrix (fraction-free elimination)."""
    n = len(rows)
    M = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def val_p(x: int, p: int) -> int:
    v = 0
    x = abs(x)
    while x % p == 0:
        x //= p
        v += 1
    return v


def exchange_ok(n: int, values: dict) -> bool:
    """The valuated exchange axiom on a table mask -> int (absent = infinite)."""
    if not values:
        return False
    for B, vb in values.items():
        for B2, vb2 in values.items():
            for i in range(n):
                if not (B >> i & 1) or B2 >> i & 1:
                    continue
                if not any(
                    (B2 >> j & 1) and not (B >> j & 1)
                    and (B & ~(1 << i) | 1 << j) in values
                    and (B2 & ~(1 << j) | 1 << i) in values
                    and vb + vb2 >= values[B & ~(1 << i) | 1 << j]
                    + values[B2 & ~(1 << j) | 1 << i]
                    for j in range(n)
                ):
                    return False
    return True


def _normalized(values: dict) -> dict:
    low = min(values.values())
    return {k: v - low for k, v in values.items()}


def random_valuation(rng: random.Random, n: int, d: int,
                     vmax: int = 3, max_inf: int = 2) -> dict:
    """A valid valuation on 1..n of rank d as {mask: value}, min value 0.

    Values lie in 0..vmax and at most ``max_inf`` d-subsets are infinite.
    Up to n = 5 uniform tables are rejection-sampled against the exchange
    axiom; larger ground sets take p-adic minor valuations of random
    integer matrices plus a random trivial shift (valid by construction).
    """
    masks = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
    if n <= 5:
        while True:
            n_inf = rng.randint(0, max_inf) if len(masks) > max_inf else 0
            inf_at = set(rng.sample(range(len(masks)), n_inf))
            values = {m: rng.randint(0, vmax)
                      for k, m in enumerate(masks) if k not in inf_at}
            if exchange_ok(n, values):
                return _normalized(values)
    while True:
        p = rng.choice([2, 3])
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)]
        shift = [rng.randint(-1, 1) for _ in range(n)]
        values = {}
        for m in masks:
            cols = [i for i in range(n) if m >> i & 1]
            det = det_int([[row[i] for i in cols] for row in A])
            if det:
                values[m] = val_p(det, p) + sum(shift[i] for i in cols)
        if not values or len(masks) - len(values) > max_inf:
            continue
        values = _normalized(values)
        if max(values.values()) <= vmax:
            return values


def minors(A, d: int, n: int) -> dict:
    """All nonzero maximal minors of A as {column mask: determinant}."""
    out = {}
    for cols in itertools.combinations(range(n), d):
        det = det_int([[row[i] for i in cols] for row in A])
        if det:
            out[sum(1 << i for i in cols)] = det
    return out


def random_saturated_matrix(rng: random.Random, d: int, n: int, min_nonzero: int = 0):
    """A d x n matrix with entries in -4..4 and full row rank whose rows span
    a saturated lattice (the gcd of its maximal minors is 1), with at least
    ``min_nonzero`` nonzero maximal minors."""
    while True:
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)]
        dets = minors(A, d, n)
        if len(dets) >= max(min_nonzero, 1) and math.gcd(*dets.values()) == 1:
            return tuple(tuple(r) for r in A)


def random_param(rng: random.Random, p: int, m: int, n: int):
    """Coordinates of a random additive parametrization over GF(p).

    Each coordinate is a list of 1 to 3 terms (v, k, c): parameter index,
    Frobenius level 0..3, nonzero coefficient.
    """
    coords = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, m - 1), rng.randint(0, 3))] = rng.randint(1, p - 1)
        coords.append(tuple(sorted((v, k, c) for (v, k), c in terms.items())))
    return tuple(coords)




# ---------------------------------------------------------------------------
# the matroids of the rigidity checks, built from their defining matrices

_PLANE = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def _column_bases(cols, modulus=None) -> list:
    """Masks of the d-subsets of columns with nonzero determinant (mod ``modulus``)."""
    d = len(cols[0])
    out = []
    for C in itertools.combinations(range(len(cols)), d):
        det = det_int([[cols[j][i] for j in C] for i in range(d)])
        if (det % modulus if modulus else det) != 0:
            out.append(sum(1 << j for j in C))
    return out


def _lazarson_bases(k: int) -> list:
    """Columns x_0..x_k (unit), z (all ones), y_i (ones but row i) over Q,
    with the all-y basis removed."""
    cols = [tuple(int(r == i) for r in range(k + 1)) for i in range(k + 1)]
    cols.append((1,) * (k + 1))
    cols += [tuple(int(r != i) for r in range(k + 1)) for i in range(k + 1)]
    ymask = sum(1 << j for j in range(k + 2, 2 * k + 3))
    return [m for m in _column_bases(cols) if m != ymask]


def _uniform_bases(d: int, n: int) -> list:
    return [sum(1 << i for i in C) for C in itertools.combinations(range(n), d)]


# name -> (ground size, basis masks over positions 0..n-1)
RIGIDITY_MATROIDS = {
    "fano": (7, _column_bases(_PLANE, 2)),
    "nonfano": (7, _column_bases(_PLANE)),
    "U(2,4)": (4, _uniform_bases(2, 4)),
    "U(3,6)": (6, _uniform_bases(3, 6)),
    "lazarson(3)": (9, _lazarson_bases(3)),
}


def relabelled_bases(rng: random.Random, n: int, masks) -> tuple:
    """The same matroid on fresh integer labels: position i becomes
    offset + i for a random offset.  The labels keep their order, so the
    library does exactly the same work on every copy.  Returns (ground, bases)."""
    offset = rng.randrange(0, 10 ** 6)
    labels = [offset + i for i in range(n)]
    bases = [tuple(labels[i] for i in range(n) if m >> i & 1) for m in masks]
    return tuple(labels), bases
