"""Independent reference answers the benchmark checks the library against.

Nothing here imports the library: every reference is a direct, slow and
obviously-correct computation on the generated inputs.
"""

from __future__ import annotations

import itertools

from gen import minors, val_p


def argmax_masks(values: dict, alpha) -> frozenset:
    """Exact argmax of e_B . alpha - nu(B) over a {mask: int} table."""
    best, out = None, []
    for mask, v in values.items():
        s = sum(a for i, a in enumerate(alpha) if mask >> i & 1) - v
        if best is None or s > best:
            best, out = s, [mask]
        elif s == best:
            out.append(mask)
    return frozenset(out)


def padic_minor_valuation(A, p: int) -> dict:
    """{column mask: val_p(det A_B)} over the nonzero maximal minors."""
    return {m: val_p(det, p) for m, det in minors(A, len(A), len(A[0])).items()}


# ---------------------------------------------------------------------------
# GF(p)[T] for additive parametrizations (T records the Frobenius level)

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _add(a, b, p, sign=1):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] + sign * y) % p
    return _trim(out)


def poly_det(M, p: int):
    """Determinant over GF(p)[T] by the Leibniz formula (small sizes only)."""
    k = len(M)
    total = []
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        term = [1]
        for r, c in enumerate(perm):
            term = _mul(term, M[r][c], p)
        total = _add(total, term, p, -1 if inversions % 2 else 1)
    return total


def param_polymatrix(p: int, m: int, coords):
    """Entry (v, i): the polynomial sum c T^k over coordinate i's terms in x_v."""
    mat = [[[] for _ in coords] for _ in range(m)]
    for i, terms in enumerate(coords):
        for v, k, c in terms:
            entry = mat[v][i] + [0] * max(0, k + 1 - len(mat[v][i]))
            entry[k] = (entry[k] + c) % p
            mat[v][i] = _trim(entry)
    return mat


def _row_rank(rows, n: int, p: int) -> int:
    """Rank over GF(p)(T): the largest nonvanishing minor."""
    for k in range(min(len(rows), n), 0, -1):
        for R in itertools.combinations(rows, k):
            for C in itertools.combinations(range(n), k):
                if poly_det([[row[j] for j in C] for row in R], p):
                    return k
    return 0


def independent_rows(p: int, m: int, coords):
    """A maximal GF(p)(T)-independent set of rows of the polynomial matrix."""
    n = len(coords)
    kept = []
    for row in param_polymatrix(p, m, coords):
        if _row_rank(kept + [row], n, p) > len(kept):
            kept.append(row)
    return kept


def tadic_minor_valuation(p: int, m: int, coords) -> dict:
    """{column mask: val_T(det)} of the maximal minors, normalized to min 0.

    Prime-field coefficients commute with Frobenius, so this is the
    valuation of the flock of the parametrization.
    """
    rows = independent_rows(p, m, coords)
    d, n = len(rows), len(coords)
    vals = {}
    for C in itertools.combinations(range(n), d):
        det = poly_det([[row[j] for j in C] for row in rows], p)
        if det:
            vals[sum(1 << j for j in C)] = next(i for i, c in enumerate(det) if c)
    low = min(vals.values())
    return {k: v - low for k, v in vals.items()}


# ---------------------------------------------------------------------------
# discrete convexity

def point_function_dual(values: dict, n: int, lo, hi) -> dict:
    """max over B of x . e_B - nu(B) at every x of the box [lo, hi]."""
    out = {}
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        out[x] = max(sum(x[i] for i in range(n) if mask >> i & 1) - v
                     for mask, v in values.items())
    return out

