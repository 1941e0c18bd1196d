"""Slow reference routes kept as test oracles.

Smith normal form with unimodular transforms, and the integer right kernel
it gives.  Their kernel of a kernel is an independent saturation route to
compare ``matflock.linalg.saturate_rows`` against; their transforms can
grow without bound, so they run on small inputs only.

Cell vertices by scoring every point with all 2^(n+1) - 3 of its steps, and
triviality by an exact rational solve before the shortest-path pass: the
routes that ``matroid._connected`` and ``valuation.is_trivial`` replaced.
"""

from __future__ import annotations

import numpy as np

from matflock import linalg
from matflock.valuation import (TrivialityResult, _difference_constraints, _incidence_rows,
                                _integral_point, optimal_masks)
from matflock.window import _CHUNK, _pair_holds, score_ids


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


def _vertex_flags(finite_items, n: int, points) -> np.ndarray:
    """Per point alpha of ``points``: is alpha a vertex of the cell decomposition?

    alpha is a vertex exactly when no step alpha ± e_I (I a proper nonempty
    subset) keeps every basis of M_alpha optimal.  Each point is scored
    together with its steps in one ``score_ids`` call per chunk.
    """
    points = np.asarray(points, dtype=np.int64).reshape(len(points), n)
    up = np.array([[I >> i & 1 for i in range(n)] for I in range(1, (1 << n) - 1)],
                  dtype=np.int64).reshape(-1, n)
    around = np.concatenate([np.zeros((1, n), dtype=np.int64), up, -up])
    per = len(around)
    flags = np.empty(len(points), dtype=bool)
    chunk = max(1, _CHUNK // per)
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        steps = (block[:, None, :] + around).reshape(-1, n)
        ids, table = score_ids(finite_items, n, steps)
        ids = ids.reshape(len(block), per)
        # (id at alpha, id at a step) -> does the step keep M_alpha optimal?
        keeps = _pair_holds(ids[:, :1], ids[:, 1:], len(table),
                            lambda i, j: table[j] >= table[i])
        flags[start:start + len(block)] = ~keeps.any(axis=1)
    return flags


def rational_is_trivial(nu) -> TrivialityResult:
    """Decide whether nu(B) = e_B . alpha on the support for some alpha.

    Solves the linear system exactly over Q; on success the rational witness
    is turned into an integral one with M^nu_alpha equal to the support
    matroid (the defining difference constraints are totally unimodular, so
    an integer point exists whenever a rational one does).
    """
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    n = len(nu.ground)
    if linalg.rat_solve(_incidence_rows(nu.finite, n), list(nu.finite.values())) is None:
        return TrivialityResult(False)
    alpha = _integral_point(n, _difference_constraints(nu, nu.support_masks))
    if alpha is None:
        raise AssertionError("rationally trivial valuation with infeasible cell")
    if optimal_masks(nu, alpha) != nu.support_masks:
        raise AssertionError("integral witness does not realize the support matroid")
    return TrivialityResult(True, alpha)
