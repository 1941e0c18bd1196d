"""Slow reference routes kept as test oracles.

Smith normal form with unimodular transforms, and the integer right kernel
it gives.  Their kernel of a kernel is an independent saturation route to
compare ``matflock.linalg.saturate_rows`` against; their transforms can
grow without bound, so they run on small inputs only.

Hermite normal form by Euclidean row elimination, with no bound on its
entries, and the saturation that put the modular echelon's image through
it: the reference for ``linalg._echelon_mod`` and the route that
``linalg.saturate_rows`` replaced.  The determinant over GF(p)[T] by
Bareiss elimination, checked against permutation expansion.

Cell vertices by scoring every point with all 2^(n+1) - 3 of its steps, and
triviality by an exact rational solve before the shortest-path pass: the
routes that ``matroid._connected`` and ``valuation.is_trivial`` replaced.
Cell vertices as the leaders of a window scan whose matroid is connected
(``_leader_vertices``): the route that the walk from vertex to vertex,
``valuation._vertices``, replaced.

Rank, RREF, kernel and solve over Q by dense Bareiss elimination, and the
rigidity certificate built on them with one solve per kernel vector: the
routes that ``linalg._echelon`` and the span test of
``rigidity.rigidity_certificate`` replaced.  The oracle eliminates every
equation and builds the kernel before it compares dimensions, where the
certificate stops at the rank bound.

Frobenius row spaces by one GF(p)[T] tableau per argmax family, and the
contraction, deletion and (FF1)/(FF2) report that re-reduce each side with
``linalg.gf_rref`` (``gf_row_space``, the canonical nonzero RREF rows),
keyed one distinct space at a time (``_id_keys``): the routes that reading
V_S off the initial Plücker coefficients of one minor walk, and keying each
move of a source by its argmax families alone in the flock's GF(2) pass
(``window._minor_moves``), replaced.  A toric source's row spaces by
saturation (``saturation_frobenius_window``): each twisted row lattice
saturated over Z and reduced mod p, the independent route to V_alpha.
Single exchanges by a test of all n^2 bit pairs.  The basis-graph component
by trying every single exchange of each basis reached
(``single_exchange_component``): the route that the walk through shared
(d-1)-sets, ``matroid._exchange_component``, replaced.

Minor keys by projection (``projected_minor_moves``): every (move, id,
basis) entry projected to b_j \\ I, its signed and scaled value written
at the projected mask's rank among the move's, and the keys of all moves
ranked together with ``np.unique``: the rules that keying single-element
moves in basis space, as rows of words compared word by word, and keying
the Plücker vectors of a window given as data by their scaled minors, one
distinct space at a time (``algebraic._plucker_keys``), replaced.

The local axioms with each move's keys gathered through strided views of
the id grid: the route that one shared contiguous copy of the checked
block, read with ``np.take``, replaced.

Extraction along the walk's upper envelope, one pass over the finite bases
per subset: the route that reading each value off local optimality
(``flock._local_values``) replaced.  It takes any map, valuation or not.

The Legendre-Fenchel dual by the exhaustive max over the primal domain at
every dual point, and the L-convexity check that walks every box point in
a Python loop (``check_lconvex``, ``_submodular``): the routes that the
conjugate one axis at a time and the flat-stride checks of
``matflock.discrete_convex`` replaced.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from matflock import linalg, window
from matflock.algebraic import (FrobeniusWindowReport, _param_polymatrix, saturate_lattice,
                                tadic_valuation)
from matflock.discrete_convex import LConvexReport, WindowFunction, _box_points
from matflock.lattice import INF, vadd, vjoin, vmeet
from matflock.linalg import (_ZZ, _PolyRing, _bareiss, _echelon_mod, _integer_rows,
                             as_rat_matrix, gf_rref, poly_scale)
from matflock.matroid import _connected, _raise_unless, _single_exchanges, check_basis_axioms
from matflock.rigidity import RigidityVerdict, _integerize, dw_constraints
from matflock.valuation import (LeaderScan, TrivialityResult, Valuation,
                                _difference_constraints, _incidence_rows, _integral_point,
                                check_valuation_axioms, is_trivial, optimal_masks)
from matflock.window import _CHUNK, _KEY_BLOCK, _dense_ids, score_ids


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


def saturate_by_hermite(rows):
    """Basis of rowspace_Q(rows) ∩ Z^n, for a full-row-rank rational matrix.

    Clears denominators and takes the Bareiss tableau T = delta * RREF of
    the d rows.  As T is delta times the identity on the pivot columns,
    the saturation is {y T / delta : y in Z^d, y T = 0 mod delta}, and y
    needs checking on the other columns only.  That lattice of y contains
    delta * Z^d, so ``_echelon_mod`` finds it with every entry in
    [0, |delta|).  |delta| is a maximal minor of the integer rows, at most
    the product of their Euclidean norms (Hadamard), so no entry grows
    past the size of the input's minors.  The image y T / delta is put in
    Hermite normal form so the result is canonical.
    """
    int_rows, _ = _integer_rows(as_rat_matrix(rows))
    if not int_rows:
        raise ValueError("empty matrix")
    d, n = len(int_rows), len(int_rows[0])
    M, pivots, _ = _bareiss(int_rows, _ZZ)
    if len(pivots) != d:
        raise ValueError("matrix does not have full row rank")
    T = M[:d]
    delta = abs(T[0][pivots[0]])
    free = [j for j in range(n) if j not in pivots]
    gens = [[row[j] for j in free] + [int(i == k) for k in range(d)]
            for i, row in enumerate(T)]
    K = [row[len(free):] for row in _echelon_mod(gens, delta)[len(free):]]
    return hermite_normal_form(
        [[sum(y * t for y, t in zip(ys, col)) // delta for col in zip(*T)] for ys in K])


def poly_det(rows, p: int):
    """Determinant of a square matrix over GF(p)[T], by Bareiss elimination.

    The same fraction-free scheme as ``linalg.det_int``: every division is
    exact in GF(p)[T], so entries stay polynomials.  Pivots of least degree
    limit degree growth.
    """
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    if not rows:
        return (1,)
    M, _, sign = _bareiss(rows, _PolyRing(p))
    return poly_scale(M[-1][-1], sign, p)


def _pair_holds(left, right, size: int, holds) -> np.ndarray:
    """``holds(i, j)`` at each pair (i, j) of the broadcast id arrays ``left``
    and ``right`` (every right id below ``size``), called once per distinct
    pair."""
    codes = left * size + right
    pairs, inverse = np.unique(codes, return_inverse=True)
    values = np.array([holds(*divmod(k, size)) for k in pairs.tolist()], dtype=bool)
    return values[inverse].reshape(codes.shape)


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


def _leader_vertices(scan: LeaderScan):
    """The leader representatives of ``scan`` that are cell vertices.

    For a valuation alpha is a vertex exactly when M_alpha is connected: a
    separator I keeps M_alpha optimal at alpha + e_I (local optimality;
    integer gaps are at least 1 and the step moves them by at most 1), and
    otherwise some two bases meet each proper I in different sizes.
    """
    return [rep for M, rep in scan.leaders if _connected(M.masks, len(M.ground))]


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


def dense_rat_rref(rows):
    """RREF over Q. Returns (rows as tuples of Fractions, pivot columns)."""
    M, pivots, _ = _bareiss(_integer_rows(rows)[0], _ZZ)
    delta = M[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [tuple(Fraction(x, delta) for x in row) for row in M], pivots


def dense_rat_rank(rows) -> int:
    return len(_bareiss(_integer_rows(rows)[0], _ZZ)[1])


def dense_rat_solve(A, b):
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to 0.
    """
    aug = [list(row) + [bx] for row, bx in zip(A, b)]
    if not aug:
        return ()
    ncols = len(A[0])
    rref, pivots = dense_rat_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, j in enumerate(pivots):
        x[j] = rref[r][-1]
    return tuple(x)


def dense_rat_kernel(A):
    """Basis of the right kernel {x : A x = 0} over Q."""
    if not A:
        return []
    ncols = len(A[0])
    rref, pivots = dense_rat_rref(A)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, j in enumerate(pivots):
            v[j] = -rref[r][f]
        basis.append(tuple(v))
    return basis


def dense_rigidity_certificate(M) -> RigidityVerdict:
    """Rigid when the constraint solution space is exactly the trivial span.

    The trivial valuations always satisfy the constraints, so equality of
    dimensions certifies rigidity.  Otherwise a solution direction outside
    the trivial span is scaled to an integer candidate; if some signed copy
    passes the valuation axioms it is a NotRigid witness, and failing that
    the verdict is Inconclusive (the linear method is only sufficient).
    A basis family that fails (B2) raises ValueError with the witness.
    """
    _raise_unless(check_basis_axioms(M.ground, M.d, M.bases), "basis family")
    basis_masks = sorted(M.masks)
    var = {m: k for k, m in enumerate(basis_masks)}
    n = len(M.ground)

    system = dw_constraints(M)
    rows = []
    for (b1, b2), (b3, b4) in system.equations:
        row = [0] * len(basis_masks)
        row[var[M.mask_of(b1)]] += 1
        row[var[M.mask_of(b2)]] += 1
        row[var[M.mask_of(b3)]] -= 1
        row[var[M.mask_of(b4)]] -= 1
        rows.append(row)

    dim_solutions = len(basis_masks) - (dense_rat_rank(rows) if rows else 0)
    # the incidence columns and the constants, which the columns span only
    # for d >= 1
    incidence = [row + [1] for row in _incidence_rows(basis_masks, n)]
    dim_trivial = dense_rat_rank(incidence)
    if dim_solutions == dim_trivial:
        return RigidityVerdict("rigid")

    if rows:
        kernel = dense_rat_kernel(rows)
    else:
        kernel = [tuple(int(i == j) for i in range(len(basis_masks)))
                  for j in range(len(basis_masks))]
    outside = [k for k in kernel
               if dense_rat_solve(incidence, list(k)) is None]
    candidates = [_integerize(k) for k in outside]
    for k1, k2 in itertools.combinations(outside[:4], 2):
        candidates.append(_integerize([a + b for a, b in zip(k1, k2)]))

    first_direction = candidates[0] if candidates else None
    for cand in candidates:
        for w in (cand, tuple(-x for x in cand)):
            lo = min(w)
            nu = Valuation(M.ground, M.d,
                           {m: w[var[m]] - lo for m in basis_masks})
            if not check_valuation_axioms(nu).ok:
                continue
            if is_trivial(nu).trivial:
                continue
            return RigidityVerdict("not_rigid", witness=nu, direction=cand)
    return RigidityVerdict("inconclusive", direction=first_direction)


def tableau_frobenius_grid(param, lo: int, hi: int):
    """(d, grid, spaces) of the row spaces V_alpha over [lo, hi]^E: the id
    grid indexed by alpha - lo per axis, ``spaces[id]`` its row space, and
    distinct ids holding distinct spaces.

    V_alpha, the T = 0 reduction of the row lattice of P * diag(T^-alpha),
    has as Plücker vector the initial form of the T-adic one (Speyer 2008),
    so it depends only on the argmax family S at alpha, and the grid is the
    T-adic valuation's scored grid.  With B0 = min(S), entry (r, j) of the
    tableau delta * P_B0^-1 * P is a Plücker ratio, and V_S keeps its lowest
    coefficient over delta's where B0 - b_r + j is in S.  Families with equal
    spaces are merged, so (FF2) may compare ids.
    """
    nu = tadic_valuation(param)
    n, p = param.n, param.p
    items = nu.finite_items()
    # a fresh scan, not the remembered box of the library's checks
    ids, words = window._box_sets(items, n, [lo] * n, [hi] * n)
    grid = ids.reshape((hi - lo + 1,) * n)
    P = _param_polymatrix(param)
    intern: dict[tuple, int] = {}
    ids = []
    for S in window._families([mask for mask, _ in items], words):
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
        ids.append(intern.setdefault(gf_row_space(rows, p), len(intern)))
    return nu.d, np.array(ids, dtype=grid.dtype)[grid], list(intern)


def saturation_frobenius_window(rep, radius: int) -> dict:
    """The row spaces V_alpha of a toric representation over
    [-radius, radius]^E, keyed by alpha: column j of A scaled by
    p^(max alpha - alpha_j), the row lattice saturated over Z, and its row
    space mod p (``gf_row_space``)."""
    table = {}
    for alpha in itertools.product(range(-radius, radius + 1), repeat=rep.n):
        top = max(alpha)
        rows = [[x * rep.p ** (top - a) for x, a in zip(row, alpha)] for row in rep.A]
        table[alpha] = gf_row_space(saturate_lattice(rows), rep.p)
    return table


def gf_row_space(rows, p: int) -> tuple:
    """Canonical form of the row space over GF(p): nonzero RREF rows."""
    rref, pivots = gf_rref(rows, p)
    return tuple(rref[: len(pivots)])


def rref_space_delete(rows, i: int, p: int):
    cut = [row[:i] + row[i + 1:] for row in rows]
    return gf_row_space(cut, p)


def rref_space_contract(rows, i: int, p: int):
    """Row space of {w in V : w_i = 0}, coordinate i dropped: in the RREF
    with column i first, the nonzero rows after the one pivoting there,
    which are in RREF themselves."""
    red, pivots = linalg.gf_rref([[row[i], *row[:i], *row[i + 1:]] for row in rows], p)
    first = 1 if pivots[:1] == [0] else 0
    return tuple(row[1:] for row in red[first:len(pivots)])


def _id_keys(grid: np.ndarray, radius: int, axes, left, right):
    """(left keys, right keys) of the move along ``axes`` in
    ``window._local_axioms``, given per id: ``left(i)`` at the ids the move
    reads at alpha and ``right(i)`` at those it reads at alpha + e_I,
    interned together, and -1 at the other ids, as one-word rows."""
    size = int(grid.max()) + 1
    intern: dict = {}
    keys = []
    for side, view in zip((left, right), window._move_views(grid, radius, axes)):
        keys.append(np.full((size, 1), -1))
        for i in np.flatnonzero(np.bincount(view.ravel(), minlength=size)).tolist():
            keys[-1][i] = intern.setdefault(side(i), len(intern))
    return keys


def rref_frobenius_report(grid, spaces, radius: int, ground, p: int) -> FrobeniusWindowReport:
    """(FF1)/(FF2) over [-radius, radius]^E of an id grid whose index 0 is
    alpha = -radius on every axis, ``spaces[id]`` the row space V_alpha in
    RREF; distinct ids must hold distinct spaces.  Alphas whose shift leaves
    the grid are not checked."""
    n = len(ground)

    def sides(k, a, b):
        """The two spaces (FF1) at axis k, or (FF2) for k = n, compares."""
        if k == n:
            return spaces[a], spaces[b]
        return rref_space_contract(spaces[a], k, p), rref_space_delete(spaces[b], k, p)

    moves = [((k,), *_id_keys(grid, radius, (k,),
                              lambda i, k=k: rref_space_contract(spaces[i], k, p),
                              lambda i, k=k: rref_space_delete(spaces[i], k, p)))
             for k in range(n)]
    moves.append((tuple(range(n)), None, None))
    counts, first = window._local_axioms(grid, radius, moves)
    violation = None
    if first is not None:
        alpha, k = first
        at = tuple(x + radius for x in alpha)
        to = tuple(x + (i == k or k == n) for i, x in enumerate(at))
        a, b = int(grid[at]), int(grid[to])
        violation = (alpha, ground[k] if k < n else "1", *sides(k, a, b))
    return FrobeniusWindowReport(radius, sum(c for c, _ in counts[:n]),
                                 sum(f for _, f in counts[:n]), *counts[n], violation)


def projected_minor_moves(n: int, masks, values: np.ndarray, moves, p: int):
    """(I, left, right) per tuple I of element indices in ``moves``, for
    ``_local_axioms``: ``left[i]`` keys the contraction and ``right[i]`` the
    deletion by I of row i of ``values``, numbered together.  ``values`` is
    an (ids, bases) array over GF(p), column j for basis ``masks[j]``,
    nonzero exactly on each family's bases (every family nonempty): a
    matroid's bool row with p = 2, or a space's Plücker vector up to a unit.

    With cnt_j = |b_j ∩ I|, the contraction keeps the bases of largest cnt
    and the deletion those of largest |b_j \\ I|: for I = {i}, the bases that
    hold i (all of them when i is a loop) and those that miss i (all of them
    when i is a coloop).  A kept b_j projects to b_j \\ I with its value,
    negated when i is in b_j above an odd number of its elements.  A key is
    these values over the one at the least projected mask, each in a
    (p - 1).bit_length()-bit field (for Python ints, its rank among the
    values) at its mask's rank among the move's projected masks.  Over GF(2)
    signs and ratios are 1, so a key is the set of projected masks, the
    matroid minor, for any I; for p > 2 values are folded for single-element
    moves only.  A block holds as many moves as keep its arrays within
    ``_KEY_BLOCK`` (id, basis) entries per side, and at least one.
    """
    size, m = values.shape
    rows, cols = np.nonzero(values)
    # nonzero is row-major: the entries of an id are contiguous
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    bases = np.array(masks, dtype=np.int64)
    elements = np.arange(n)
    incidence = (bases[:, None] >> elements & 1).astype(np.int8)
    sizes = incidence.sum(axis=1, dtype=np.int8)[cols]
    # does the basis hold the element above an odd number of its elements
    odd = incidence & (np.cumsum(incidence, axis=1, dtype=np.int8) - incidence)
    # residues are int64 while a product of two fits it, Python ints otherwise
    residues = np.int64 if p < 1 << 31 else object
    entries = values[rows, cols].astype(residues) % p if p > 2 else None
    block = max(1, _KEY_BLOCK // len(cols))
    for start in range(0, len(moves), block):
        sets = moves[start:start + block]
        cuts = np.zeros((len(sets), n), dtype=np.int8)
        for k, axes in enumerate(sets):
            cuts[k, list(axes)] = 1
        # (side, move, entry): the count each side maximizes, from bit matrices
        inside = (cuts @ incidence.T)[:, cols]
        held = np.stack([inside, sizes - inside])
        keep = held == np.maximum.reduceat(held, starts, axis=2)[:, :, rows]
        # the rank of each projected mask among the distinct ones of its move
        projected = bases & ~(cuts.astype(np.int64) @ (np.int64(1) << elements))[:, None]
        order = np.argsort(projected, axis=1, kind="stable")
        ordered = np.take_along_axis(projected, order, axis=1)
        fresh = np.ones(ordered.shape, dtype=np.intp)
        fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.cumsum(fresh, axis=1) - 1, axis=1)
        width = 1
        if p > 2:
            # each signed value over the one of least rank kept for its id
            signed = np.where((cuts @ odd.T)[:, cols] & 1, p - entries, entries)
            at = rank[:, cols]
            least = np.minimum.reduceat(np.where(keep, at, m), starts, axis=2)[:, :, rows]
            pivots = np.add.reduceat(np.where(keep & (at == least), signed, 0), starts, axis=2)
            units, which = np.unique(pivots, return_inverse=True)
            inverse = np.array([pow(int(u), -1, p) for u in units], dtype=entries.dtype)
            field = signed * inverse[which.reshape(pivots.shape)][:, :, rows] % p
            width = (p - 1).bit_length()
            if field.dtype == object:
                distinct, which = np.unique(field, return_inverse=True)
                field, width = which.reshape(field.shape) + 1, len(distinct).bit_length()
            field = field.astype(np.uint64)
        # a key as words of fields, one per projected mask: OR over the kept
        # entries of an id, so over GF(2) equal projections set one bit
        per = 64 // width
        word = (rank // per)[:, cols]
        shift = (rank % per * width).astype(np.uint64)
        fields = (np.uint64(1) << shift)[:, cols] if p == 2 else field << shift[:, cols]
        words = np.empty((2, len(sets), size, -(-m // per)), dtype=np.uint64)
        for w in range(words.shape[3]):
            words[..., w] = np.bitwise_or.reduceat(
                np.where(keep & (word == w), fields, np.uint64(0)), starts, axis=2)
        keys = _dense_ids(words.reshape(-1, words.shape[3])).reshape(2, len(sets), size)
        for k, axes in enumerate(sets):
            yield axes, keys[0, k], keys[1, k]



def bit_test_single_exchanges(mask: int, n: int):
    """Every (i, j, mask - i + j) with i in mask and j outside it."""
    for i in range(n):
        if mask >> i & 1:
            for j in range(n):
                if not mask >> j & 1:
                    yield i, j, mask & ~(1 << i) | 1 << j


def single_exchange_component(masks, n: int) -> set[int]:
    """The masks of ``masks`` that single exchanges inside it reach from its
    first one: the component of that basis in the basis graph."""
    reached = {next(iter(masks))}
    todo = list(reached)
    while todo:
        for _, _, B2 in _single_exchanges(todo.pop(), n):
            if B2 in masks and B2 not in reached:
                reached.add(B2)
                todo.append(B2)
    return reached


def strided_local_axioms(grid: np.ndarray, radius: int, moves):
    """Local axioms on an id grid whose index 0 is alpha = -radius on every axis.

    A move (I, left, right) holds at alpha when left[id at alpha] equals
    right[id at alpha + e_I]: ``left`` and ``right`` are int arrays over the
    ids, numbered together, and a move without keys (I, None, None) is read
    as keyed by the ids themselves.  A move is checked at every alpha of
    [-radius, radius]^E whose shift is in the grid, so a grid over
    [-radius, radius + 1]^E checks the whole box, with two gathers and one
    comparison.  Returns (checked, failed) per move and (alpha, move index)
    at the lex-first failing alpha, ties going to the earlier move, or None.
    """
    counts = []
    first = None
    for k, (axes, left, right) in enumerate(moves):
        at, shifted = window._move_views(grid, radius, axes)
        if left is None:
            left = right = np.arange(int(grid.max()) + 1)[:, None]
        fails = (left[at] != right[shifted]).any(axis=-1)
        failed = int(np.count_nonzero(fails))
        if failed:
            idx = np.unravel_index(int(np.argmax(fails)), fails.shape)
            alpha = tuple(int(x) - radius for x in idx)
            if first is None or alpha < first[0]:
                first = (alpha, k)
        counts.append((int(fails.size), failed))
    return counts, first


def envelope_value(nu: Valuation, bmask: int, walk: int):
    """``_point_value`` of the flock alpha -> M^nu_alpha, read off the walk's envelope.

    At alpha = k*e_B the score of B' is k*s - nu(B') with slope
    s = |B ∩ B'|, so only c_s = max(-nu(B')) over each slope matters.  The
    rank of B in M_alpha is the largest slope attaining max_s(k*s + c_s), and
    B is a basis exactly when that slope is d.  The top slope only grows with
    k, so g is summed over at most d+1 segments, each ending where a larger
    slope first catches up.
    """
    best: dict[int, int] = {}
    for mask, val in nu.finite.items():
        s = (mask & bmask).bit_count()
        if s not in best or -val > best[s]:
            best[s] = -val
    if not best:
        raise ValueError("valuation violates (V1): no finite value")
    g = k = 0
    while k <= walk:
        score = max(k * s + c for s, c in best.items())
        top = max(s for s, c in best.items() if k * s + c == score)
        if top == nu.d:
            return k * top - g
        # first k' with k'*s + c_s >= k'*top + c_top: ceil((c_top - c_s) / (s - top))
        nxt = min((-((c - best[top]) // (s - top)) for s, c in best.items() if s > top),
                  default=walk + 1)
        g += top * (nxt - k)
        k = nxt
    return None


def envelope_values(nu: Valuation, cutoff: int) -> dict[int, int]:
    """``flock._local_values(nu, cutoff)`` by the envelope walk of every d-subset."""
    values = {}
    for combo in itertools.combinations(range(len(nu.ground)), nu.d):
        bmask = sum(1 << i for i in combo)
        value = envelope_value(nu, bmask, cutoff)
        if value is not None:
            values[bmask] = value
    return values


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


def fenchel_dual(h: WindowFunction, dual_lo, dual_hi) -> WindowFunction:
    """h•(x) = max over the finite domain of h of x . y - h(y)."""
    dom = [(pt, h(pt)) for pt in h.domain()]
    values = {}
    for x in _box_points(dual_lo, dual_hi):
        values[x] = max(sum(a * b for a, b in zip(x, y)) - v for y, v in dom)
    return WindowFunction(h.n, dual_lo, dual_hi, values)
