"""Exact linear algebra against brute-force oracles."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matflock import linalg
from matflock.lattice import INF

from test_algebraic import _poly_det
from test_jsonio_cli import HARD_TORIC_ROWS


def naive_det(rows):
    """Permutation expansion; the independent determinant oracle."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def gauss_jordan(rows, p=None):
    """Textbook Gauss-Jordan in Fractions, over Q or (with p) over GF(p).

    The RREF oracle for the library's fraction-free elimination: it divides
    each pivot row by its pivot, so every entry is reduced at every step.
    """
    red = (lambda x: x) if p is None else (lambda x: x % p)
    M = [[red(Fraction(x)) for x in row] for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = []
    r = 0
    for j in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if M[i][j] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][j] if p is None else pow(int(M[r][j]), -1, p)
        M[r] = [red(x * inv) for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][j] != 0:
                c = M[i][j]
                M[i] = [red(a - c * b) for a, b in zip(M[i], M[r])]
        pivots.append(j)
        r += 1
    return [tuple(row) for row in M], pivots


small_ints = st.integers(min_value=-6, max_value=6)
small_fracs = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                        st.integers(min_value=1, max_value=3))


@st.composite
def matrices(draw, entries):
    """Rectangular matrices; some get a row that is a combination of others,
    so rank-deficient ones are common, and some are all zero."""
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    kind = draw(st.sampled_from(["plain", "dependent", "zero"]))
    if kind == "zero":
        rows = [[0] * n for _ in range(m)]
    elif kind == "dependent":
        a, b = draw(small_ints), draw(small_ints)
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows.insert(draw(st.integers(0, m)),
                    [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=120, deadline=None)
def test_bareiss_matches_permanent_expansion(rows):
    assert linalg.det_int(rows) == naive_det(rows)


def test_det_singular_and_identity():
    assert linalg.det_int([[1, 0], [0, 1]]) == 1
    assert linalg.det_int([[2, 4], [1, 2]]) == 0
    assert linalg.det_int([]) == 1


def test_det_frac():
    rows = [[Fraction(1, 2), 1], [1, Fraction(3, 2)]]
    assert linalg.det_frac(rows) == Fraction(1, 2) * Fraction(3, 2) - 1


def test_val_p():
    assert linalg.val_p_int(12, 2) == 2
    assert linalg.val_p_int(12, 3) == 1
    assert linalg.val_p_int(0, 5) == INF
    assert linalg.val_p(Fraction(1, 2), 2) == -1
    assert linalg.val_p(Fraction(9, 5), 3) == 2
    with pytest.raises(ValueError):
        linalg.val_p(1, 4)


def test_gf_rank_and_row_space():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert linalg.gf_rank(rows, 2) == 2
    assert linalg.gf_rank(rows, 3) == 3
    # canonical row space: same space regardless of presentation
    a = linalg.gf_row_space([[1, 0, 1], [0, 1, 1]], 2)
    b = linalg.gf_row_space([[1, 1, 0], [0, 1, 1]], 2)
    assert a == b


def test_rat_solve_and_kernel():
    A = [[1, 1, 0], [0, 1, 1]]
    x = linalg.rat_solve(A, [3, 5])
    assert x is not None
    assert [sum(a * b for a, b in zip(row, x)) for row in A] == [3, 5]
    assert linalg.rat_solve([[1, 1], [1, 1]], [0, 1]) is None
    kern = linalg.rat_kernel(A)
    assert len(kern) == 1
    v = kern[0]
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in A)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                               min_size=m, max_size=m)))))
@settings(max_examples=80, deadline=None)
def test_snf_transform_identities(data):
    _, rows = data
    S, U, V = linalg.smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    # S == U @ rows @ V, exactly
    UA = [[sum(U[i][k] * rows[k][j] for k in range(m)) for j in range(n)]
          for i in range(m)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)]
           for i in range(m)]
    assert [list(r) for r in S] == UAV
    assert abs(linalg.det_int(U)) == 1
    assert abs(linalg.det_int(V)) == 1
    # diagonal, nonnegative, divisor chain
    diag = [S[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_snf_known_case():
    S, _, _ = linalg.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [S[i][i] for i in range(3)] == [2, 2, 156]


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m),
            st.sampled_from(["plain", "dependent", "zero row"])))))
@settings(max_examples=200, deadline=None)
def test_is_saturated_matches_smith_form(case):
    rows, kind = case
    if kind == "dependent":
        rows = rows + [[2 * x - y for x, y in zip(rows[0], rows[-1])]]
    elif kind == "zero row":
        rows = rows + [[0] * len(rows[0])]
    S, _, _ = linalg.smith_normal_form(rows)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    want = len(diag) >= len(rows) and all(abs(x) == 1 for x in diag[:len(rows)])
    assert linalg.is_saturated(rows) == want


def test_integer_right_kernel():
    kern = linalg.integer_right_kernel([[2, 2]])
    assert len(kern) == 1
    assert kern[0][0] + kern[0][1] == 0
    # empty matrix: the whole lattice
    kern = linalg.integer_right_kernel([], ncols=2)
    assert sorted(kern) == [(0, 1), (1, 0)]


def test_saturate_rows_examples():
    assert linalg.saturate_rows([[2, 0], [0, 1]]) == ((1, 0), (0, 1))
    assert linalg.saturate_rows([[1, 1]]) == ((1, 1),)
    assert linalg.saturate_rows([[2, 2]]) == ((1, 1),)
    assert linalg.saturate_rows([[Fraction(1, 2), Fraction(1, 2)]]) == ((1, 1),)
    with pytest.raises(ValueError):
        linalg.saturate_rows([[1, 1], [2, 2]])


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.lists(small_ints, min_size=4, max_size=4), min_size=d, max_size=d)))
@settings(max_examples=60, deadline=None)
def test_saturation_is_idempotent_and_saturated(rows):
    if linalg.rat_rank(rows) != len(rows):
        return
    sat = linalg.saturate_rows(rows)
    assert linalg.is_saturated(sat)
    assert linalg.saturate_rows(sat) == sat
    # same rational row space
    assert linalg.rat_rank(list(rows) + list(sat)) == len(rows)


def _saturate_by_smith(rows):
    """The kernel-of-kernel saturation through Smith forms, as an oracle."""
    n = len(rows[0])
    kern = linalg.integer_right_kernel(rows)
    if not kern:
        return linalg.hermite_normal_form([[int(i == j) for j in range(n)] for i in range(n)])
    return linalg.hermite_normal_form(
        linalg.integer_right_kernel([list(k) for k in kern], ncols=n))


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.integers(min_value=d, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=d, max_size=d),
            st.integers(min_value=1, max_value=3)))))
@settings(max_examples=150, deadline=None)
def test_saturate_rows_matches_smith_route(case):
    rows, scale = case
    # scaling the last row makes most inputs unsaturated, so both routes run
    rows = rows[:-1] + [[scale * x for x in rows[-1]]]
    if linalg.rat_rank(rows) != len(rows):
        return
    assert linalg.saturate_rows(rows) == _saturate_by_smith(rows)


def test_saturate_rows_saturated_input_in_bounded_time():
    # a subprocess, so that an unbounded Smith form fails by timeout
    code = ("import json, sys; from matflock import linalg; "
            "print(json.dumps(linalg.saturate_rows(json.loads(sys.argv[1]))))")
    env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(HARD_TORIC_ROWS)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == 0, done.stderr
    # the rows are saturated, so their saturation is their own lattice
    assert linalg.is_saturated(HARD_TORIC_ROWS)
    assert json.loads(done.stdout) == [list(row) for row in
                                       linalg.hermite_normal_form(HARD_TORIC_ROWS)]


def test_hermite_canonical():
    a = linalg.hermite_normal_form([[1, 2], [0, 3]])
    b = linalg.hermite_normal_form([[1, 5], [0, 3]])
    assert a == b


def test_polymat_rank():
    one = (1,)
    T = (0, 1)
    T2 = (0, 0, 1)
    # the additive example: columns (1,0),(0,1),(1,1),(1,T^2)
    mat = [[one, (), one, one], [(), one, one, T2]]
    assert linalg.polymat_rank(mat, 2) == 2
    # proportional columns over GF(2)(T)
    assert linalg.polymat_rank([[one, T], [T, T2]], 2) == 1
    assert linalg.polymat_rank([[()]], 2) == 0
    # (s, s + t^p): rank 2 although the constant-term matrix has rank 1
    assert linalg.polymat_rank([[one, one], [(), T]], 2) == 2


@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), max_size=4)
            .map(lambda c: linalg.poly_trim(tuple(c))),
            min_size=n, max_size=n), min_size=n, max_size=n)))))
@settings(max_examples=150, deadline=None)
def test_poly_bareiss_matches_permutation_expansion(case):
    p, rows = case
    assert linalg.poly_det(rows, p) == _poly_det(rows, p)


def test_poly_divexact():
    a, b = (1, 1), (2, 0, 1)                      # 1 + T, 2 + T^2 over GF(3)
    assert linalg.poly_divexact(linalg.poly_mul(a, b, 3), b, 3) == a
    assert linalg.poly_divexact((), b, 3) == ()
    with pytest.raises(ValueError):
        linalg.poly_divexact((1, 0, 1), (1, 1), 3)  # 1 + T^2 = (1 + T)(2 + T) + 2
    with pytest.raises(ValueError):
        linalg.poly_divexact((1,), (0, 1), 2)
    with pytest.raises(ZeroDivisionError):
        linalg.poly_divexact((1,), (), 2)


@given(matrices(st.one_of(small_ints, small_fracs)))
@settings(max_examples=200, deadline=None)
def test_rational_elimination_matches_gauss_jordan(rows):
    rref, pivots = gauss_jordan(rows)
    assert linalg.rat_rref(rows) == (rref, pivots)
    assert linalg.rat_rank(rows) == len(pivots)
    if len(rows) == len(rows[0]):
        assert linalg.det_frac(rows) == naive_det([list(map(Fraction, r)) for r in rows])


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p),
                        matrices(st.integers(min_value=-p, max_value=2 * p)))))
@settings(max_examples=200, deadline=None)
def test_gf_elimination_matches_gauss_jordan(case):
    p, rows = case
    rref, pivots = gauss_jordan(rows, p)
    assert linalg.gf_rref(rows, p) == (rref, pivots)
    assert linalg.gf_rank(rows, p) == len(pivots)


@given(matrices(small_ints))
@settings(max_examples=150, deadline=None)
def test_bareiss_output_is_delta_times_rref(rows):
    M, pivots, _ = linalg._bareiss(rows, linalg._ZZ)
    rref, expect = gauss_jordan(rows)
    assert pivots == expect
    delta = M[len(pivots) - 1][pivots[-1]] if pivots else 1
    assert all(M[r][j] == delta for r, j in enumerate(pivots))
    assert [[Fraction(x, delta) for x in row] for row in M] == [list(r) for r in rref]


def test_elimination_edge_cases():
    assert linalg.rat_rref([[0, 0], [0, 0]]) == ([(0, 0), (0, 0)], [])
    assert linalg.gf_rref([[0, 5, 10]], 5) == ([(0, 0, 0)], [])
    assert linalg.gf_rref([[3, 6]], 7) == ([(1, 2)], [0])
    assert linalg.rat_rref([[]]) == ([()], [])
    assert linalg.det_frac([[Fraction(1, 2), 1], [1, 2]]) == 0
    assert linalg.poly_det([], 3) == (1,)
    with pytest.raises(ValueError):
        linalg.det_int([[1, 2]])


@given(st.sampled_from([2, 3]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(st.lists(
                st.lists(st.integers(min_value=0, max_value=p - 1), max_size=3)
                .map(lambda c: linalg.poly_trim(tuple(c))),
                min_size=n, max_size=n), min_size=m, max_size=m))))))
@settings(max_examples=150, deadline=None)
def test_polymat_rank_is_largest_nonzero_minor(case):
    p, rows = case
    m, n = len(rows), len(rows[0])
    rank = max((k for k in range(1, min(m, n) + 1)
                for R in itertools.combinations(range(m), k)
                for C in itertools.combinations(range(n), k)
                if _poly_det([[rows[i][j] for j in C] for i in R], p)), default=0)
    assert linalg.polymat_rank(rows, p) == rank


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if linalg.is_prime(n)] == \
        [n for n in range(20000) if _trial_division(n)]


def test_is_prime_on_pseudoprimes_and_large_primes():
    assert not linalg.is_prime(561)                     # Carmichael number
    assert not linalg.is_prime(3215031751)              # strong pseudoprime to 2, 3, 5, 7
    assert not linalg.is_prime(3825123056546413051)     # strong pseudoprime to 2, ..., 23
    assert linalg.is_prime(2 ** 61 - 1)
    assert not linalg.is_prime(2 ** 61 + 1)


def test_is_prime_refuses_beyond_proven_bound():
    assert not linalg.is_prime(2 ** 100)                # a small factor still decides
    with pytest.raises(ValueError):
        linalg.is_prime(2 ** 89 - 1)                    # prime, but above 3.3e24
    with pytest.raises(TypeError):
        linalg.is_prime(2.0)                            # a float p is never accepted


# ---------------------------------------------------------------------------
# the maximal-minor walk against one determinant per column set

@st.composite
def walk_matrices(draw, entries):
    """``matrices`` with zero columns and square shapes mixed in."""
    rows = [list(row) for row in draw(matrices(entries))]
    shape = draw(st.sampled_from(["as drawn", "zero column", "square"]))
    if shape == "zero column":
        j = draw(st.integers(0, len(rows[0]) - 1))
        for row in rows:
            row[j] = 0
    elif shape == "square":
        k = min(len(rows), len(rows[0]))
        rows = [row[:k] for row in rows[:k]]
    return rows


def _check_walk(rows, ring, rank, det, mul, neg):
    """Each nonzero maximal minor once, all off by one common factor and a
    sign from the minors of a greedily chosen row basis."""
    basis = []
    for row in rows:
        if rank(basis + [row]) > len(basis):
            basis.append(row)
    ref = {}
    for C in itertools.combinations(range(len(rows[0])), len(basis)):
        x = det([[row[j] for j in C] for row in basis])
        if x:
            ref[sum(1 << j for j in C)] = x
    got = list(linalg._maximal_minors(rows, ring))
    walk = dict(got)
    assert len(walk) == len(got) and walk.keys() == ref.keys()
    B0 = got[0][0]
    for B, x in walk.items():
        assert mul(x, ref[B0]) in (mul(ref[B], walk[B0]), neg(mul(ref[B], walk[B0])))
    return walk, ref


@given(walk_matrices(small_ints))
@settings(max_examples=200, deadline=None)
def test_minor_walk_matches_integer_determinants(rows):
    walk, ref = _check_walk(rows, linalg._ZZ, linalg.rat_rank, linalg.det_int,
                            lambda a, b: a * b, lambda a: -a)
    if linalg.rat_rank(rows) == len(rows):         # independent rows: exact up to sign
        assert {B: abs(x) for B, x in walk.items()} == {B: abs(x) for B, x in ref.items()}


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), walk_matrices(st.integers(min_value=-p, max_value=2 * p)))))
@settings(max_examples=200, deadline=None)
def test_minor_walk_matches_gf_determinants(case):
    p, rows = case
    _check_walk(rows, linalg._PrimeField(p), lambda M: linalg.gf_rank(M, p),
                lambda M: linalg.det_int(M) % p, lambda a, b: a * b % p, lambda a: -a % p)


@st.composite
def poly_walk_matrices(draw, p):
    """Matrices over GF(p)[T] with zero columns, square shapes, and a row
    that is a GF(p)[T]-combination of two others."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    poly = (st.lists(st.integers(min_value=0, max_value=p - 1), max_size=3)
            .map(lambda c: linalg.poly_trim(tuple(c))))
    rows = draw(st.lists(st.lists(poly, min_size=n, max_size=n), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["as drawn", "dependent", "zero column", "square"]))
    if shape == "dependent":
        a, b = draw(poly), draw(poly)
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows.append([linalg.poly_add(linalg.poly_mul(a, x, p), linalg.poly_mul(b, y, p), p)
                     for x, y in zip(rows[i], rows[j])])
    elif shape == "zero column":
        j = draw(st.integers(0, n - 1))
        rows = [row[:j] + [()] + row[j + 1:] for row in rows]
    elif shape == "square":
        k = min(m, n)
        rows = [row[:k] for row in rows[:k]]
    return rows


@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(st.just(p), poly_walk_matrices(p))))
@settings(max_examples=150, deadline=None)
def test_minor_walk_matches_leibniz_over_polynomials(case):
    p, rows = case
    _check_walk(rows, linalg._PolyRing(p), lambda M: linalg.polymat_rank(M, p),
                lambda M: _poly_det(M, p), lambda a, b: linalg.poly_mul(a, b, p),
                lambda a: linalg.poly_scale(a, -1, p))
