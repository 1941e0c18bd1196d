"""Exact linear algebra against brute-force oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matflock import linalg
from matflock.lattice import INF

from test_algebraic import _poly_det


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


small_ints = st.integers(min_value=-6, max_value=6)


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
