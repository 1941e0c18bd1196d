"""Matroid axioms, rank, minors, duality, and linear constructions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock.matroid import _connected
from matflock.rigidity import lazarson_matrix


def brute_minor(M: mf.Matroid, delete=(), contract=()):
    """Independent oracle: bases from the rank-function definition."""
    keep = [e for e in M.ground if e not in set(delete) | set(contract)]
    contract = list(contract)
    r_contract = M.rank(contract)

    def minor_rank(J):
        return M.rank(list(J) + contract) - r_contract

    d = minor_rank(keep)
    bases = [c for c in itertools.combinations(keep, d) if minor_rank(c) == d]
    return mf.Matroid.from_bases(keep, bases)


# ---------------------------------------------------------------------------
# basis axioms

def test_axioms_u12_valid():
    assert mf.check_basis_axioms([1, 2], 1, [[1], [2]]).ok


def test_axioms_empty_family():
    check = mf.check_basis_axioms([1, 2], 1, [])
    assert not check.ok and check.kind == "B1"


def test_axioms_exchange_failure_witness():
    check = mf.check_basis_axioms([1, 2, 3, 4], 2, [[1, 2], [3, 4]])
    assert not check.ok and check.kind == "B2"
    B, B2, i = check.witness
    assert {B, B2} == {(1, 2), (3, 4)} and i in B


def test_axioms_malformed_input_is_an_error():
    with pytest.raises(ValueError):
        mf.check_basis_axioms([1, 2, 3], 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        mf.check_basis_axioms([1, 2, 3], 2, [[1, 7]])


# ---------------------------------------------------------------------------
# rank / connectivity

def test_rank_examples():
    u24 = mf.uniform_matroid(2, 4)
    assert u24.rank([1, 2, 3]) == 2
    assert u24.rank([]) == 0
    fano = mf.fano_matroid()
    # {1, 2, 7} is a line: columns e1, e2, e1+e2
    assert fano.rank([1, 2, 7]) == 2
    assert fano.rank([1, 2, 4]) == 3


def test_connectivity_examples():
    u24 = mf.uniform_matroid(2, 4)
    assert u24.connectivity([1, 2, 3, 4]) == 0
    assert u24.connectivity([1]) == 1
    M = mf.Matroid.from_bases([1, 2, 3, 4], [[1, 3], [1, 4], [2, 3], [2, 4]])
    assert M.connectivity([1, 2]) == 0


def brute_connected(M: mf.Matroid) -> bool:
    """Oracle: no proper nonempty subset I with r(I) + r(E - I) = d."""
    return all(M.connectivity(I) > 0 for r in range(1, len(M.ground))
               for I in itertools.combinations(M.ground, r))


def test_connected_examples():
    assert _connected(mf.uniform_matroid(2, 4).masks, 4)
    # U(1, 2) ⊕ U(1, 2): {1, 2} separates
    assert not _connected(frozenset({0b0101, 0b1001, 0b0110, 0b1010}), 4)
    assert _connected(mf.fano_matroid().masks, 7)
    # a loop (element 3) and a coloop (element 1) stay isolated
    assert not _connected(frozenset({0b001, 0b010}), 3)
    assert not _connected(frozenset({0b011, 0b101}), 3)
    # one element, a loop or a coloop, is connected on its own
    assert _connected(frozenset({0}), 1) and _connected(frozenset({1}), 1)


def test_rank_monotone_and_submodular_exhaustive():
    for M in (mf.uniform_matroid(2, 4), mf.fano_matroid()):
        E = M.ground
        subsets = [tuple(c) for r in range(len(E) + 1)
                   for c in itertools.combinations(E, r)]
        rk = {S: M.rank(S) for S in subsets}
        for S in subsets:
            for e in E:
                if e not in S:
                    assert rk[S] <= rk[tuple(sorted(S + (e,)))]
        for S, T in itertools.combinations(subsets, 2):
            union = tuple(sorted(set(S) | set(T)))
            inter = tuple(sorted(set(S) & set(T)))
            assert rk[S] + rk[T] >= rk[union] + rk[inter]


# ---------------------------------------------------------------------------
# minors and duality

def test_minor_examples():
    u24 = mf.uniform_matroid(2, 4)
    assert u24.minor(delete=[4]) == mf.Matroid.from_bases(
        [1, 2, 3], itertools.combinations([1, 2, 3], 2))
    assert u24.minor(contract=[4]) == mf.Matroid.from_bases(
        [1, 2, 3], [[1], [2], [3]])
    fano = mf.fano_matroid()
    Q = fano.minor(contract=[1])
    assert Q.d == 2 and len(Q.ground) == 6
    assert len(Q.parallel_pairs()) == 3


def test_minor_overlap_is_error():
    with pytest.raises(ValueError):
        mf.uniform_matroid(2, 4).minor(delete=[1], contract=[1])


def test_minor_matches_rank_definition():
    mats = [mf.uniform_matroid(2, 4), mf.fano_matroid(),
            mf.Matroid.from_bases([1, 2, 3, 4], [[1, 3], [1, 4], [2, 3], [2, 4]])]
    for M in mats:
        for D in ([], [1], [2]):
            for C in ([], [3], [4]):
                got = M.minor(delete=D, contract=C)
                assert got == brute_minor(M, D, C)


def test_dual_examples():
    u13 = mf.uniform_matroid(1, 3)
    u23 = mf.uniform_matroid(2, 3)
    assert u13.dual() == u23
    assert u13.dual().dual() == u13
    fd = mf.fano_matroid().dual()
    assert fd.d == 4 and len(fd.masks) == 28


def test_dual_minor_commute_exhaustive():
    for M in (mf.uniform_matroid(2, 4), mf.fano_matroid()):
        E = M.ground
        for r in range(1, len(E) - M.d + 1):
            for I in itertools.combinations(E, r):
                left = M.minor(delete=I).dual()
                right = M.dual().minor(contract=I)
                assert left == right


# ---------------------------------------------------------------------------
# linear constructions

def test_from_matrix_identity_gf2():
    M = mf.matroid_from_matrix([[1, 0], [0, 1]], mf.GF(2))
    assert M == mf.Matroid.from_bases([1, 2], [[1, 2]])


def test_from_matrix_fano():
    assert len(mf.fano_matroid().masks) == 28          # 35 triples minus 7 lines
    assert len(mf.nonfano_matroid().masks) == 29       # 35 triples minus 6 lines
    assert mf.check_basis_axioms(
        mf.fano_matroid().ground, 3, mf.fano_matroid().bases).ok


def test_from_matrix_lazarson2_is_nonfano():
    rows, labels = lazarson_matrix(2)
    M = mf.matroid_from_matrix(rows, mf.QQ, ground=labels)
    relabel = {"x0": 1, "x1": 2, "x2": 3, "z": 4, "y0": 5, "y1": 6, "y2": 7}
    assert M.relabel(relabel) == mf.nonfano_matroid()


def test_from_matrix_unsorted_ground_columns():
    # column order follows the given labels, not their sorted order
    M = mf.matroid_from_matrix([[1, 0], [0, 1]], mf.QQ, ground=["b", "a"])
    assert M.rank(["a"]) == 1 and M.rank(["b"]) == 1


def test_from_matrix_rational_entries():
    M = mf.matroid_from_matrix([[Fraction(1, 2), 1, 0], [0, 1, 1]], mf.QQ)
    assert len(M.masks) == 3


def test_field_spec():
    with pytest.raises(ValueError):
        mf.GF(6)
    assert repr(mf.QQ) == "QQ"


def test_named_matroids():
    assert len(mf.named_matroid("uniform(2,4)").masks) == 6
    assert mf.named_matroid("fano") == mf.fano_matroid()
    assert mf.named_matroid("nonfano") == mf.nonfano_matroid()
    with pytest.raises(ValueError):
        mf.named_matroid("petersen")


# ---------------------------------------------------------------------------
# randomized structure checks

@st.composite
def gf_matrices(draw):
    p = draw(st.sampled_from([2, 3]))
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=rows, max_value=5))
    mat = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=p - 1),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return p, mat


@given(gf_matrices())
@settings(max_examples=60, deadline=None)
def test_from_matrix_always_yields_matroid(data):
    p, mat = data
    try:
        M = mf.matroid_from_matrix(mat, mf.GF(p))
    except ValueError:
        return  # zero matrix
    assert mf.check_basis_axioms(M.ground, M.d, M.bases).ok
    assert M.dual().dual() == M


@given(gf_matrices())
@settings(max_examples=80, deadline=None)
def test_connected_matches_separator_oracle(data):
    p, mat = data
    try:
        M = mf.matroid_from_matrix(mat, mf.GF(p))
    except ValueError:
        return  # zero matrix
    assert _connected(M.masks, len(M.ground)) == brute_connected(M)
