"""Dress-Wenzel constraints, rigidity verdicts, the determinant family."""

import itertools

import pytest

import matflock as mf
from matflock.rigidity import lazarson_matrix

from conftest import random_valid_valuation


LAZARSON_TO_PLANE = {"x0": 1, "x1": 2, "x2": 3, "z": 4, "y0": 5, "y1": 6, "y2": 7}


# ---------------------------------------------------------------------------
# constraint systems

def test_dw_u12_empty():
    assert len(mf.dw_constraints(mf.uniform_matroid(1, 2))) == 0


def test_dw_u24_empty():
    assert len(mf.dw_constraints(mf.uniform_matroid(2, 4))) == 0


def test_dw_fano_nonempty_and_stable():
    system = mf.dw_constraints(mf.fano_matroid())
    # 7 choices of F on a line, 3 collinear pairs, 6 partner pairs, half dedup
    assert len(system) == 105
    for lhs, rhs in system.equations:
        assert len({*lhs, *rhs}) == 4
        for B in (*lhs, *rhs):
            assert mf.fano_matroid().is_basis(B)


def test_trivial_valuations_satisfy_constraints(rng):
    mats = [mf.fano_matroid(), mf.uniform_matroid(3, 6),
            mf.lazarson(2, "full"), mf.nonfano_matroid()]
    for M in mats:
        system = mf.dw_constraints(M)
        for _ in range(5):
            alpha = {e: rng.randint(-4, 4) for e in M.ground}
            nu = mf.Valuation.from_values(
                M.ground, M.d,
                {B: sum(alpha[e] for e in B) for B in M.bases})
            assert system.holds_for(nu)


def test_valid_valuations_satisfy_constraints(rng):
    # circuit-hyperplane valuations on relaxable bases
    u = mf.uniform_matroid(3, 5)
    for B0 in list(u.bases)[:4]:
        nu = mf.circuit_hyperplane_valuation(u, B0, rng.randint(1, 3))
        assert mf.dw_constraints(u).holds_for(nu)
    # random valid valuations with full uniform support
    for _ in range(10):
        nu = random_valid_valuation(rng, 5, 2, max_inf=0)
        assert mf.dw_constraints(mf.support_matroid(nu)).holds_for(nu)


# ---------------------------------------------------------------------------
# rigidity verdicts

def test_fano_rigid():
    assert mf.rigidity_certificate(mf.fano_matroid()).kind == "rigid"


def test_uniform_corank_one_rigid():
    for n in range(2, 7):
        assert mf.rigidity_certificate(mf.uniform_matroid(1, n)).kind == "rigid"
        assert mf.rigidity_certificate(mf.uniform_matroid(n - 1, n)).kind == "rigid"


def test_rigidity_rejects_non_matroid():
    # {12, 34} fails (B2); a verdict of "rigid" would certify nothing
    M = mf.Matroid.from_bases([1, 2, 3, 4], [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match=r"\(B2\)"):
        mf.rigidity_certificate(M)


def test_u24_not_rigid_with_verified_witness():
    verdict = mf.rigidity_certificate(mf.uniform_matroid(2, 4))
    assert verdict.kind == "not_rigid"
    w = verdict.witness
    assert mf.check_valuation_axioms(w).ok
    assert mf.support_matroid(w) == mf.uniform_matroid(2, 4)
    assert not mf.is_trivial(w).trivial


def test_u24_witness_equivalent_to_canonical_form():
    # the witness lands in one of the canonical nontrivial classes on U(2,4):
    # a paired weighting like nu({1,2}) = nu({3,4}) = 1, or a one-basis bump
    verdict = mf.rigidity_certificate(mf.uniform_matroid(2, 4))
    w = verdict.witness
    pairs = list(itertools.combinations((1, 2, 3, 4), 2))
    candidates = [
        mf.Valuation.from_values([1, 2, 3, 4], 2,
                                 {B: (1 if B in chosen else 0) for B in pairs})
        for chosen in [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        + [(B,) for B in pairs]
    ]
    assert any(mf.equivalence_shift(w, cand) is not None for cand in candidates)


def test_mk4_verdict_recorded_without_asserting_rigid():
    # binary matroids are rigid in theory; the linear method may or may not
    # certify it, so only the honest verdict surface is pinned here
    k4 = mf.matroid_from_matrix(
        [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]], mf.GF(2))
    verdict = mf.rigidity_certificate(k4)
    assert verdict.kind in ("rigid", "inconclusive")


# ---------------------------------------------------------------------------
# the determinant family

def test_matrix_shape():
    rows, labels = lazarson_matrix(2)
    assert labels == ("x0", "x1", "x2", "z", "y0", "y1", "y2")
    assert rows == ((1, 0, 0, 1, 0, 1, 1),
                    (0, 1, 0, 1, 1, 0, 1),
                    (0, 0, 1, 1, 1, 1, 0))


def test_family_n2_is_the_plane_pair():
    assert mf.lazarson(2, "full").relabel(LAZARSON_TO_PLANE) == mf.fano_matroid()
    assert mf.lazarson(2, "minus").relabel(LAZARSON_TO_PLANE) == mf.nonfano_matroid()


def test_family_full_passes_axioms():
    M = mf.lazarson(3, "full")
    assert mf.check_basis_axioms(M.ground, M.d, M.bases).ok
    assert not M.is_basis(["y0", "y1", "y2", "y3"])
    assert M.is_basis(["x0", "x1", "x2", "x3"])


def test_central_bases_n2_empty():
    assert mf.central_bases(2) == ()


def test_central_bases_n3():
    got = mf.central_bases(3)
    assert len(got) == 4
    M = mf.lazarson(3, "full")
    for B in got:
        assert M.is_basis(B)
        ys = [e for e in B if e.startswith("y")]
        assert len(ys) == 3


def test_central_bases_n4_count():
    # the mixed block determinant is ±(|I| - 1), nonzero for |I| > 2, and the
    # all-y set is removed: C(5,3) + C(5,4) = 15 central bases survive
    assert len(mf.central_bases(4)) == 15


def test_char_check_values():
    for n in range(2, 7):
        for p in (2, 3, 5):
            check = mf.lazarson_char_check(n, p)
            assert check.det == n * (-1) ** n
            assert check.formula_ok
            assert check.divisible == (n % p == 0)


def test_char_check_examples():
    assert mf.lazarson_char_check(3, 3).divisible
    assert not mf.lazarson_char_check(3, 2).divisible
    assert mf.lazarson_char_check(2, 2).divisible
    assert mf.lazarson_char_check(4, 2).divisible


def test_family_needs_n_at_least_2():
    with pytest.raises(ValueError):
        mf.lazarson(1, "full")
