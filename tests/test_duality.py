"""Duality as a second route: each identity reaches one answer through the
dual object, which shares only the kernels with the direct route."""

import random

import matflock as mf
from matflock import linalg

from conftest import random_valid_valuation


def test_dual_valuation_matroids_vertices_and_leaders():
    # (M^nu*_alpha) = (M^nu_{-alpha})*, the vertices of nu* are the negated
    # vertices of nu, and the leaders of nu* are the duals of nu's leaders
    rng = random.Random(8)
    for _ in range(120):
        n = rng.randint(2, 5)
        nu = random_valid_valuation(rng, n, rng.randint(0, n))
        dual = mf.dual_valuation(nu)
        for _ in range(5):
            alpha = [rng.randint(-3, 3) for _ in range(n)]
            assert mf.matroid_at(dual, alpha) == mf.matroid_at(nu, [-a for a in alpha]).dual()
        negated = sorted(tuple(-a for a in v) for v in mf.zero_dimensional_cells(nu, 3))
        assert mf.zero_dimensional_cells(dual, 3) == negated, nu.finite
        leaders = mf.enumerate_leaders(nu).matroids()
        assert set(mf.enumerate_leaders(dual).matroids()) == {M.dual() for M in leaders}


def test_dual_flock_checks_and_extracts_to_the_dual_valuation():
    # alpha -> (M^nu_{-alpha})* as an oracle flock, with no valuation
    # attached: its axioms are checked on the walked table, and its walk
    # extracts nu*, which the round trip then compares window by window
    rng = random.Random(45)
    for _ in range(40):
        n = rng.randint(2, 5)
        nu = random_valid_valuation(rng, n, rng.randint(0, n))
        flock = mf.oracle_flock(nu.ground, n - nu.d,
                                lambda a, nu=nu: mf.matroid_at(nu, tuple(-x for x in a)).dual())
        assert mf.check_flock_axioms(flock, 2, check_sets=n <= 4).ok, nu.finite
        got = mf.extract_valuation(flock, verify_radius=2)
        assert got == mf.dual_valuation(nu).normalized(), nu.finite


def test_gale_dual_toric_rep_has_the_dual_lindstrom_valuation():
    # a saturated A and the saturation of its kernel have the same Plücker
    # vector up to sign on complementary columns, so the p-adic valuations
    # of their minors are dual
    rng = random.Random(5)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 5)
        d = rng.randint(1, min(3, n - 1))
        rows = [[int(i == j) for j in range(d)] + [rng.randint(-4, 4) for _ in range(n - d)]
                for i in range(d)]
        order = rng.sample(range(n), n)
        A = [[row[j] for j in order] for row in rows]
        K = mf.saturate_lattice(linalg.rat_kernel(A))
        want = mf.dual_valuation(mf.lindstrom_toric(mf.ToricRep(A, p)))
        assert mf.lindstrom_toric(mf.ToricRep(K, p)) == want, (A, p)


def test_rigidity_verdict_of_the_dual_matroid():
    # a valuation of M dualizes to one of M*, and a trivial one to a trivial
    # one, so M is rigid exactly when M* is
    kinds = {}
    for name, M in (("fano", mf.fano_matroid()), ("nonfano", mf.nonfano_matroid()),
                    ("U(2,5)", mf.uniform_matroid(2, 5)), ("U(3,6)", mf.uniform_matroid(3, 6)),
                    ("lazarson(3)", mf.lazarson(3, "full")),
                    ("lazarson(3) minus", mf.lazarson(3, "minus"))):
        verdict = mf.rigidity_certificate(M)
        assert mf.rigidity_certificate(M.dual()).kind == verdict.kind, name
        kinds[name] = verdict.kind
        if verdict.kind == "not_rigid":
            nu = mf.dual_valuation(verdict.witness)
            assert mf.check_valuation_axioms(nu).ok and not mf.is_trivial(nu).trivial, name
            assert mf.support_matroid(nu) == M.dual(), name
    assert kinds == {"fano": "rigid", "nonfano": "not_rigid", "U(2,5)": "not_rigid",
                     "U(3,6)": "not_rigid", "lazarson(3)": "rigid",
                     "lazarson(3) minus": "not_rigid"}
