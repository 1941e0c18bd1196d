"""Valuations: axioms, induced matroids, cells, leaders, triviality."""

import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock.lattice import INF, vadd, ones

import oracles
from conftest import random_valid_valuation, toric_example, two_element_valuation, u24_valuation
from test_jsonio_cli import _cli_env


def all_pairs_zero(n=4):
    return mf.Valuation.from_values(
        range(1, n + 1), 2, {B: 0 for B in itertools.combinations(range(1, n + 1), 2)})


# ---------------------------------------------------------------------------
# axioms

def test_axioms_zero_valuation():
    assert mf.check_valuation_axioms(all_pairs_zero()).ok


def test_axioms_u24_weights():
    assert mf.check_valuation_axioms(u24_valuation()).ok


def test_axioms_signed_variant_is_a_trivial_shift():
    # values -1 on {1,2} and +1 on {3,4} come from the shift (-1/2,-1/2,1/2,1/2)
    nu = mf.Valuation.from_values(
        [1, 2, 3, 4], 2,
        {(1, 2): -1, (3, 4): 1, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})
    assert mf.check_valuation_axioms(nu).ok
    assert mf.is_trivial(nu).trivial


def test_axioms_violation_witness():
    # one negative value on {3,4}: the exchange out of ({1,2}, {3,4}) fails
    nu = mf.Valuation.from_values(
        [1, 2, 3, 4], 2,
        {(1, 2): 0, (3, 4): -1, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})
    check = mf.check_valuation_axioms(nu)
    assert not check.ok and check.kind == "V2"
    # the witness is a genuine counterexample: re-verify by brute force
    B, B2, i = check.witness
    lhs = nu.value(B) + nu.value(B2)
    feas = False
    for j in set(B2) - set(B):
        x = nu.value(sorted(set(B) - {i} | {j}))
        y = nu.value(sorted(set(B2) - {j} | {i}))
        if x != INF and y != INF and lhs >= x + y:
            feas = True
    assert not feas


def test_axioms_v1():
    nu = mf.Valuation([1, 2], 1, {})
    check = mf.check_valuation_axioms(nu)
    assert not check.ok and check.kind == "V1"


# ---------------------------------------------------------------------------
# support

def test_support_zero_is_uniform():
    assert mf.support_matroid(all_pairs_zero()) == mf.uniform_matroid(2, 4)


def test_support_fano_pattern():
    fano = mf.fano_matroid()
    values = {fano.labels_of(m): 0 for m in fano.masks}
    nu = mf.Valuation.from_values(fano.ground, 3, values)
    assert mf.support_matroid(nu) == fano


def test_support_toric_example():
    nu = mf.lindstrom_toric(toric_example(2))
    assert mf.support_matroid(nu) == mf.uniform_matroid(2, 4)


# ---------------------------------------------------------------------------
# g and induced matroids

def test_g_value_examples():
    assert mf.g_value(all_pairs_zero(), (0, 0, 0, 0)) == 0
    assert mf.g_value(u24_valuation(), (1, 0, 0, 0)) == 1


def test_g_shift_identity():
    nu = u24_valuation()
    rng = random.Random(7)
    for _ in range(20):
        a = tuple(rng.randint(-4, 4) for _ in range(4))
        assert mf.g_value(nu, vadd(a, ones(4))) == mf.g_value(nu, a) + nu.d


def test_matroid_at_examples():
    nu = u24_valuation()
    assert sorted(mf.matroid_at(nu, (0, 0, 0, 0)).bases) == \
        [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert sorted(mf.matroid_at(nu, (2, 0, 1, 0)).bases) == [(1, 3)]


def test_matroid_at_two_element_flock_shape():
    nu = two_element_valuation()
    for k in range(-3, 4):
        for l in range(-3, 4):
            bases = sorted(mf.matroid_at(nu, (k, l)).bases)
            if k == l:
                assert bases == [(1,), (2,)]
            elif k > l:
                assert bases == [(1,)]
            else:
                assert bases == [(2,)]


def test_matroid_at_always_valid_rank_d():
    rng = random.Random(3)
    nu = u24_valuation()
    for _ in range(25):
        a = tuple(rng.randint(-5, 5) for _ in range(4))
        M = mf.matroid_at(nu, a)
        assert M.d == nu.d
        assert mf.check_basis_axioms(M.ground, M.d, M.bases).ok


def test_matroid_at_minor_identity():
    # contraction/deletion compatibility under unit steps, at the valuation level
    nu = u24_valuation()
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(4))
        for i, e in enumerate(nu.ground):
            a2 = tuple(x + (1 if k == i else 0) for k, x in enumerate(a))
            left = mf.matroid_at(nu, a).minor(contract=[e])
            right = mf.matroid_at(nu, a2).minor(delete=[e])
            assert left == right


# ---------------------------------------------------------------------------
# minors and duals of valuations

def test_dual_of_zero():
    nu = mf.Valuation.from_values([1, 2, 3], 1, {(1,): 0, (2,): 0, (3,): 0})
    dual = mf.dual_valuation(nu)
    assert dual.d == 2
    assert mf.support_matroid(dual) == mf.uniform_matroid(2, 3)
    assert mf.dual_valuation(dual) == nu


def test_contract_element():
    nu = u24_valuation()
    c = mf.contract_element(nu, 4)
    assert c.d == 1 and c.ground == (1, 2, 3)
    assert c.value([3]) == 1 and c.value([1]) == 0 and c.value([2]) == 0
    assert mf.check_valuation_axioms(c).ok


def test_delete_element():
    nu = u24_valuation()
    d = mf.delete_element(nu, 4)
    assert d.ground == (1, 2, 3) and d.d == 2
    assert d.value([1, 2]) == 1 and d.value([1, 3]) == 0
    assert mf.check_valuation_axioms(d).ok


def test_minor_preconditions():
    # 1 is a coloop of the rank-1 valuation on a single basis {1}
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0})
    with pytest.raises(ValueError):
        mf.delete_element(nu, 1)
    with pytest.raises(ValueError):
        mf.contract_element(nu, 2)


# ---------------------------------------------------------------------------
# triviality and equivalence

def test_trivial_zero():
    res = mf.is_trivial(all_pairs_zero())
    assert res.trivial and res.alpha == (0, 0, 0, 0)


def test_trivial_by_construction():
    alpha = (1, 2, 3)
    nu = mf.Valuation.from_values(
        [1, 2, 3], 2,
        {B: alpha[B[0] - 1] + alpha[B[1] - 1]
         for B in itertools.combinations((1, 2, 3), 2)})
    res = mf.is_trivial(nu)
    assert res.trivial
    assert mf.matroid_at(nu, res.alpha) == mf.support_matroid(nu)


def test_not_trivial_u24():
    assert not mf.is_trivial(u24_valuation()).trivial


def test_trivial_matches_rational_solve_oracle():
    # half of the cases are e_B . alpha on the support of a random valuation
    # of any shape; the other half are random valuations of rank 2 <= d <= n - 2,
    # the shapes with nontrivial ones
    rng = random.Random(1608)
    trivial = 0
    for k in range(1200):
        n = rng.randint(1, 5) if k % 2 else rng.randint(4, 5)
        d = rng.randint(0, n) if k % 2 else rng.randint(2, n - 2)
        nu = random_valid_valuation(rng, n, d, vmax=rng.randint(1, 3))
        if k % 2:
            alpha = [rng.randint(-3, 3) for _ in range(n)]
            nu = mf.Valuation(nu.ground, nu.d, {
                mask: sum(alpha[i] for i in range(n) if mask >> i & 1) for mask in nu.finite})
        got = mf.is_trivial(nu)
        assert got == oracles.rational_is_trivial(nu), nu.finite
        assert got.trivial or not k % 2
        trivial += got.trivial
    assert 600 <= trivial < 900
    # rank 0: e_B . alpha = 0 for the one subset B, so only the value 0 is trivial
    for value in (-2, 0, 3):
        nu = mf.Valuation([1, 2], 0, {0: value})
        got = mf.is_trivial(nu)
        assert got == oracles.rational_is_trivial(nu) and got.trivial == (value == 0)


def test_trivial_refuses_support_without_exchanges():
    # not a valuation: no single exchange joins {1, 2} and {3, 4}
    nu = mf.Valuation.from_values([1, 2, 3, 4], 2, {(1, 2): 0, (3, 4): 1})
    with pytest.raises(ValueError, match=r"valuation violates \(V2\)"):
        mf.is_trivial(nu)


@pytest.mark.parametrize("check", [mf.is_trivial, mf.enumerate_leaders])
def test_refuses_equal_values_on_a_support_without_exchanges(check):
    # with equal values the difference system is empty and the leader scan
    # sees one family, {12, 34}, which is not a matroid
    nu = mf.Valuation.from_values([1, 2, 3, 4], 2, {(1, 2): 0, (3, 4): 0})
    with pytest.raises(ValueError, match=r"valuation violates \(V2\)"):
        check(nu)


def test_one_exchange_walk_per_valuation(exchange_walks):
    # the (V1)/(V2) verdict is stored on the Valuation: the scans and the
    # triviality test on one map walk its exchanges once between them, and a
    # map failing (V2) raises the same error from each, on every call
    nu = mf.circuit_hyperplane_valuation(mf.uniform_matroid(2, 5), (1, 2), 1)
    mf.enumerate_leaders(nu)
    mf.zero_dimensional_cells(nu)
    assert not mf.is_trivial(nu).trivial
    assert len(exchange_walks) == 1
    bad = mf.Valuation.from_values([1, 2, 3, 4], 2, {(1, 2): 0, (3, 4): 0})
    for _ in range(2):
        for check in (mf.enumerate_leaders, mf.zero_dimensional_cells, mf.is_trivial):
            with pytest.raises(ValueError) as err:
                check(bad)
            assert str(err.value) == "valuation violates (V2) at ((1, 2), (3, 4), 2)"
    assert len(exchange_walks) == 2


def test_valuation_values_are_read_only():
    nu = u24_valuation()
    mask = min(nu.finite)
    with pytest.raises(TypeError):
        nu.finite[mask] = 0
    values = dict(nu.finite)
    assert nu.finite == values and nu.finite.items() == values.items()
    assert nu.finite.keys() | {0} == values.keys() | {0}


def test_valuation_fields_cannot_be_rebound_after_a_verdict():
    # the verdict check_valuation_axioms stores must keep describing nu:
    # d = 3 on U(2, 4) would otherwise still read as a valid valuation
    nu = u24_valuation()
    verdict = mf.check_valuation_axioms(nu)
    assert verdict.ok
    for name, value in (("d", 3), ("ground", (1, 2, 3)), ("finite", {})):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(nu, name, value)
    assert (nu.d, nu.ground, len(nu.finite)) == (2, (1, 2, 3, 4), 6)
    assert mf.check_valuation_axioms(nu) is verdict
    object.__setattr__(nu, "_axioms", None)     # the stored verdict itself stays writable
    assert mf.check_valuation_axioms(nu) == verdict


def test_equivalence_shift():
    nu = u24_valuation()
    assert mf.equivalence_shift(nu, nu) is not None

    shift = (0, 1, -1, 0)
    shifted = mf.Valuation.from_values(
        nu.ground, 2,
        {nu.labels_of(m): v + shift[nu.labels_of(m)[0] - 1] + shift[nu.labels_of(m)[1] - 1]
         for m, v in nu.finite.items()})
    got = mf.equivalence_shift(nu, shifted)
    assert got is not None
    # agreement on every support basis, up to the solve's kernel
    for m in nu.finite:
        B = nu.labels_of(m)
        assert nu.value(B) == shifted.value(B) + sum(got[e - 1] for e in B)

    zero = all_pairs_zero()
    assert mf.equivalence_shift(u24_valuation(), zero) is None


def test_equivalence_shift_support_mismatch():
    small = mf.Valuation.from_values(
        [1, 2, 3, 4], 2, {(1, 2): 0, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})
    assert mf.equivalence_shift(small, all_pairs_zero()) is None


# ---------------------------------------------------------------------------
# circuit-hyperplane style valuations

def test_circuit_hyperplane_zero_is_zero():
    nu = mf.circuit_hyperplane_valuation(mf.uniform_matroid(2, 4), [1, 2], 0)
    assert nu == all_pairs_zero()


def test_circuit_hyperplane_nontrivial():
    nu = mf.circuit_hyperplane_valuation(mf.uniform_matroid(2, 4), [1, 2], 1)
    assert mf.check_valuation_axioms(nu).ok
    assert not mf.is_trivial(nu).trivial


def test_circuit_hyperplane_fano_rejected():
    fano = mf.fano_matroid()
    for B0 in list(fano.bases)[:5]:
        with pytest.raises(ValueError):
            mf.circuit_hyperplane_valuation(fano, B0, 1)


# ---------------------------------------------------------------------------
# cells

def test_cell_zero_valuation_diagonal():
    nu = all_pairs_zero()
    cells = mf.cell_inequalities(nu, (0, 0, 0, 0))
    # every ordered pair constrained by alpha_i - alpha_j >= 0
    assert set(cells.constraints) == {
        (i, j, 0) for i in range(1, 5) for j in range(1, 5) if i != j}


def test_cell_contains_beta_and_shift():
    for nu in (all_pairs_zero(), u24_valuation()):
        for beta in [(0, 0, 0, 0), (2, -1, 0, 3)]:
            cells = mf.cell_inequalities(nu, beta)
            assert cells.contains(beta)
            assert cells.contains(vadd(beta, ones(4)))


def test_cell_membership_matches_superset():
    rng = random.Random(11)
    nu = u24_valuation()
    beta = (0, 0, 0, 0)
    cells = mf.cell_inequalities(nu, beta)
    base = mf.matroid_at(nu, beta).masks
    for _ in range(120):
        a = tuple(rng.randint(-3, 3) for _ in range(4))
        inside = mf.valuation.optimal_masks(nu, a) >= base
        assert cells.contains(a) == inside


# ---------------------------------------------------------------------------
# leaders

def test_leaders_zero_valuation():
    scan = mf.enumerate_leaders(all_pairs_zero())
    assert scan.complete
    reps = {alpha: M for M, alpha in scan.leaders}
    assert reps[(0, 0, 0, 0)] == mf.uniform_matroid(2, 4)
    # unique-argmax directions give single-basis matroids
    singles = [M for M in scan.matroids() if len(M.masks) == 1]
    assert len(singles) == 6


def test_leaders_u24_weights():
    scan = mf.enumerate_leaders(u24_valuation())
    assert scan.complete
    reps = {alpha: M for M, alpha in scan.leaders}
    assert sorted(reps[(0, 0, 0, 0)].bases) == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_leaders_two_element():
    scan = mf.enumerate_leaders(two_element_valuation())
    assert scan.complete
    assert len(scan.leaders) == 3


def test_leader_matroids_equal_validated_ones():
    # leaders are built on the valuation's ground set without a second
    # validation; they must behave as the same matroids built through the
    # public constructor: equality, hash, labels and masks
    for nu in (u24_valuation(), two_element_valuation(),
               mf.Valuation.from_values(["a", "b", "c"], 2, {("a", "b"): 3, ("a", "c"): 1,
                                                             ("b", "c"): 0})):
        for M, _ in mf.enumerate_leaders(nu).leaders:
            built = mf.Matroid(nu.ground, M.masks)
            assert M == built and hash(M) == hash(built)
            assert (M.ground, M.d, M.bases, repr(M)) == (built.ground, built.d, built.bases,
                                                        repr(built))
            for mask in M.masks:
                assert M.labels_of(mask) == built.labels_of(mask)
                assert M.mask_of(M.labels_of(mask)) == mask
            with pytest.raises(ValueError, match="unknown element"):
                M.mask_of([True] if nu.ground[0] == 1 else ["z"])


def test_trivial_iff_support_among_leaders():
    cases = [
        all_pairs_zero(),
        u24_valuation(),
        mf.circuit_hyperplane_valuation(mf.uniform_matroid(2, 4), [1, 3], 2),
        mf.Valuation.from_values([1, 2, 3], 2, {(1, 2): 3, (1, 3): 1, (2, 3): 0}),
    ]
    for nu in cases:
        support = mf.support_matroid(nu)
        seen = any(M == support for M in mf.enumerate_leaders(nu).matroids())
        assert seen == mf.is_trivial(nu).trivial


# ---------------------------------------------------------------------------
# zero-dimensional cells

def test_zero_dim_cells_u24():
    cells = mf.zero_dimensional_cells(u24_valuation())
    assert cells == [(0, 0, -1, -1), (0, 0, 1, 1)]
    # both vertices really induce incomparable maximal basis sets
    for c in cells:
        assert len(mf.matroid_at(u24_valuation(), c).masks) >= 4


def _walk_cases():
    """Seeded valuations for the vertex walk, each with the window radii to
    compare at: random valid ones with n <= 6, every rank and up to four
    infinite values, and circuit-hyperplane valuations."""
    rng = random.Random(2810)
    radii = (None, 0, 1, 2, 3)
    cases = [(random_valid_valuation(rng, n, d, vmax=3, max_inf=4), radii)
             for n in range(1, 7) for d in range(0, n + 1) for _ in range(3)]
    u37 = mf.uniform_matroid(3, 7)
    cases += [
        (mf.circuit_hyperplane_valuation(u37, (1, 2, 3), 1), radii),
        # the default radius 13 scans 27^5 heads: too slow for the oracle here
        (mf.circuit_hyperplane_valuation(u37, (1, 2, 3), 2), radii[1:]),
        (mf.circuit_hyperplane_valuation(mf.named_matroid("nonfano"), (5, 6, 7), 1), radii),
    ]
    for d, n in ((2, 5), (3, 6)):
        for v in (1, 2):
            M = mf.uniform_matroid(d, n)
            cases.append((mf.circuit_hyperplane_valuation(M, M.bases[0], v), radii))
    return cases


def test_zero_dim_cells_match_leader_vertex_oracle():
    # the walk from vertex to vertex against the window scan's connected
    # leaders, which need the window to hold every vertex to find it
    vertices = empty = 0
    for nu, radii in _walk_cases():
        for radius in radii:
            want = oracles._leader_vertices(mf.enumerate_leaders(nu, radius))
            assert mf.zero_dimensional_cells(nu, radius) == want, (nu.finite, radius)
            vertices += len(want)
            empty += not want
    assert vertices >= 250 and empty >= 50


def test_zero_dim_cells_refuse_non_valuations():
    with pytest.raises(ValueError, match=r"valuation violates \(V1\)"):
        mf.zero_dimensional_cells(mf.Valuation([1, 2], 1, {}))
    # the exchange of 1 and 3 between {1, 2} and {3, 4} has no partner
    nu = mf.Valuation.from_values([1, 2, 3, 4], 2, {(1, 2): 0, (3, 4): 0})
    with pytest.raises(ValueError, match=r"valuation violates \(V2\)"):
        mf.zero_dimensional_cells(nu)


@pytest.mark.parametrize("scan", [mf.enumerate_leaders, mf.zero_dimensional_cells])
def test_window_radius_must_be_a_nonnegative_integer(scan):
    nu = u24_valuation()
    for radius in (1.5, True, False, "2", float("inf")):
        with pytest.raises(ValueError, match="window radius must be an integer"):
            scan(nu, radius)
    with pytest.raises(ValueError, match="window radius must be nonnegative"):
        scan(nu, -1)
    # an integral value of another type reads as that integer
    assert scan(nu, 2.0) == scan(nu, 2)
    if scan is mf.enumerate_leaders:
        assert scan(nu, 2.0).radius == 2 and type(scan(nu, 2.0).radius) is int


def test_zero_dim_cells_wide_spread_in_bounded_time_without_numpy():
    # at v = 4 the default radius is 25: the window scan would score 51^5
    # heads, while the walk visits the two vertices
    code = ("import sys, matflock as mf; "
            "nu = mf.circuit_hyperplane_valuation(mf.uniform_matroid(3, 7), (1, 2, 3), 4); "
            "print(mf.zero_dimensional_cells(nu)); print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_cli_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[(0, 0, 0, -4, -4, -4, -4), (0, 0, 0, 0, 0, 0, 0)]", "False"]


# ---------------------------------------------------------------------------
# randomized: every accepted valuation behaves

@given(st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_random_valuations_structure(vals):
    pairs = list(itertools.combinations(range(1, 5), 2))
    nu = mf.Valuation.from_values([1, 2, 3, 4], 2, dict(zip(pairs, vals)))
    if not mf.check_valuation_axioms(nu).ok:
        return
    M = mf.support_matroid(nu)
    assert mf.check_basis_axioms(M.ground, M.d, M.bases).ok
    for a in [(0, 0, 0, 0), (1, 0, -1, 2), (-2, 1, 0, 0)]:
        Ma = mf.matroid_at(nu, a)
        assert Ma.d == 2
        assert mf.check_basis_axioms(Ma.ground, 2, Ma.bases).ok
