"""Toric and additive-polynomial representations and their flocks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import linalg
from matflock.algebraic import _param_polymatrix, _space_contract, _space_delete, _tangent_at
from matflock.lattice import INF

import flockprops
from conftest import example_param, random_saturated_toric, toric_example


# ---------------------------------------------------------------------------
# lattice saturation

def test_saturate_examples():
    assert mf.saturate_lattice([[2, 0], [0, 1]]) == ((1, 0), (0, 1))
    assert mf.saturate_lattice([[1, 1]]) == ((1, 1),)
    assert mf.saturate_lattice([[2, 2]]) == ((1, 1),)


def test_saturate_rank_deficient_rejected():
    with pytest.raises(ValueError):
        mf.saturate_lattice([[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# p-adic minors

def test_padic_minor_examples():
    assert mf.padic_minor_valuation([[1, 0], [0, 1]], [1, 2], 2) == 0
    assert mf.padic_minor_valuation([[1, 0, 1, 1], [0, 1, 1, 2]], [1, 4], 2) == 1
    assert mf.padic_minor_valuation([[1, 2], [2, 4]], [1, 2], 3) == INF
    with pytest.raises(ValueError):
        mf.padic_minor_valuation([[1, 0], [0, 1]], [1, 2], 6)


# ---------------------------------------------------------------------------
# toric representations

def test_lindstrom_toric_example_p2():
    nu = mf.lindstrom_toric(toric_example(2))
    assert nu.value([1, 4]) == 1
    assert all(nu.value(B) == 0
               for B in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def test_lindstrom_toric_example_p3():
    nu = mf.lindstrom_toric(toric_example(3))
    assert all(nu.value(B) == 0
               for B in itertools.combinations((1, 2, 3, 4), 2))


def test_lindstrom_cache_is_bounded(rng):
    from matflock import algebraic
    algebraic._lindstrom_cache.clear()
    cap = algebraic._LINDSTROM_CACHE_CAP
    reps = set()
    while len(reps) < cap + 10:
        reps.add(random_saturated_toric(rng, 2, 3, rng.choice([2, 3, 5]), -9, 9))
    for rep in reps:
        mf.lindstrom_toric(rep)
        assert len(algebraic._lindstrom_cache) <= cap
    last = list(reps)[-1]
    assert last in algebraic._lindstrom_cache
    assert mf.lindstrom_toric(last) is algebraic._lindstrom_cache[last]


def test_lindstrom_identity_matrix():
    rep = mf.ToricRep(((1, 0), (0, 1)), 5)
    nu = mf.lindstrom_toric(rep)
    assert nu.value([1, 2]) == 0 and len(nu.finite) == 1


def test_lindstrom_support_is_rational_matroid():
    rng = random.Random(1)
    for _ in range(10):
        rep = random_saturated_toric(rng, rng.randint(1, 3), rng.randint(3, 5),
                                     rng.choice([2, 3, 5]))
        assert mf.support_matroid(mf.lindstrom_toric(rep)) == \
            mf.matroid_from_matrix(rep.A, mf.QQ)


def test_unsaturated_rejected():
    with pytest.raises(ValueError):
        mf.ToricRep(((2, 0), (0, 2)), 2)


def test_toric_matroid_at_examples():
    rep = toric_example(2)
    assert sorted(mf.toric_matroid_at(rep, (0, 0, 0, 0)).bases) == \
        [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    assert sorted(mf.toric_matroid_at(rep, (0, 0, 0, 1)).bases) == \
        [(2, 4), (3, 4)]
    assert mf.toric_matroid_at(rep, (1, 1, 1, 1)) == \
        mf.toric_matroid_at(rep, (0, 0, 0, 0))


def test_row_scaling_by_p_free_integer_is_invisible():
    A = ((1, 0, 1, 1), (0, 1, 1, 2))
    scaled = ((3, 0, 3, 3), (0, 1, 1, 2))
    # scaling a row by 3 keeps the p=2 valuation of every minor
    nu = mf.lindstrom_toric(mf.ToricRep(A, 2))
    got = [(B, mf.padic_minor_valuation(scaled, B, 2))
           for B in itertools.combinations((1, 2, 3, 4), 2)]
    for B, v in got:
        assert v == nu.value(B)


def test_flock_from_toric_matches_direct_valuation():
    rep = toric_example(2)
    flock = mf.flock_from_toric(rep)
    assert mf.extract_valuation(flock) == mf.lindstrom_toric(rep)
    assert mf.check_flock_axioms(flock, 3).ok


def test_flock_from_identity_is_constant():
    rep = mf.ToricRep(((1, 0), (0, 1)), 3)
    flock = mf.flock_from_toric(rep)
    masks = {flock.masks_at(a) for a in itertools.product(range(-2, 3), repeat=2)}
    assert len(masks) == 1


def test_toric_oracle_equivalence_random(rng):
    for _ in range(12):
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        rep = random_saturated_toric(rng, d, n, rng.choice([2, 3, 5]))
        assert mf.extract_valuation(mf.flock_from_toric(rep)) == \
            mf.lindstrom_toric(rep)


# ---------------------------------------------------------------------------
# linearized parametrizations

def test_param_validation():
    with pytest.raises(ValueError):
        mf.LinearizedParam(4, 1, [[(0, 0, 1)]])
    with pytest.raises(ValueError):
        mf.LinearizedParam(2, 1, [[(0, 0, 1), (0, 0, 1)]])
    with pytest.raises(ValueError):
        mf.LinearizedParam(2, 1, [[(0, 0, 2)]])  # 2 == 0 in GF(2)
    with pytest.raises(ValueError):
        mf.LinearizedParam(2, 2, [[(0, 0, 1)], []])


def test_generic_rank_and_support():
    param = example_param(2, 2)
    assert mf.generic_rank(param) == 2
    assert mf.linearized_support_matroid(param) == mf.uniform_matroid(2, 4)
    # an inseparable parametrization still has full generic rank
    insep = mf.LinearizedParam(2, 2, [[(0, 0, 1)], [(0, 0, 1), (1, 1, 1)]])
    assert mf.generic_rank(insep) == 2


def test_shift_matches_displayed_parametrizations():
    param = example_param(2, 2)
    s1 = mf.linearized_shift(param, (0, -1, -1, 0))
    assert s1.coords == (
        ((0, 0, 1),), ((1, 0, 1),),
        ((0, 1, 1), (1, 0, 1)), ((0, 0, 1), (1, 1, 1)))
    s2 = mf.linearized_shift(param, (0, -2, -2, 0))
    assert s2.coords == (
        ((0, 0, 1),), ((1, 0, 1),),
        ((0, 2, 1), (1, 0, 1)), ((0, 0, 1), (1, 0, 1)))


def test_shift_round_trip_and_composition(rng):
    param = example_param(2, 2)
    one = (1, 1, 1, 1)
    assert mf.linearized_shift(mf.linearized_shift(param, one),
                               tuple(-x for x in one)) == param
    for _ in range(15):
        a = tuple(rng.randint(-2, 2) for _ in range(4))
        b = tuple(rng.randint(-2, 2) for _ in range(4))
        left = mf.linearized_shift(mf.linearized_shift(param, a), b)
        right = mf.linearized_shift(param, tuple(x + y for x, y in zip(a, b)))
        assert left == right


def test_tangent_matrices_match_display():
    param = example_param(2, 2)
    assert mf.linearized_tangent(param) == ((1, 0, 1, 1), (0, 1, 1, 0))
    assert mf.linearized_tangent(mf.linearized_shift(param, (0, -1, -1, 0))) == \
        ((1, 0, 0, 1), (0, 1, 1, 0))
    assert mf.linearized_tangent(mf.linearized_shift(param, (0, -2, -2, 0))) == \
        ((1, 0, 0, 1), (0, 1, 1, 1))


def test_linearized_flock_parallel_classes():
    flock = mf.linearized_tangent_flock(example_param(2, 2))
    at = lambda a: mf.Matroid(flock.ground, flock.masks_at(a)).parallel_pairs()
    assert at((0, 0, 0, 0)) == ((1, 4),)
    assert at((0, -1, -1, 0)) == ((1, 4), (2, 3))
    assert at((0, -2, -2, 0)) == ((2, 3),)


def test_linearized_identity_param():
    param = mf.LinearizedParam(3, 2, [[(0, 0, 1)], [(1, 0, 1)]])
    assert mf.check_frobenius_axioms(param, 2).ok
    flock = mf.flock_from_linearized(param)
    assert len({flock.masks_at(a)
                for a in itertools.product(range(-2, 3), repeat=2)}) == 1


def test_degenerate_parametrization_reported():
    # (s, s + t^p) has generic rank 2 but a rank-1 Jacobian everywhere;
    # saturation rescues the tangent, so the flock stays total
    param = mf.LinearizedParam(2, 2, [[(0, 0, 1)], [(0, 0, 1), (1, 1, 1)]])
    flock = mf.linearized_tangent_flock(param)
    M = flock.matroid_at((0, 0))
    assert M.d == 2 and sorted(M.bases) == [(1, 2)]


def test_frobenius_axioms_example():
    rep = mf.check_frobenius_axioms(example_param(2, 2), 3)
    assert rep.ok and rep.ff1_checked == 4 * 7 ** 4 and rep.ff2_checked == 7 ** 4


def test_frobenius_report_radius_is_checked_box():
    # the table is padded by 1; the report states the box of checked alphas
    param = example_param(2, 2)
    for r in range(3):
        assert mf.check_frobenius_axioms(param, r).radius == r
    win = mf.frobenius_window(param, 1)
    assert mf.validate_frobenius_window(win).radius == 1
    assert mf.validate_frobenius_window(win, box_radius=5).radius == 1
    with pytest.raises(ValueError, match="nonnegative"):
        mf.validate_frobenius_window(win, box_radius=-1)


def test_frobenius_corrupted_window():
    win = mf.frobenius_window(example_param(2, 2), 2)
    table = dict(win.table)
    table[(0, 0, 0, 0)] = ((1, 0, 0, 0), (0, 1, 0, 0))
    bad = mf.FrobeniusFlockWindow(2, win.p, win.d, win.ground, table)
    rep = mf.validate_frobenius_window(bad)
    assert not rep.ok and rep.violation is not None


def _random_param(rng, p, m, n, top=3):
    """A random parametrization with up to three terms per coordinate."""
    while True:
        coords = []
        for _ in range(n):
            terms = {(rng.randrange(m), rng.randint(0, top)): rng.randint(1, p - 1)
                     for _ in range(rng.randint(1, 3))}
            coords.append([(v, k, c) for (v, k), c in terms.items()])
        try:
            return mf.LinearizedParam(p, m, coords)
        except ValueError:
            continue


def test_frobenius_window_matches_tangent_route(rng):
    # the window's row spaces come from Plücker leading coefficients, one per
    # distinct matroid; the tangent route shifts and differentiates per point
    cases = [(example_param(p, g), 2) for p in (2, 3) for g in (1, 2, 3)]
    cases += [(mf.LinearizedParam(p, 2, [[(0, 0, 1)], [(0, 0, 1), (1, 1, 1)]]), 2)
              for p in (2, 3)]
    for k in range(36):
        p = (2, 3, 5)[k % 3]
        n = rng.randint(2, 4 if k % 2 else 5)
        cases.append((_random_param(rng, p, rng.randint(1, 3), n), 1 if n > 3 else 2))
    for param, radius in cases:
        win = mf.frobenius_window(param, radius)
        d = mf.generic_rank(param)
        assert win.d == d
        assert len(win.table) == (2 * radius + 1) ** param.n
        for alpha, rows in win.table.items():
            want = linalg.gf_row_space(_tangent_at(param, alpha, d), param.p)
            assert rows == want, (param.coords, alpha)


def _ff_failures(win):
    """Every failing (alpha, move order, move, left, right), point by point."""
    p, n, R = win.p, len(win.ground), win.radius
    out = []
    for alpha, rows in sorted(win.table.items()):
        for i in range(n):
            beta = tuple(a + (k == i) for k, a in enumerate(alpha))
            if max(beta) <= R:
                left = _space_contract(rows, i, p)
                right = _space_delete(win.table[beta], i, p)
                if left != right:
                    out.append((alpha, i, win.ground[i], left, right))
        beta = tuple(a + 1 for a in alpha)
        if max(beta) <= R:
            left = linalg.gf_row_space(rows, p)
            right = linalg.gf_row_space(win.table[beta], p)
            if left != right:
                out.append((alpha, n, "1", left, right))
    return out


def test_frobenius_violation_is_lex_first_then_move_order():
    win = mf.frobenius_window(example_param(2, 2), 2)
    table = dict(win.table)
    corner = (-2, -2, -2, -2)
    table[corner] = ((1, 0, 0, 0), (0, 1, 0, 0))
    bad = mf.FrobeniusFlockWindow(2, win.p, win.d, win.ground, table)
    fails = _ff_failures(bad)
    # the corner is the lex-first failing alpha, and every move fails there
    assert [f[1] for f in fails if f[0] == corner] == [0, 1, 2, 3, 4]
    rep = mf.validate_frobenius_window(bad)
    assert rep.violation == min(fails)[:1] + min(fails)[2:]
    assert rep.violation[:2] == (corner, 1)
    assert rep.ff1_failed == sum(f[1] < 4 for f in fails)
    assert rep.ff2_failed == sum(f[1] == 4 for f in fails)


def test_frobenius_window_table_must_cover_box():
    win = mf.frobenius_window(example_param(2, 1), 1)
    table = dict(win.table)
    del table[(1, 1, 1, 1)]
    with pytest.raises(ValueError):
        mf.validate_frobenius_window(mf.FrobeniusFlockWindow(1, win.p, win.d, win.ground, table))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shift_levels_fixed_by_three_properties(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    term = st.tuples(st.integers(0, m - 1), st.integers(0, 4))
    coords = data.draw(st.lists(st.dictionaries(term, st.integers(1, p - 1),
                                                min_size=1, max_size=3),
                                min_size=n, max_size=n))
    param = mf.LinearizedParam(p, m, [[(v, k, c) for (v, k), c in t.items()]
                                      for t in coords])
    alpha = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    shifted = mf.linearized_shift(param, alpha)
    offset = {}
    for a, before, after in zip(alpha, param.coords, shifted.coords):
        assert [(v, c) for v, _, c in before] == [(v, c) for v, _, c in after]
        for (v, k, _), (_, level, _) in zip(before, after):
            assert level >= 0
            # level - (k - alpha_i) is one constant per variable
            assert offset.setdefault(v, level - (k - a)) == level - (k - a)
    for v in offset:
        assert min(level for terms in shifted.coords for (u, level, _) in terms if u == v) == 0


def test_support_invariant_under_shift(rng):
    cases = [example_param(2, 2), example_param(3, 1)]
    for _ in range(4):
        m = 2
        coords = []
        for _ in range(4):
            terms = {(rng.randint(0, m - 1), rng.randint(0, 2)): 1
                     for _ in range(rng.randint(1, 3))}
            coords.append([(v, k, 1) for (v, k) in terms])
        try:
            cases.append(mf.LinearizedParam(2, m, coords))
        except ValueError:
            continue
    for param in cases:
        base = mf.linearized_support_matroid(param)
        for _ in range(6):
            a = tuple(rng.randint(-2, 2) for _ in range(param.n))
            assert mf.linearized_support_matroid(mf.linearized_shift(param, a)) == base


def test_extraction_family_p_g(rng):
    # valuation value g on {1,4}, zero elsewhere, for p in {2,3}, g in {1,2,3}
    for p in (2, 3):
        for g in (1, 2, 3):
            flock = mf.flock_from_linearized(example_param(p, g))
            nu = mf.extract_valuation(flock)
            assert nu.value([1, 4]) == g
            assert all(nu.value(B) == 0
                       for B in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    # cross-check g = 1 against the toric model with the same combinatorics
    for p in (2, 3):
        toric = mf.lindstrom_toric(mf.ToricRep(((1, 0, 1, 1), (0, 1, 1, p)), p))
        lin = mf.extract_valuation(mf.flock_from_linearized(example_param(p, 1)))
        assert toric == lin


def test_both_algebraic_sources_pass_axioms_radius_3():
    assert mf.check_flock_axioms(mf.flock_from_toric(toric_example(2)), 3).ok
    assert mf.check_flock_axioms(
        mf.flock_from_linearized(example_param(2, 2)), 3).ok


def test_property_suite_linearized(rng):
    param = example_param(2, 2)
    flock = mf.linearized_tangent_flock(param)
    support = mf.linearized_support_matroid(param)
    flockprops.run_property_suite(flock, support.masks, rng, radius=2)


# ---------------------------------------------------------------------------
# dual-route check: walk extraction against T-adic minors
#
# An additive parametrization with prime-field coefficients is a matrix over
# GF(p)[T]; the T-adic valuations of the d x d minors of any polynomial row
# basis give the same valuation as the escalation walks over the GF(p)
# tangent flock, up to the min-0 normalization.  Determinants here are
# computed by permanent-style expansion, independent of the flock machinery.

def _poly_det(rows, p):
    n = len(rows)
    total = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        sign = (-1) ** inv
        prod = (1,)
        for i in range(n):
            prod = linalg.poly_mul(prod, rows[i][perm[i]], p)
            if not prod:
                break
        if prod:
            for k, c in enumerate(prod):
                total[k] = (total.get(k, 0) + sign * c) % p
    deg = max((k for k, c in total.items() if c), default=-1)
    return linalg.poly_trim(tuple(total.get(k, 0) for k in range(deg + 1)))


def _valT_minor_valuation(param):
    mat = _param_polymatrix(param)
    d = mf.generic_rank(param)
    rows = []
    for row in mat:
        if linalg.polymat_rank(rows + [row], param.p) > len(rows):
            rows.append(row)
    assert len(rows) == d
    vals = {}
    for combo in itertools.combinations(range(param.n), d):
        det = _poly_det([[row[j] for j in combo] for row in rows], param.p)
        if det:
            vals[tuple(param.ground[j] for j in combo)] = \
                next(i for i, c in enumerate(det) if c)
    base = min(vals.values())
    return {k: v - base for k, v in vals.items()}


def _random_param(rng, p, m, n):
    """Up to three terms per coordinate, Frobenius levels 0..3."""
    coords = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(0, m - 1), rng.randint(0, 3))] = rng.randint(1, p - 1)
        coords.append([(v, k, c) for (v, k), c in terms.items()])
    return mf.LinearizedParam(p, m, coords)


def _labelled(nu):
    return {nu.labels_of(mask): v for mask, v in nu.finite.items()}


def test_extraction_matches_t_adic_minors(rng):
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3])
        m = rng.randint(1, 3)
        try:
            param = _random_param(rng, p, m, rng.randint(m, 5))
        except ValueError:
            continue
        if mf.generic_rank(param) == 0:
            continue
        expect = _valT_minor_valuation(param)
        nu = mf.extract_valuation(mf.linearized_tangent_flock(param))
        assert _labelled(nu) == expect
        assert _labelled(mf.tadic_valuation(param)) == expect
        assert _labelled(mf.flock_from_linearized(param).valuation) == expect
        checked += 1


def test_tangent_flock_equals_tadic_valuation_flock(rng):
    # (s, s + t^p) needs the saturation rescue at 0: its Jacobian has rank 1
    rescue = [mf.LinearizedParam(p, 2, [[(0, 0, 1)], [(0, 0, 1), (1, 1, 1)]])
              for p in (2, 3)]
    for param in rescue:
        assert linalg.gf_rank(mf.linearized_tangent(param), param.p) < \
            mf.generic_rank(param)
    params = list(rescue)
    while len(params) < len(rescue) + 40:
        p = rng.choice([2, 3])
        m = rng.randint(1, 3)
        try:
            params.append(_random_param(rng, p, m, rng.randint(m, 5)))
        except ValueError:
            continue
    for param in params:
        nu = mf.tadic_valuation(param)
        assert nu.d == mf.generic_rank(param) and min(nu.finite.values()) == 0
        tangent = mf.linearized_tangent_flock(param)
        for alpha in itertools.product(range(-1, 2), repeat=param.n):
            assert tangent.masks_at(alpha) == mf.matroid_at(nu, alpha).masks, \
                (param.coords, alpha)


def test_linearized_flock_is_valuation_backed():
    param = example_param(2, 2)
    flock = mf.flock_from_linearized(param)
    assert flock.source == "linearized"
    assert flock.valuation == mf.tadic_valuation(param)
    assert flock.valuation.value([1, 4]) == 2
    assert mf.support_matroid(flock.valuation) == mf.linearized_support_matroid(param)


def test_frobenius_axioms_reject_empty_ground():
    with pytest.raises(ValueError, match="empty ground set"):
        mf.check_frobenius_axioms(mf.LinearizedParam(2, 1, []), 1)
