"""Toric and additive-polynomial representations and their flocks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import linalg
from matflock import algebraic, window
from matflock.algebraic import (_param_polymatrix, _plucker_keys, _plucker_minor, _plucker_rref,
                                _tangent_at)
from matflock.lattice import INF

import flockprops
import oracles
from conftest import example_param, extract_checked, random_saturated_toric, toric_example


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


def test_padic_minor_reads_columns_through_the_ground():
    # a repeated column is refused, not read as a vanishing minor
    with pytest.raises(ValueError, match=r"^subset \[1, 1\] repeats an element$"):
        mf.padic_minor_valuation([[1, 0], [0, 1]], [1, 1], 2)
    with pytest.raises(ValueError, match=r"^unknown element 3$"):
        mf.padic_minor_valuation([[1, 0], [0, 1]], [1, 3], 2)
    with pytest.raises(ValueError, match=r"^unknown element True$"):
        mf.padic_minor_valuation([[1, 0], [0, 1]], [True, 2], 2)
    # columns align with the ground by position, so it must be sorted
    with pytest.raises(ValueError, match=r"ground must be sorted"):
        mf.padic_minor_valuation([[1, 0], [0, 1]], [1, 2], 2, ground=(2, 1))
    with pytest.raises(ValueError, match=r"ground size does not match column count"):
        mf.padic_minor_valuation([[1, 0], [0, 1]], [1, 2], 2, ground=(1, 2, 3))
    # column labels of any kind, read in ground order whatever the order given
    rows = [[1, 0, 1, 1], [0, 1, 1, 2]]
    assert mf.padic_minor_valuation(rows, ["d", "a"], 2, ground="abcd") == 1
    assert mf.padic_minor_valuation(rows, [4, 1], 2) == 1


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


def test_lindstrom_identity_matrix():
    rep = mf.ToricRep(((1, 0), (0, 1)), 5)
    nu = mf.lindstrom_toric(rep)
    assert nu.value([1, 2]) == 0 and len(nu.finite) == 1


def test_lindstrom_support_is_rational_matroid():
    # the one walk against each minor's determinant: nu(B) = val_p(det A_B)
    # and q(B) = eps * det A_B / p^nu(B) mod p, one sign eps per matrix
    rng = random.Random(1)
    for _ in range(40):
        rep = random_saturated_toric(rng, rng.randint(1, 3), rng.randint(3, 6),
                                     rng.choice([2, 3, 5]))
        nu, q = algebraic._lindstrom(rep)
        assert nu is mf.lindstrom_toric(rep)
        assert mf.support_matroid(nu) == mf.matroid_from_matrix(rep.A, mf.QQ)
        p, signs = rep.p, set()
        for combo in itertools.combinations(range(rep.n), rep.d):
            det = linalg.det_int([[row[j] for j in combo] for row in rep.A])
            mask = sum(1 << j for j in combo)
            assert nu.value_mask(mask) == linalg.val_p_int(det, p), rep
            if det:
                unit = det // p ** nu.finite[mask] % p
                signs.add(1 if q[mask] == unit else -1 if q[mask] == -unit % p else 0)
        assert set(q) == set(nu.finite) and len(signs) == 1 and 0 not in signs, rep


def test_unsaturated_rejected():
    with pytest.raises(ValueError):
        mf.ToricRep(((2, 0), (0, 2)), 2)


@pytest.mark.parametrize("A", [(), []])
def test_empty_matrix_rejected(A):
    # as saturate_rows and matroid_from_matrix refuse it, not with d = 0
    with pytest.raises(ValueError, match="^empty matrix$"):
        mf.ToricRep(A, 2)


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
    assert extract_checked(flock) == mf.lindstrom_toric(rep)
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
        assert extract_checked(mf.flock_from_toric(rep)) == \
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
    with pytest.raises(ValueError, match="nonnegative"):
        mf.frobenius_window(param, -1)


@pytest.mark.parametrize("value", [1.0, 2.0, True, 4, "1", None])
@pytest.mark.parametrize("field", ["radius", "p"])
def test_window_fields_are_read_as_integers(field, value):
    # FrobeniusFlockWindow checks none of its fields; the check reads the
    # radius by lattice.as_int and p by linalg.as_prime.  A radius of 1.0 or
    # 2.0 reads as 1 or 2, and a p of 2.0 as 2; p = 1.0 (1 is no prime), a
    # bool, a string, None, p = 4 and radius 4 (past the radius-2 table) are
    # refused with ValueError
    win = mf.frobenius_window(example_param(2, 2), 2)

    def check(v):
        fields = {"radius": win.radius, "p": win.p, field: v}
        return mf.validate_frobenius_window(
            mf.FrobeniusFlockWindow(fields["radius"], fields["p"], win.d, win.ground, win.table))
    reads_as = {("radius", 1.0): 1, ("radius", 2.0): 2, ("p", 2.0): 2}
    if type(value) is float and (field, value) in reads_as:
        assert check(value) == check(reads_as[field, value])
    else:
        with pytest.raises(ValueError):
            check(value)


def test_radius_0_window_is_refused():
    # no alpha of a radius-0 table has its shifted points in it, so its
    # check would run nothing; it is refused before the table is read, at
    # every box_radius, and a window of radius 1 checks at box_radius 0
    win = mf.frobenius_window(mf.ToricRep(((1, 0), (0, 1)), 2), 0)
    empty = mf.FrobeniusFlockWindow(0, win.p, win.d, win.ground, {})
    for window in (win, empty):
        for box_radius in (None, 0, 3):
            with pytest.raises(ValueError, match="radius 0 checks nothing"):
                mf.validate_frobenius_window(window, box_radius)
    rep = mf.validate_frobenius_window(mf.frobenius_window(example_param(2, 2), 1), 0)
    assert rep.ok and (rep.ff1_checked, rep.ff2_checked) == (4, 1)


def test_frobenius_corrupted_window():
    win = mf.frobenius_window(example_param(2, 2), 2)
    table = dict(win.table)
    table[(0, 0, 0, 0)] = ((1, 0, 0, 0), (0, 1, 0, 0))
    bad = mf.FrobeniusFlockWindow(2, win.p, win.d, win.ground, table)
    rep = mf.validate_frobenius_window(bad)
    assert not rep.ok and rep.violation is not None


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
            want = oracles.gf_row_space(_tangent_at(param, alpha, d), param.p)
            assert rows == want, (param.coords, alpha)


def _grid_cases():
    """800 seeded parametrizations (p in {2, 3, 5}, m <= 3, n <= 6), then the
    paper's example (s, t, s+t, s+c t^(p^g)) for g <= 12 and every c."""
    rng = random.Random(2021)
    for k in range(800):
        p = (2, 3, 5)[k % 3]
        m = rng.randint(1, 3)
        yield _random_param(rng, p, m, rng.randint(1, 6 if m > 1 else 5))
    for p in (2, 3, 5):
        for g in range(13):
            for c in range(1, p):
                yield mf.LinearizedParam(p, 2, [[(0, 0, 1)], [(1, 0, 1)],
                                                [(0, 0, 1), (1, 0, 1)], [(0, 0, 1), (1, g, c)]])


def _grid_spaces(param, lo, hi):
    """The Lindström valuation's scored grid over [lo, hi]^E, with each id's
    Plücker vector q on its argmax family read as its RREF."""
    nu, q = algebraic._lindstrom(param)
    grid, masks, words = window._scored_grid(nu.finite_items(), param.n, lo, hi)
    return nu.d, grid, [_plucker_rref({B: q[B] for B in family}, param.n, param.p)
                     for family in window._families(masks, words)]


def test_frobenius_grid_matches_tableau_oracle():
    # V_S read off the initial Plücker coefficients of one walk equals the
    # per-family GF(p)[T] tableau route: same ids and spaces, and the check
    # keyed by Plücker values reports what the gf_rref route reports
    for param in _grid_cases():
        radius = 1 if param.n > 4 else 2
        for lo, hi in ((-radius, radius + 1), (-1, 1), (0, 2)):
            d, grid, spaces = _grid_spaces(param, lo, hi)
            d0, grid0, spaces0 = oracles.tableau_frobenius_grid(param, lo, hi)
            assert (d, spaces) == (d0, spaces0), param.coords
            assert grid.dtype == grid0.dtype and (grid == grid0).all(), param.coords
            if (lo, hi) == (-radius, radius + 1):
                want = oracles.rref_frobenius_report(grid0, spaces0, radius, param.ground, param.p)
        assert mf.check_frobenius_axioms(param, radius) == want, param.coords


def _toric_cases():
    """100 seeded saturated toric representations (p in {2, 3, 5}, d <= 3,
    n <= 5): an identity block and entries in [-4, 4], columns shuffled."""
    rng = random.Random(5)
    for k in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(max(d, 2), 5)
        rows = [[int(i == j) for j in range(d)] + [rng.randint(-4, 4) for _ in range(n - d)]
                for i in range(d)]
        order = rng.sample(range(n), n)
        yield mf.ToricRep([[row[j] for j in order] for row in rows], (2, 3, 5)[k % 3])


def test_toric_frobenius_window_matches_saturation_oracle():
    # a toric source's V_alpha read off q is the saturation of the twisted
    # row lattice, reduced mod p
    for rep in _toric_cases():
        assert mf.frobenius_window(rep, 1).table == \
            oracles.saturation_frobenius_window(rep, 1), (rep.A, rep.p)


def test_frobenius_counts_are_flock_counts():
    # the matroid of V_alpha is M_alpha, and a source's (FF1)/(FF2) check is
    # its flock's (MF1)/(MF2) check: the same counts, and both pass
    for source in itertools.chain(_grid_cases(), _toric_cases()):
        if isinstance(source, mf.ToricRep):
            flock = mf.flock_from_toric(source)
        else:
            flock = mf.flock_from_linearized(source)
        for radius in (2, 1):
            ff = mf.check_frobenius_axioms(source, radius)
            rep = mf.check_flock_axioms(flock, radius)
            assert ((ff.ff1_checked, ff.ff1_failed, ff.ff2_checked, ff.ff2_failed)
                    == (rep.mf1_checked, rep.mf1_failed, rep.mf2_checked, rep.mf2_failed))
            assert ff.ok and rep.ok, source


def _reuse_orders(r: int):
    """Orders of checks of one source that share a remembered box, as
    (kind, radius, check_sets): a Frobenius check at r before and after a
    flock check at a radius >= r, below r and with sets, and for r = 2 a
    flock check with sets after a larger one."""
    priors = [(max(r, 1), False), (max(r, 1), True)] + [(r - 1, False)] * (r >= 2)
    for radius, sets in priors:
        yield [("flock", radius, sets), ("ff", r, False)]
        yield [("ff", r, False), ("flock", radius, sets)]
    if r == 2:
        yield [("flock", 2, True), ("flock", 1, True)]


def _check_in_order(source, order, passes):
    """The reports of the checks of ``order`` run one after another from no
    remembered box, each with the moves it ran (``passes``), and the
    report of each check run alone."""
    flock = mf.flock_from_linearized(source)

    def check(kind, radius, sets):
        if kind == "ff":
            return mf.check_frobenius_axioms(source, radius)
        return mf.check_flock_axioms(flock, radius, check_sets=sets)
    alone = []
    for step in order:
        window._grid_memo.clear()
        alone.append(check(*step))
    window._grid_memo.clear()
    got = []
    for step in order:
        passes.clear()
        got.append((check(*step), len(passes)))
    return got, alone


@pytest.fixture
def move_passes(monkeypatch) -> list:
    """The radius of every move that ``window._move_fails`` checks."""
    passes = []
    move_fails = window._move_fails

    def counted(grid, radius, moves):
        for out in move_fails(grid, radius, moves):
            passes.append(radius)
            yield out
    monkeypatch.setattr(window, "_move_fails", counted)
    return passes


def test_checks_read_back_the_verdicts_of_earlier_checks(move_passes):
    # a Frobenius check next to a flock check of the same source, in either
    # order, and a flock check after a larger one, report what each reports
    # alone; a check after one at a radius as large, with its moves, runs
    # no move of its own, and a valid flock keeps no failing index
    for k, source in enumerate(_grid_cases()):
        for r in (0, 1, 2):
            # every source at every r, one order each, in turn
            orders = list(_reuse_orders(r))
            order = orders[k % len(orders)]
            got, alone = _check_in_order(source, order, move_passes)
            assert [report for report, _ in got] == alone, (source.coords, order)
            assert all(report.ok for report in alone)
            (_, before, sets), (_, radius, needs_sets) = order
            covered = before >= radius and (sets or not needs_sets or source.n == 1)
            assert (got[1][1] == 0) == covered, (source.coords, order)
            verdicts = next(iter(window._grid_memo.values()))[4]
            assert verdicts and not any(len(flat) for _, flat in verdicts.values())


@pytest.fixture
def fault(monkeypatch) -> dict:
    """``window._minor_moves`` with the contraction key of the family
    ``fault["family"]`` made to match no deletion key, for the moves in
    ``fault["moves"]``."""
    fault = {}
    minor_moves = window._minor_moves

    def faulty(n, masks, words, moves):
        rows = [k for k, family in enumerate(window._families(masks, words))
                if family == fault["family"]]
        for axes, left, right in minor_moves(n, masks, words, moves):
            if axes in fault["moves"] and rows:
                left = left.copy()
                left[rows] = ~left[rows]
            yield axes, left, right
    monkeypatch.setattr(window, "_minor_moves", faulty)
    return fault


def test_injected_failures_read_back_as_each_check_finds_them(fault, move_passes):
    # one family's contraction key of one move made to match no deletion
    # key: the checks of each order, reading each other's failing alphas,
    # report the counts and the violation that each finds alone
    failed = read = 0
    # one element has no minor to show, and no flock on it can fail
    sources = [source for source in _grid_cases() if source.n > 1]
    for k, source in enumerate(sources[::9]):
        n = source.n
        fault["family"] = mf.flock_from_linearized(source).masks_at(
            tuple((i + k) % 3 - 1 for i in range(n)))
        fault["moves"] = {(k % n,), tuple(range(k % 2, n))}
        for r in (0, 1, 2):
            for order in _reuse_orders(r):
                got, alone = _check_in_order(source, order, move_passes)
                assert [report for report, _ in got] == alone, (source.coords, order)
                failed += sum(not report.ok for report in alone)
                read += got[1][1] == 0 and not alone[1].ok
    assert failed > 1500 and read > 500


def test_failing_frobenius_check_after_a_flock_check_scans_nothing(monkeypatch, fault):
    # with one move made to fail, a flock check at radius 2 scans [-2, 3]^E
    # once; the Frobenius check at radius 1 after it reads where its moves
    # fail from the verdicts, and its violation's sides from q at those
    # alphas, so it scans no box of its own
    param = example_param(2, 2)
    fault["family"] = mf.flock_from_linearized(param).masks_at((0, 0, 0, 0))
    fault["moves"] = {(0,)}
    window._grid_memo.clear()
    want = [mf.check_flock_axioms(mf.flock_from_linearized(param), 2)]
    window._grid_memo.clear()
    want.append(mf.check_frobenius_axioms(param, 1))
    window._grid_memo.clear()
    scans = []
    scored_grid = window._scored_grid
    monkeypatch.setattr(window, "_scored_grid",
                        lambda *args: scans.append(args[1:]) or scored_grid(*args))
    got = [mf.check_flock_axioms(mf.flock_from_linearized(param), 2),
           mf.check_frobenius_axioms(param, 1)]
    assert got == want and not got[0].ok and not got[1].ok
    assert got[1].violation[:2] == ((-1,) * 4, param.ground[0]) and got[1].ff2_failed == 0
    assert scans == [(4, -2, 3)]


def test_frobenius_grid_spaces_have_plucker_vector_q():
    # the maximal minors over GF(p) of each space are q on its family S, up
    # to one unit
    for param in itertools.islice(_grid_cases(), 0, None, 4):
        p = param.p
        nu, q = algebraic._lindstrom(param)
        items = nu.finite_items()
        _, masks, words = window._scored_grid(items, param.n, -1, 1)
        families = window._families(masks, words)
        _, _, spaces = _grid_spaces(param, -1, 1)
        assert len(spaces) == len(families)
        for S, space in zip(families, spaces):
            minors = dict(linalg._maximal_minors(space, linalg._PrimeField(p)))
            assert set(minors) == S, param.coords
            unit = minors[min(S)] * pow(q[min(S)], -1, p) % p
            assert all(minors[B] == unit * q[B] % p for B in S), param.coords


def test_frobenius_report_violations_match_rref_oracle(rng):
    # corrupted windows: the counts and the violation the gf_rref route gives
    failed = 0
    for param in (example_param(2, 2), example_param(3, 1)):
        table = dict(mf.frobenius_window(param, 2).table)
        for _ in range(5):
            alpha = tuple(rng.randint(-2, 2) for _ in range(param.n))
            rows = [[rng.randrange(param.p) for _ in range(param.n)] for _ in range(2)]
            table[alpha] = oracles.gf_row_space(rows, param.p)
            grid, spaces = window._id_grid(param.n, -2, 2, table.__getitem__)
            want = oracles.rref_frobenius_report(grid, spaces, 2, param.ground, param.p)
            bad = mf.FrobeniusFlockWindow(2, param.p, 2, param.ground, table)
            assert mf.validate_frobenius_window(bad) == want
            failed += not want.ok
    assert failed >= 5


def test_frobenius_checks_past_int64_residues():
    # residues past 2^31: a source's check keys its argmax families over
    # GF(2) whatever p, and a window given as data has its Plücker vectors
    # keyed by _plucker_keys in Python ints
    rng = random.Random(31)
    for p in (2 ** 31 - 1, 4294967311, 2 ** 61 - 1):
        for _ in range(4):
            param = _random_param(rng, p, rng.randint(1, 2), rng.randint(2, 4))
            for radius in (1, 2):
                _, grid0, spaces0 = oracles.tableau_frobenius_grid(param, -radius, radius + 1)
                want = oracles.rref_frobenius_report(grid0, spaces0, radius, param.ground, p)
                assert mf.check_frobenius_axioms(param, radius) == want, (p, param.coords)
            table = dict(mf.frobenius_window(param, 2).table)
            table[(0,) * param.n] = oracles.gf_row_space(
                [[rng.randrange(p) for _ in range(param.n)] for _ in range(2)], p)
            grid, spaces = window._id_grid(param.n, -2, 2, table.__getitem__)
            want = oracles.rref_frobenius_report(grid, spaces, 2, param.ground, p)
            bad = mf.FrobeniusFlockWindow(2, p, 2, param.ground, table)
            assert mf.validate_frobenius_window(bad) == want, (p, param.coords)


def _space_rows(draw, p, n):
    """Rows spanning a space of GF(p)^n: the zero space, the full space, or
    random rows with loops (zero columns) and coloops (unit rows)."""
    kind = draw(st.sampled_from(["zero", "full", "random"]))
    if kind == "zero":
        return draw(st.sampled_from([(), ((0,) * n,)]))
    if kind == "full":
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    role = draw(st.lists(st.sampled_from(["loop", "coloop", "free"]), min_size=n, max_size=n))
    entry = st.integers(min_value=0, max_value=p - 1)
    rows = [[draw(entry) if role[j] == "free" else 0 for j in range(n)]
            for _ in range(draw(st.integers(min_value=0, max_value=n)))]
    rows += [[int(j == i) for j in range(n)] for i in range(n) if role[i] == "coloop"]
    return tuple(map(tuple, draw(st.permutations(rows))))


@st.composite
def plucker_spaces(draw):
    """(p, n, rows): rows spanning a space of GF(p)^n, n = 3..6."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=3, max_value=6))
    return p, n, _space_rows(draw, p, n)


@st.composite
def plucker_tables(draw):
    """(p, n, tables): rows of up to six spaces of one GF(p)^n, each followed
    by a space W with W \\ i = V / i for some i: a random column inserted at
    i into V / i.  So contractions meet deletions of other spaces, where the
    signs of the key rule decide."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(min_value=3, max_value=6))
    tables = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        rows = _space_rows(draw, p, n)
        i = draw(st.integers(min_value=0, max_value=n - 1))
        contracted = oracles.rref_space_contract(oracles.gf_row_space(rows, p), i, p)
        column = st.integers(min_value=0, max_value=p - 1)
        tables += [rows, tuple(row[:i] + (draw(column),) + row[i:] for row in contracted)]
    return p, n, tables


@given(plucker_spaces())
@settings(max_examples=400, deadline=None)
def test_space_contract_and_delete_match_gf_rref(case):
    # the key rule on one space: its contraction and deletion by each
    # element, read off its Plücker vector, are the spaces gf_rref gives
    p, n, rows = case
    space = oracles.gf_row_space(rows, p)
    vector = dict(linalg._maximal_minors(rows, linalg._PrimeField(p)))
    assert _plucker_rref(vector, n, p) == space
    for i in range(n):
        contracted = _plucker_rref(_plucker_minor(vector, i, True, p), n - 1, p)
        deleted = _plucker_rref(_plucker_minor(vector, i, False, p), n - 1, p)
        assert contracted == oracles.rref_space_contract(space, i, p)
        assert deleted == oracles.rref_space_delete(space, i, p)


@given(plucker_tables())
@settings(max_examples=200, deadline=None)
def test_plucker_keys_match_rref_minors(case):
    # the keys _plucker_keys gives each single-element move split the
    # contractions and deletions of the spaces into the classes of equal
    # gf_rref minors, left and right numbered together, whatever the scale
    # of each Plücker vector
    p, n, tables = case
    vectors = [dict(linalg._maximal_minors(rows, linalg._PrimeField(p))) for rows in tables]
    spaces = [oracles.gf_row_space(rows, p) for rows in tables]
    keys = _plucker_keys(vectors, n, p)
    assert keys.shape == (2, n, len(vectors), 1)
    for i, (left, right) in enumerate(zip(keys[0], keys[1])):
        sides = ([oracles.rref_space_contract(space, i, p) for space in spaces]
                 + [oracles.rref_space_delete(space, i, p) for space in spaces])
        keys = list(map(tuple, left.tolist())) + list(map(tuple, right.tolist()))
        assert len(set(zip(keys, sides))) == len(set(keys)) == len(set(sides)), i


@pytest.mark.parametrize("source", ["toric", "linearized"])
def test_lindstrom_walk_is_cached_and_bounded(monkeypatch, rng, source):
    # one minor walk per representation, whichever builders read it; the
    # one cache keeps the last _LINDSTROM_CACHE_CAP representations and
    # returns the cached valuation; once cleared, as at the start of a
    # process, it walks again
    cap = algebraic._LINDSTROM_CACHE_CAP
    if source == "toric":
        rep, valuation, flock = toric_example(2), mf.lindstrom_toric, mf.flock_from_toric
        others = set()
        while len(others) < cap + 10:
            others.add(random_saturated_toric(rng, 2, 3, rng.choice([2, 3, 5]), -9, 9))
        others = list(others)
    else:
        rep, valuation, flock = example_param(2, 5), mf.tadic_valuation, mf.flock_from_linearized
        others = [example_param(3, g) for g in range(cap + 5)]
    # counted from here: building a ToricRep walks minors to test saturation
    calls = []
    walk = linalg._maximal_minors
    monkeypatch.setattr(linalg, "_maximal_minors",
                        lambda *args: calls.append(1) or walk(*args))
    algebraic._lindstrom_cache.clear()
    if source == "toric":
        mf.toric_matroid_at(rep, (0, 0, 0, 1))
    else:
        mf.check_frobenius_axioms(rep, 1)
    assert valuation(rep) is flock(rep).valuation
    assert len(calls) == 1
    for other in others:
        valuation(other)
        assert len(algebraic._lindstrom_cache) <= cap
    assert len(algebraic._lindstrom_cache) == cap
    last = others[-1]
    assert valuation(last) is algebraic._lindstrom_cache[last][0]
    calls.clear()
    algebraic._lindstrom_cache.clear()
    assert valuation(last) == algebraic._lindstrom_cache[last][0]
    assert len(calls) == 1


def test_flock_and_frobenius_checks_share_one_scan(monkeypatch):
    # the flock check scores [-2, 3]^E, and the Frobenius check at radius 1
    # reads its verdicts back and scans nothing; both reports are those the
    # same two checks gave from an empty memo before
    param = example_param(2, 2)
    flock = mf.flock_from_linearized(param)
    want = (mf.check_flock_axioms(flock, 2), mf.check_frobenius_axioms(param, 1))
    window._grid_memo.clear()
    scans = []
    box_sets = window._box_sets
    monkeypatch.setattr(window, "_box_sets", lambda *args: scans.append(args[2:]) or box_sets(*args))
    flock = mf.flock_from_linearized(param)
    got = (mf.check_flock_axioms(flock, 2), mf.check_frobenius_axioms(param, 1))
    assert got == want and got[0].ok and got[1].ok
    assert scans == [([-2] * 4, [3] * 4)]


def test_frobenius_check_runs_no_elimination(monkeypatch):
    # after the one cached walk, the grid and the report eliminate nothing
    param = example_param(3, 2)
    mf.tadic_valuation(param)

    def refuse(*args):
        raise AssertionError("elimination reached")
    monkeypatch.setattr(linalg, "_bareiss", refuse)
    monkeypatch.setattr(linalg, "gf_rref", refuse)
    rep = mf.check_frobenius_axioms(param, 2)
    assert rep.ok and rep.ff1_checked == 4 * 5 ** 4


def test_frobenius_check_builds_no_space_when_it_passes(monkeypatch):
    # a window that passes is keyed by Plücker values alone
    win = mf.frobenius_window(example_param(2, 2), 2)

    def refuse(*args):
        raise AssertionError("a row space was built")
    monkeypatch.setattr(algebraic, "_plucker_rref", refuse)
    for param in (example_param(2, 2), example_param(3, 1), example_param(5, 3)):
        assert mf.check_frobenius_axioms(param, 2).ok
    assert mf.validate_frobenius_window(win).ok


def _ff_failures(win):
    """Every failing (alpha, move order, move, left, right), point by point."""
    p, n, R = win.p, len(win.ground), win.radius
    out = []
    for alpha, rows in sorted(win.table.items()):
        for i in range(n):
            beta = tuple(a + (k == i) for k, a in enumerate(alpha))
            if max(beta) <= R:
                left = oracles.rref_space_contract(rows, i, p)
                right = oracles.rref_space_delete(win.table[beta], i, p)
                if left != right:
                    out.append((alpha, i, win.ground[i], left, right))
        beta = tuple(a + 1 for a in alpha)
        if max(beta) <= R:
            left = oracles.gf_row_space(rows, p)
            right = oracles.gf_row_space(win.table[beta], p)
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


@pytest.mark.parametrize("length", [3, 5])
def test_frobenius_window_rows_of_wrong_length_refused(monkeypatch, length):
    # a row shorter or longer than the ground set is refused, naming its
    # alpha, before its minors are walked
    win = mf.frobenius_window(example_param(2, 2), 1)
    table = dict(win.table)
    table[(0, 0, 0, 0)] = tuple(row[:3] + (0,) * (length - 3) for row in table[(0, 0, 0, 0)])
    walk = linalg._maximal_minors

    def checked_walk(rows, field):
        assert all(len(row) == 4 for row in rows), "a row of the wrong length was walked"
        return walk(rows, field)
    monkeypatch.setattr(linalg, "_maximal_minors", checked_walk)
    bad = mf.FrobeniusFlockWindow(1, win.p, win.d, win.ground, table)
    message = rf"alpha=\(0, 0, 0, 0\) has a row of length {length}, not 4"
    with pytest.raises(ValueError, match=message):
        mf.validate_frobenius_window(bad)


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
            nu = extract_checked(flock)
            assert nu.value([1, 4]) == g
            assert all(nu.value(B) == 0
                       for B in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    # cross-check g = 1 against the toric model with the same combinatorics
    for p in (2, 3):
        toric = mf.lindstrom_toric(mf.ToricRep(((1, 0, 1, 1), (0, 1, 1, p)), p))
        lin = extract_checked(mf.flock_from_linearized(example_param(p, 1)))
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
    """The T-adic valuation of the minors, normalized to minimum 0, and each
    minor's lowest nonzero coefficient, both keyed by labels."""
    mat = _param_polymatrix(param)
    d = mf.generic_rank(param)
    rows = []
    for row in mat:
        if linalg.polymat_rank(rows + [row], param.p) > len(rows):
            rows.append(row)
    assert len(rows) == d
    vals, q = {}, {}
    for combo in itertools.combinations(range(param.n), d):
        det = _poly_det([[row[j] for j in combo] for row in rows], param.p)
        if det:
            B = tuple(param.ground[j] for j in combo)
            vals[B] = next(i for i, c in enumerate(det) if c)
            q[B] = det[vals[B]]
    base = min(vals.values())
    return {k: v - base for k, v in vals.items()}, q


def test_param_polymatrix_refuses_too_many_coefficients():
    # a level k entry holds k + 1 coefficients, counted over all entries
    # before any is built
    cap = algebraic._MAX_COEFFICIENTS
    assert len(_param_polymatrix(mf.LinearizedParam(2, 1, [[(0, cap - 1, 1)]]))[0][0]) == cap
    for coords, top, count in (([[(0, cap, 1)]], cap, cap + 1),
                               ([[(0, cap // 2, 1)], [(0, cap // 2, 1)]], cap // 2, cap + 2),
                               ([[(0, 10 ** 11, 1)]], 10 ** 11, 10 ** 11 + 1)):
        param = mf.LinearizedParam(2, 1, coords)
        with pytest.raises(ValueError, match=f"level {top} needs {count} polynomial"):
            _param_polymatrix(param)
        with pytest.raises(ValueError, match=f"level {top} needs {count} polynomial"):
            mf.check_frobenius_axioms(param, 1)


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
        expect, q_ref = _valT_minor_valuation(param)
        nu = mf.extract_valuation(mf.linearized_tangent_flock(param))
        assert _labelled(nu) == expect
        assert _labelled(mf.tadic_valuation(param)) == expect
        assert _labelled(mf.flock_from_linearized(param).valuation) == expect
        # the walk's initial coefficients: the reference's times one unit
        nu, q = algebraic._lindstrom(param)
        unit = q[min(q)] * pow(q_ref[nu.labels_of(min(q))], -1, p) % p
        assert {nu.labels_of(mask): c for mask, c in q.items()} == \
            {B: unit * c % p for B, c in q_ref.items()}
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
