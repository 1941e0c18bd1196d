"""Flock axioms, the potential, extraction, and the window properties."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import flock as flock_module, window
from matflock.flock import window_ids
from matflock.svg import render_cells_svg
from matflock.valuation import optimal_masks

import flockprops
import oracles
from conftest import (
    example_param,
    extract_checked,
    random_saturated_toric,
    random_valid_valuation,
    toric_example,
    two_element_valuation,
    u24_valuation,
)


# ---------------------------------------------------------------------------
# integer inputs: one reader (lattice.as_ints) at every entry point

def _explicit_at(x):
    M = mf.uniform_matroid(1, 2)
    return mf.explicit_flock({(x, 0): M}, M.ground, 1).masks_at((2, 0))


def _explicit_two_element():
    """The flock of ``two_element_valuation`` as an explicit table on [-3, 3]^2."""
    flock = mf.flock_from_valuation(two_element_valuation())
    return mf.explicit_flock({alpha: flock.matroid_at(alpha)
                              for alpha in itertools.product(range(-3, 4), repeat=2)},
                             (1, 2), 1)


def _window_ids_at(x):
    grid, table = window_ids(mf.flock_from_valuation(u24_valuation()), x)
    return grid.tolist(), table


_INTEGER_ENTRIES = {
    "matroid_at": lambda x: mf.matroid_at(u24_valuation(), (x, 0, 0, 0)),
    "g_value": lambda x: mf.g_value(u24_valuation(), (x, 0, 0, 0)),
    "masks_at": lambda x: mf.flock_from_valuation(u24_valuation()).masks_at((x, 0, 0, 0)),
    "g_M": lambda x: mf.g_M(mf.flock_from_valuation(u24_valuation()), (x, 0, 0, 0)),
    "explicit_flock": _explicit_at,
    "linearized_shift": lambda x: mf.linearized_shift(example_param(2, 2), (x, 0, 0, 0)),
    "check_flock_axioms": lambda x: mf.check_flock_axioms(
        mf.flock_from_valuation(u24_valuation()), x),
    "check_frobenius_axioms": lambda x: mf.check_frobenius_axioms(example_param(2, 2), x),
    "frobenius_window": lambda x: mf.frobenius_window(example_param(2, 2), x),
    "window_ids": _window_ids_at,
    "extract_valuation_cutoff": lambda x: mf.extract_valuation(
        mf.flock_from_valuation(u24_valuation()), cutoff=x),
    "extract_valuation_explicit_cutoff": lambda x: mf.extract_valuation(
        _explicit_two_element(), cutoff=x),
    "extract_valuation_verify_radius": lambda x: mf.extract_valuation(
        _explicit_two_element(), verify_radius=x),
    "validate_frobenius_window": lambda x: mf.validate_frobenius_window(
        mf.frobenius_window(example_param(2, 2), 1), x),
    "Valuation_rank": lambda x: mf.Valuation([1, 2, 3], x, {3: 0, 5: 0, 6: 1}),
    "Valuation_basis_mask": lambda x: mf.Valuation([1, 2], 1, {x: 0}),
    "Matroid_basis_mask": lambda x: mf.Matroid([1, 2], [x]),
    "MatroidFlock_rank": lambda x: mf.MatroidFlock(
        (1, 2), x, lambda a: frozenset({3}), "constant").matroid_at((0, 0)),
    "LinearizedParam_m": lambda x: mf.LinearizedParam(3, x, [[(0, 0, 1)], [(1, 0, 1)]]),
    "LinearizedParam_level": lambda x: mf.LinearizedParam(3, 2, [[(0, x, 1)], [(1, 0, 1)]]),
    "LinearizedParam_coefficient": lambda x: mf.LinearizedParam(
        3, 2, [[(0, 0, x)], [(1, 0, 1)]]),
    "ToricRep_p": lambda x: mf.ToricRep(((1, 0, 1), (0, 1, 1)), x),
    # |x_1 - x_2 - 2| is L-convex and least exactly where x_1 - x_2 = 2
    "lconvex_is_minimizer": lambda x: mf.lconvex_is_minimizer(
        lambda pt: abs(pt[0] - pt[1] - 2), (x, 0), 2),
    "render_cells_svg_radius": lambda x: render_cells_svg(u24_valuation(), (1, 2), x),
    "uniform_matroid_rank": lambda x: mf.uniform_matroid(x, 4),
    "uniform_matroid_n": lambda x: mf.uniform_matroid(2, x),
    "check_basis_axioms_rank": lambda x: mf.check_basis_axioms(
        [1, 2, 3], x, [[1, 2], [1, 3], [2, 3]]),
    "lazarson_matrix": lambda x: mf.lazarson_matrix(x),
    "lazarson": lambda x: mf.lazarson(x),
    "central_bases": lambda x: mf.central_bases(x),
    "lazarson_char_check_n": lambda x: mf.lazarson_char_check(x, 3),
    "lconvex_is_minimizer_n": lambda x: mf.lconvex_is_minimizer(
        lambda pt: abs(pt[0] - pt[1] - 2), (2, 0), x),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRIES))
def test_lattice_inputs_must_be_integers(entry):
    # a non-integral value or a bool is refused, not truncated or scored as
    # a float; an integral value of another type reads as that integer
    call = _INTEGER_ENTRIES[entry]
    for bad in (0.5, True, np.True_):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    want = call(2)
    assert call(2.0) == want and call(np.int64(2)) == want


# ---------------------------------------------------------------------------
# axiom checking

def test_axioms_u24_weights_pass():
    rep = mf.check_flock_axioms(mf.flock_from_valuation(u24_valuation()), 2)
    assert rep.ok
    assert rep.mf1_checked == 4 * 5 ** 4 and rep.mf2_checked == 5 ** 4


def test_axioms_constant_u22_passes():
    M = mf.Matroid.from_bases([1, 2], [[1, 2]])
    assert mf.check_flock_axioms(mf.constant_flock(M), 2).ok


def test_axioms_constant_u24_fails_mf1():
    rep = mf.check_flock_axioms(mf.constant_flock(mf.uniform_matroid(2, 4)), 1)
    assert not rep.ok and rep.mf1_failed > 0
    v = rep.violation
    assert v is not None and v.move in (1, 2, 3, 4)
    # U24 / i has rank 1 on three elements; U24 \ i is U(2,3)
    assert {v.left.d, v.right.d} == {1, 2}


def test_axioms_corrupted_explicit_table():
    nu = two_element_valuation()
    flock = mf.flock_from_valuation(nu)
    table = {}
    for k in range(-3, 4):
        for l in range(-3, 4):
            table[(k, l)] = flock.matroid_at((k, l))
    table[(1, 0)] = mf.Matroid.from_bases([1, 2], [[2]])  # should be {1}
    bad = mf.explicit_flock(table, (1, 2), 1)
    rep = mf.check_flock_axioms(bad, 2)
    assert not rep.ok and rep.violation is not None


def test_axioms_set_version():
    rep = mf.check_flock_axioms(
        mf.flock_from_valuation(u24_valuation()), 2, check_sets=True)
    assert rep.ok and rep.set_checked == 15 * 5 ** 4 and rep.set_failed == 0


# ---------------------------------------------------------------------------
# the potential g

def test_g_zero_and_one():
    for nu in (u24_valuation(), two_element_valuation()):
        flock = mf.flock_from_valuation(nu)
        n = len(nu.ground)
        assert mf.g_M(flock, (0,) * n) == 0
        assert mf.g_M(flock, (1,) * n) == nu.d
        assert mf.g_M(flock, (-1,) * n) == -nu.d


def test_g_single_step_is_rank():
    nu = u24_valuation()
    flock = mf.flock_from_valuation(nu)
    for I in range(1, 16):
        alpha = tuple(1 if I >> i & 1 else 0 for i in range(4))
        assert mf.g_M(flock, alpha) == flock.rank_at((0,) * 4, I)


def test_g_path_independence_and_gauge(rng):
    nu = u24_valuation()
    flock = mf.flock_from_valuation(nu)
    base = mf.g_value(nu, (0,) * 4)
    for _ in range(30):
        alpha = tuple(rng.randint(-4, 4) for _ in range(4))
        g = mf.g_M(flock, alpha, check_path=True)
        # the flock potential is the normalized gauge of the valuation
        assert g == mf.g_value(nu, alpha) - base


def test_g_submodular_on_window(rng):
    flock = mf.flock_from_valuation(u24_valuation())
    for _ in range(60):
        a = tuple(rng.randint(-3, 3) for _ in range(4))
        b = tuple(rng.randint(-3, 3) for _ in range(4))
        join = tuple(map(max, a, b))
        meet = tuple(map(min, a, b))
        assert mf.g_M(flock, a) + mf.g_M(flock, b) >= \
            mf.g_M(flock, join) + mf.g_M(flock, meet)


# ---------------------------------------------------------------------------
# extraction

def test_extract_u24_weights_exact():
    nu = u24_valuation()
    assert extract_checked(mf.flock_from_valuation(nu), cutoff=8) == nu


def test_extract_two_element_example():
    nu = extract_checked(mf.flock_from_valuation(two_element_valuation()))
    assert nu.value([1]) == 0 and nu.value([2]) == 0


def test_extract_linearized_example():
    nu = extract_checked(mf.flock_from_linearized(example_param(2, 2)))
    assert nu.value([1, 4]) == 2
    assert all(nu.value(B) == 0
               for B in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def test_extract_detects_infinite_values():
    # a loop element: every pair through 4 stays infinite
    nu = mf.Valuation.from_values(
        [1, 2, 3, 4], 2, {(1, 2): 0, (1, 3): 0, (2, 3): 1})
    got = extract_checked(mf.flock_from_valuation(nu))
    assert got == nu
    assert got.value([1, 4]) == mf.INF


def test_extract_cutoff_too_small_raises():
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 3})
    flock = mf.flock_from_valuation(nu)
    flock = mf.MatroidFlock(flock.ground, flock.d, flock._masks_eval, "oracle")
    with pytest.raises(mf.ExtractionError):
        mf.extract_valuation(flock, cutoff=2, verify_radius=3)


def test_extract_valuation_source_cutoff_too_small_raises():
    # the walk reads {2} as ∞; the result is a valuation, but not the flock's
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 3})
    with pytest.raises(mf.ExtractionError, match=r"\(2,\).*may be too small") as err:
        extract_checked(mf.flock_from_valuation(nu), cutoff=2)
    assert err.value.cutoff_hits == ((2,),)


def test_extract_exact_check_agrees_with_window(rng):
    # a basis the walk misreads as ∞ is optimal at alpha = spread * e_B, so
    # the window of radius spread sees every mismatch the exact check sees
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 5)
        d = rng.randint(1, min(3, n))
        nu = random_valid_valuation(rng, n, d, vmax=2 if n == 5 else 3)
        cutoff = rng.randint(1, nu.spread + 1)
        slow = mf.oracle_flock(nu.ground, nu.d, lambda a, nu=nu: mf.matroid_at(nu, a))
        results = []
        for flock, radius in ((mf.flock_from_valuation(nu), None),
                              (slow, max(1, nu.spread))):
            try:
                results.append(extract_checked(flock, cutoff, radius))
            except mf.ExtractionError:
                results.append(None)
        exact, windowed = results
        assert (exact is None) == (windowed is None), (nu.finite, cutoff)
        assert exact == windowed
        outcomes.add(exact is None)
    assert outcomes == {True, False}


def test_roundtrip_random_sample(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        d = rng.randint(1, min(3, n))
        nu = random_valid_valuation(rng, n, d)
        flock = mf.flock_from_valuation(nu)
        assert extract_checked(flock) == nu
        assert mf.check_flock_axioms(flock, 2).ok


def _wrapped(nu):
    # a valuation-backed flock built through the public constructor, which
    # refuses a map that is not a valuation
    return mf.MatroidFlock(nu.ground, nu.d, lambda a: optimal_masks(nu, a), "wrapped",
                           valuation=nu)


def _random_map(rng, n=None, d=None):
    n = rng.randint(1, 5) if n is None else n
    d = rng.randint(0, n) if d is None else d
    subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
    finite = {m: rng.randint(-3, 9) for m in subsets if rng.random() < 0.7}
    return mf.Valuation(range(1, n + 1), d, finite or {subsets[0]: rng.randint(0, 4)})


def _backed_flocks(rng):
    """Valuation-backed flocks: valuations, wrapped random maps (on the
    seeds used here each has d <= 1 or d >= n - 1, so each is a valuation),
    toric reps for p in {2, 3, 5}, and linearized parametrizations."""
    for _ in range(12):
        n = rng.randint(2, 6)
        d = rng.randint(1, min(3, n))
        yield mf.flock_from_valuation(random_valid_valuation(rng, n, d, vmax=rng.choice([2, 3, 7])))
    for _ in range(12):
        yield _wrapped(_random_map(rng))
    for p in (2, 3, 5):
        for _ in range(4):
            d = rng.randint(1, 3)
            yield mf.flock_from_toric(random_saturated_toric(rng, d, rng.randint(d + 1, 6), p))
    for p, g in ((2, 1), (2, 2), (3, 1), (3, 2)):
        yield mf.flock_from_linearized(example_param(p, g))


def _outcome(flock, cutoff):
    try:
        return mf.extract_valuation(flock, cutoff).finite
    except mf.ExtractionError as err:
        return str(err), err.cutoff_hits


def test_extract_envelope_matches_point_walk(monkeypatch):
    rng = random.Random(1801)
    cases = 0
    for flock in _backed_flocks(rng):
        n, d, nu = len(flock.ground), flock.d, flock.valuation
        default = flock_module._default_cutoff(flock)
        for walk in (1, 2, 3, 4, 5, default):
            local = flock_module._local_values(nu, walk)
            for combo in itertools.combinations(range(n), d):
                bmask = sum(1 << i for i in combo)
                assert local.get(bmask) == oracles.envelope_value(nu, bmask, walk) == \
                    flock_module._point_value(flock, bmask, walk), (flock, bmask, walk)
                cases += 1
        got = [_outcome(flock, cutoff) for cutoff in (None, 1, 2, 3, 4, 5)]
        with monkeypatch.context() as patch:
            patch.setattr(flock_module, "_local_values", oracles.envelope_values)
            assert got == [_outcome(flock, cutoff) for cutoff in (None, 1, 2, 3, 4, 5)]
    assert cases > 1000


def test_wrapped_maps_are_checked_when_built():
    # maps with 2 <= d <= n - 2, where (V2) can fail: the constructor refuses
    # exactly the non-valuations, and the envelope oracle still walks them
    rng = random.Random(1803)
    refused = 0
    for _ in range(40):
        n = rng.randint(4, 6)
        nu = _random_map(rng, n, rng.randint(2, n - 2))
        check = mf.check_valuation_axioms(nu)
        if check.ok:
            assert _wrapped(nu).valuation is nu
        else:
            refused += 1
            with pytest.raises(ValueError, match=rf"^valuation violates \({check.kind}\)"):
                _wrapped(nu)
        slow = mf.oracle_flock(nu.ground, nu.d, lambda a, nu=nu: mf.matroid_at(nu, a))
        for walk in (0, 1, 3, nu.spread + 1):
            for combo in itertools.combinations(range(n), nu.d):
                bmask = sum(1 << i for i in combo)
                assert oracles.envelope_value(nu, bmask, walk) == \
                    flock_module._point_value(slow, bmask, walk), (nu.finite, bmask, walk)
    assert refused > 0


def test_flock_refuses_valuation_on_other_ground_or_rank():
    nu = u24_valuation()
    masks = lambda a: optimal_masks(nu, a)
    for ground, d in (((1, 2, 3, 5), 2), ((1, 2, 3, 4), 3), ((4, 3, 2, 1), 2)):
        with pytest.raises(ValueError, match="another ground set or rank"):
            mf.MatroidFlock(ground, d, masks, "wrapped", valuation=nu)


def test_valuation_checked_once_and_not_at_extraction(monkeypatch):
    calls = []
    real = flock_module.check_valuation_axioms
    monkeypatch.setattr(flock_module, "check_valuation_axioms",
                        lambda nu: calls.append(nu) or real(nu))
    for build, source in ((mf.flock_from_valuation, u24_valuation()),
                          (mf.flock_from_toric, toric_example(3)),
                          (mf.flock_from_linearized, example_param(2, 2))):
        calls.clear()
        flock = build(source)
        assert len(calls) == 1, build
        calls.clear()
        assert mf.extract_valuation(flock) == flock.valuation.normalized()
        assert calls == [], build


def _wide_toric(d: int, n: int, seed: int) -> mf.ToricRep:
    """[I_d | A] over p = 3, A's entries drawn from -4..4 by ``seed``."""
    rng = random.Random(seed)
    rows = [tuple([int(i == j) for j in range(d)] + [rng.randint(-4, 4) for _ in range(n - d)])
            for i in range(d)]
    return mf.ToricRep(tuple(rows), 3)


def test_extract_7x16_toric_in_bounded_time():
    # 7 x 16 over p = 3, C(16, 7) = 11 440 subsets; reading each value off
    # its d(n-d) = 63 single exchanges, not walking the envelope over every
    # basis, keeps build plus extraction to a few seconds
    rep = _wide_toric(7, 16, 2316)
    start = time.perf_counter()
    flock = mf.flock_from_toric(rep)
    nu = mf.extract_valuation(flock)
    elapsed = time.perf_counter() - start
    assert nu == flock.valuation.normalized() and len(nu.finite) > 10_000
    assert elapsed < 10, elapsed


def test_check_8x18_toric_valuation_in_bounded_time():
    # 43 175 bases and 9 187 695 (F, quadruple) rows of the three-term
    # rule: 0.64 s with the numpy pass and the walk over shared (d-1)-sets,
    # measured on a 2-core machine, where the per-quadruple loop and the
    # walk over single exchanges took 20.6 s
    found = mf.lindstrom_toric(_wide_toric(8, 18, 2318))
    nu = mf.Valuation(found.ground, found.d, dict(found.finite))
    start = time.perf_counter()
    check = mf.check_valuation_axioms(nu)
    elapsed = time.perf_counter() - start
    assert check.ok and len(nu.finite) == 43_175
    assert elapsed < 5, elapsed


def test_extract_backed_flock_never_evaluates_points(monkeypatch):
    def refuse(self, alpha):
        raise AssertionError(f"masks_at{alpha} called")
    monkeypatch.setattr(mf.MatroidFlock, "masks_at", refuse)
    for flock in _backed_flocks(random.Random(1802)):
        for cutoff in (None, 1, 3):
            _outcome(flock, cutoff)
    nu = u24_valuation()
    assert mf.extract_valuation(mf.flock_from_valuation(nu), cutoff=10 ** 9) == nu


@pytest.mark.parametrize("high", [10 ** 6, 2 ** 60 - 5])
def test_extract_time_does_not_grow_with_spread(high):
    # walked point by point, {2} becomes a basis only at k = high
    nu = mf.Valuation([1, 2, 3], 1, {1: 0, 2: high, 4: 3})
    flock = mf.flock_from_valuation(nu)
    start = time.perf_counter()
    assert mf.extract_valuation(flock) == nu
    assert time.perf_counter() - start < 0.5


def test_window_ids_generic_matches_vectorized():
    nu = u24_valuation()
    fast = mf.flock_from_valuation(nu)
    slow = mf.oracle_flock(nu.ground, nu.d, lambda a: mf.matroid_at(nu, a))
    gf, tf = window_ids(fast, 2)
    gs, ts = window_ids(slow, 2)
    assert gf.shape == gs.shape
    import numpy as np
    for idx in np.ndindex(*gf.shape):
        assert tf[gf[idx]] == ts[gs[idx]]


def test_window_ids_negative_radius_refused_before_scanning(monkeypatch):
    def refuse(*args):
        raise AssertionError("a box was scanned")
    monkeypatch.setattr(window, "_box_sets", refuse)
    monkeypatch.setattr(window, "_id_grid", refuse)
    nu = u24_valuation()
    for flock in (mf.flock_from_valuation(nu),
                  mf.oracle_flock(nu.ground, nu.d, lambda a: mf.matroid_at(nu, a))):
        for radius in (-1, -2):
            with pytest.raises(ValueError, match="^radius must be nonnegative$"):
                window_ids(flock, radius)


def test_window_ids_grid_is_read_only():
    # the grid window_ids returns is the remembered box the next check
    # slices, so writing to it is refused and leaves that check's report as
    # a fresh scan gives it
    nu = u24_valuation()
    flock = mf.flock_from_valuation(nu)
    want = mf.check_flock_axioms(flock, 2)
    walked = mf.oracle_flock(nu.ground, nu.d, lambda a: mf.matroid_at(nu, a))
    for source in (flock, walked):
        grid, table = window_ids(source, 3)
        with pytest.raises(ValueError, match="read-only"):
            grid[(0,) * 4] = grid[(3,) * 4]
        with pytest.raises(ValueError, match="read-only"):
            grid.fill(0)
    assert window._grid_memo
    assert mf.check_flock_axioms(flock, 2) == want


# (n, d, number of finite bases): one basis, one and two argmax words at
# the 64-bit word edge, and more than two words
SCORE_SHAPES = [(3, 1, 1), (4, 2, 5), (8, 4, 64), (8, 4, 65), (10, 4, 129), (10, 5, 200)]


@st.composite
def score_inputs(draw):
    n, d, m = draw(st.sampled_from(SCORE_SHAPES))
    subsets = list(itertools.combinations(range(n), d))
    chosen = draw(st.permutations(range(len(subsets))))[:m]
    # values near 2^60 are shifted to minimum 0 first.  A spread or a
    # coordinate of 2^62 takes score_ids to Python ints, and one of 2^53
    # stays in int64; shifting one coordinate by that much makes bases tie
    # far from 0
    base = draw(st.sampled_from([0, 2 ** 60, -(2 ** 60)]))
    far = draw(st.sampled_from([0, 2 ** 53, 2 ** 62]))
    items = sorted(
        (sum(1 << i for i in subsets[k]),
         base + draw(st.integers(0, 2)) + far * draw(st.booleans()))
        for k in chosen)
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.integers(0, n)), min_size=1, max_size=30))
    points = [[x + far * (i == j) for i, x in enumerate(row)] for row, j in rows]
    return n, d, items, points


@given(score_inputs())
@settings(max_examples=60, deadline=None)
def test_score_path_beyond_word_width(inputs):
    # the window kernel agrees with the per-point argmax at any width and
    # any magnitude, and its ids name distinct argmax sets
    n, d, items, points = inputs
    nu = mf.Valuation(range(n), d, dict(items))
    ids, table = window.score_ids(items, n, np.array(points, dtype=np.int64))
    assert len(set(table)) == len(table) == len(set(ids.tolist()))
    for alpha, k in zip(points, ids.tolist()):
        assert table[k] == optimal_masks(nu, alpha)


def test_score_path_near_two_to_the_sixty():
    items = [(0b01, 2 ** 60), (0b10, 2 ** 60 + 1)]
    ids, table = window.score_ids(items, 2, np.zeros((1, 2), dtype=np.int64))
    assert table[ids[0]] == frozenset({0b01})
    flock = mf.flock_from_valuation(mf.Valuation([1, 2], 1, dict(items)))
    assert mf.check_flock_axioms(flock, 2).ok


# ---------------------------------------------------------------------------
# flock sources

def test_flock_from_valuation_oracle():
    nu = u24_valuation()
    flock = mf.flock_from_valuation(nu)
    assert flock.matroid_at((0,) * 4) == mf.matroid_at(nu, (0,) * 4)


def test_two_element_leaders():
    flock = mf.flock_from_valuation(two_element_valuation())
    distinct = {flock.masks_at((k, l)) for k in range(-3, 4) for l in range(-3, 4)}
    assert len(distinct) == 3


def test_explicit_flock_outside_window():
    M = mf.Matroid.from_bases([1, 2], [[1], [2]])
    flock = mf.explicit_flock({(0, 0): M}, (1, 2), 1)
    with pytest.raises(ValueError):
        flock.masks_at((5, 5))


def test_explicit_flock_rejects_wrong_length_alpha():
    M = mf.Matroid.from_bases([1, 2], [[1]])
    with pytest.raises(ValueError, match=r"alpha \(0,\) has length 1, expected 2"):
        mf.explicit_flock({(0,): M}, (1, 2), 1)


def test_oracle_of_another_rank_is_refused():
    # a rank-3 matroid from a rank-2 flock: refused at the first alpha read,
    # not reported as (MF1) failures
    U34 = mf.uniform_matroid(3, 4)
    flock = mf.oracle_flock((1, 2, 3, 4), 2, lambda a: U34)
    with pytest.raises(ValueError, match=r"alpha=\(-1, -1, -1, -1\) .* rank 2"):
        mf.check_flock_axioms(flock, 1)


def test_oracle_of_mixed_basis_sizes_is_refused():
    flock = mf.MatroidFlock((1, 2, 3), 2, lambda a: frozenset({0b011, 0b100, 0b110}), "oracle")
    with pytest.raises(ValueError, match=r"alpha=\(-1, -1, -1\) .* rank 2"):
        mf.check_flock_axioms(flock, 1, check_sets=True)
    with pytest.raises(ValueError, match=r"alpha=\(0, 0, 0\)"):
        flock.masks_at((0, 0, 0))


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(flock_module, "_MEMO_CAP", 8)
    nu = u24_valuation()
    flock = mf.oracle_flock(nu.ground, nu.d, lambda a: mf.matroid_at(nu, a))
    points = list(itertools.product(range(-1, 2), repeat=4))[:30]
    for _ in range(2):
        for a in points:
            assert flock.masks_at(a) == optimal_masks(nu, a)
            assert len(flock._memo) <= 8
    assert list(flock._memo) == points[-8:]


def test_memo_holds_cap_and_drops_oldest():
    flock = mf.constant_flock(mf.uniform_matroid(2, 4))
    cap = flock_module._MEMO_CAP
    points = [(k, 0, 0, 0) for k in range(cap + 1)]
    for a in points:
        flock.masks_at(a)
    assert len(flock._memo) == cap
    assert points[0] not in flock._memo
    assert next(iter(flock._memo)) == points[1]
    flock.masks_at(points[1])            # a hit does not refresh the FIFO order
    flock.masks_at((-1, 0, 0, 0))
    assert len(flock._memo) == cap and points[1] not in flock._memo


def test_memo_eviction_in_bounded_time():
    # eviction must be O(1): deleting a plain dict's first key scans the slots
    # freed by earlier evictions, about 10 s for these calls
    flock = mf.constant_flock(mf.uniform_matroid(2, 4))
    start = time.perf_counter()
    for k in range(200_000):
        flock.masks_at((k, 0, 0, 0))
    assert time.perf_counter() - start < 3.0
    assert len(flock._memo) == flock_module._MEMO_CAP


# ---------------------------------------------------------------------------
# window property suites (small cases; acceptance runs the full matrix)

def test_property_suite_u24(rng):
    nu = u24_valuation()
    flockprops.run_property_suite(
        mf.flock_from_valuation(nu), nu.support_masks, rng, radius=2)


def test_property_suite_two_element(rng):
    nu = two_element_valuation()
    flockprops.run_property_suite(
        mf.flock_from_valuation(nu), nu.support_masks, rng, radius=3)


def test_property_suite_toric(rng):
    rep = toric_example(2)
    nu = mf.lindstrom_toric(rep)
    flockprops.run_property_suite(
        mf.flock_from_toric(rep), nu.support_masks, rng, radius=2)


def _two_element_table(corrupt):
    flock = mf.flock_from_valuation(two_element_valuation())
    table = {a: flock.matroid_at(a) for a in itertools.product(range(-3, 4), repeat=2)}
    table[corrupt] = mf.Matroid.from_bases([1, 2], [[2]])
    return mf.explicit_flock(table, (1, 2), 1)


def test_axioms_violation_is_lex_first_then_move_order():
    # one corrupted point q fails (MF1) at q - e_1 and (MF2) at q - 1, and
    # q - 1 comes first in lex order although (MF1) comes first in move order
    rep = mf.check_flock_axioms(_two_element_table((1, 0)), 2, check_sets=True)
    assert rep.mf1_failed and rep.mf2_failed and rep.set_failed
    assert (rep.violation.alpha, rep.violation.move) == ((0, -1), "1")
    # at the corner of the box nothing before it fails, and every move that
    # fails there is (MF1) on element 1, (MF2) or the set {1}; element 1 wins
    rep = mf.check_flock_axioms(_two_element_table((-2, -2)), 2, check_sets=True)
    assert (rep.violation.alpha, rep.violation.move) == ((-2, -2), 1)
    assert rep.mf2_failed == 1 and rep.set_failed
