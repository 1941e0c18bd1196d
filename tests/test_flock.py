"""Flock axioms, the potential, extraction, and the window properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import flock as flock_module, window
from matflock.flock import window_ids
from matflock.valuation import optimal_masks

import flockprops
from conftest import (
    example_param,
    random_valid_valuation,
    toric_example,
    two_element_valuation,
    u24_valuation,
)


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
    assert mf.extract_valuation(mf.flock_from_valuation(nu), cutoff=8) == nu


def test_extract_two_element_example():
    nu = mf.extract_valuation(mf.flock_from_valuation(two_element_valuation()))
    assert nu.value([1]) == 0 and nu.value([2]) == 0


def test_extract_linearized_example():
    nu = mf.extract_valuation(mf.flock_from_linearized(example_param(2, 2)))
    assert nu.value([1, 4]) == 2
    assert all(nu.value(B) == 0
               for B in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def test_extract_detects_infinite_values():
    # a loop element: every pair through 4 stays infinite
    nu = mf.Valuation.from_values(
        [1, 2, 3, 4], 2, {(1, 2): 0, (1, 3): 0, (2, 3): 1})
    got = mf.extract_valuation(mf.flock_from_valuation(nu))
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
        mf.extract_valuation(mf.flock_from_valuation(nu), cutoff=2)
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
                results.append(mf.extract_valuation(flock, cutoff, radius))
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
        assert mf.extract_valuation(flock) == nu
        assert mf.check_flock_axioms(flock, 2).ok


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


# (n, d, number of finite bases): one basis, one and two argmax words at
# the 64-bit word edge, and more than two words
SCORE_SHAPES = [(3, 1, 1), (4, 2, 5), (8, 4, 64), (8, 4, 65), (10, 4, 129), (10, 5, 200)]


@st.composite
def score_inputs(draw):
    n, d, m = draw(st.sampled_from(SCORE_SHAPES))
    subsets = list(itertools.combinations(range(n), d))
    chosen = draw(st.permutations(range(len(subsets))))[:m]
    # values near 2^60 defeat float64 unless shifted.  A spread or a
    # coordinate of 2^53 or more forces Python-int scores; shifting one
    # coordinate by that much makes bases tie far above 2^53
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
