"""Window-based M/L-convexity, duality, and the local optimality test."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock.discrete_convex import WindowFunction
from matflock.lattice import INF, vjoin, vmeet

import oracles
from conftest import random_valid_valuation, u24_valuation


def box(lo, hi):
    return itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))


# ---------------------------------------------------------------------------
# window functions

@pytest.mark.parametrize("bad", [1.5, True])
def test_window_function_refuses_non_integral_coordinate(bad):
    with pytest.raises(ValueError, match=r"point \(.*\) has a coordinate that is not an integer"):
        WindowFunction(2, (0, 0), (2, 2), {(0, 0): 0, (1, bad): 1})


@pytest.mark.parametrize("bad", [1.5, True])
def test_window_function_refuses_non_integral_bound(bad):
    h = WindowFunction(1, (0,), (1,), {(0,): 0})
    for lo, hi in (((bad,), (2,)), ((0,), (bad,))):
        with pytest.raises(ValueError, match="bounds must be integers"):
            WindowFunction(1, lo, hi, {(1,): 0})
        with pytest.raises(ValueError, match="bounds must be integers"):
            mf.fenchel_dual(h, lo, hi)


@pytest.mark.parametrize("bad", [1.5, True])
def test_window_function_refuses_non_integral_value(bad):
    with pytest.raises(ValueError, match=r"value .* at \(1,\) is not an integer"):
        WindowFunction(1, (0,), (1,), {(0,): 1, (1,): bad})


def test_window_function_reads_integral_values_of_other_types():
    f = WindowFunction(2.0, (0, -1.0), (2.0, 1), {(2.0, 1): 2.0, (0, -1): 3})
    assert (f.n, f.lo, f.hi, f.values) == (2, (0, -1), (2, 1), {(2, 1): 2, (0, -1): 3})
    assert {type(x) for pt, v in f.values.items() for x in (*pt, v)} == {int}
    assert {type(x) for x in (f.n, *f.lo, *f.hi)} == {int}


# ---------------------------------------------------------------------------
# L-convexity

def test_lconvex_max():
    g = WindowFunction(2, (-2, -2), (2, 2),
                       {p: max(p) for p in box((-2, -2), (2, 2))})
    rep = mf.check_lconvex(g)
    assert rep.ok and rep.r == 1
    # unit squares of the 5x5 box: 4 * 4
    assert rep.shift_skipped > 0 and rep.submodular_checked == 16


def test_lconvex_product_fails():
    g = WindowFunction(2, (0, 0), (2, 2),
                       {p: p[0] * p[1] for p in box((0, 0), (2, 2))})
    rep = mf.check_lconvex(g)
    assert not rep.ok
    x, y = rep.witness
    assert g(x) + g(y) < g(tuple(map(max, x, y))) + g(tuple(map(min, x, y)))


def test_lconvex_constant():
    g = WindowFunction(2, (-1, -1), (1, 1), {p: 5 for p in box((-1, -1), (1, 1))})
    rep = mf.check_lconvex(g)
    assert rep.ok and rep.r == 0


def test_lconvex_inconsistent_shift():
    vals = {p: 0 for p in box((-1, -1), (1, 1))}
    vals[(1, 1)] = 3
    rep = mf.check_lconvex(WindowFunction(2, (-1, -1), (1, 1), vals))
    assert not rep.ok


def test_lconvex_domain_not_a_lattice():
    # no unit square has both diagonal points finite; the pair does
    g = WindowFunction(2, (0, 0), (2, 2), {(0, 2): 0, (2, 0): 0})
    rep = mf.check_lconvex(g)
    assert not rep.ok and rep.witness == ((0, 2), (2, 0))


def all_pairs_lconvex(g):
    """Every pair of box points, then the all-ones slope: (ok, r, witness, kind)."""
    pts = list(box(g.lo, g.hi))
    for x, y in itertools.combinations(pts, 2):
        if g(x) + g(y) < g(vjoin(x, y)) + g(vmeet(x, y)):
            return False, None, (x, y), "submodular"
    r = None
    for x in pts:
        xs = tuple(v + 1 for v in x)
        if not g.in_box(xs) or g(x) == g(xs) == INF:
            continue
        if (g(x) == INF) != (g(xs) == INF) or r not in (None, g(xs) - g(x)):
            return False, None, (x, xs), "shift"
        r = g(xs) - g(x)
    return True, r, None, None


@st.composite
def box_functions(draw):
    """A box with n <= 3 and width <= 4, and a total or partial function on it."""
    n = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-2, 0)) for _ in range(n))
    hi = tuple(l + draw(st.integers(0, 3)) for l in lo)
    pts = list(box(lo, hi))
    kind = draw(st.sampled_from(["dual", "max_affine", "differences", "trusted_dual"]))
    if kind in ("dual", "trusted_dual"):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        nu = random_valid_valuation(rng, n, rng.randint(1, n))
        dual = mf.fenchel_dual(mf.valuation_point_function(nu), lo, hi)
        if kind == "trusted_dual":
            # as fenchel_dual returns it: built by _on_box, values kept in box order
            return dual
        values = dict(dual.values)
    elif kind == "max_affine":
        pieces = draw(st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=n,
                                                  max_size=n),
                                         st.integers(-3, 3)), min_size=1, max_size=3))
        values = {x: max(sum(a * b for a, b in zip(c, x)) + k for c, k in pieces)
                  for x in pts}
    else:
        # sum over i < j of a t^2 + b t at t = x_i - x_j, plus r * sum(x):
        # a negative a spoils unit squares in plane (i, j) and no others
        r = draw(st.integers(-2, 2))
        coef = {(i, j): (draw(st.integers(-1, 2)), draw(st.integers(-2, 2)))
                for i, j in itertools.combinations(range(n), 2)}
        values = {x: r * sum(x) + sum(a * (x[i] - x[j]) ** 2 + b * (x[i] - x[j])
                                      for (i, j), (a, b) in coef.items())
                  for x in pts}
    change = draw(st.sampled_from(["none", "bump", "holes"]))
    if change == "bump":
        x = draw(st.sampled_from(pts))
        values[x] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif change == "holes" and len(pts) > 1:
        holes = draw(st.sets(st.sampled_from(pts), min_size=1, max_size=len(pts) - 1))
        values = {x: v for x, v in values.items() if x not in holes}
    return WindowFunction(n, lo, hi, values)


@settings(max_examples=300, deadline=None)
@given(box_functions())
def test_lconvex_matches_all_pairs_oracle(g):
    rep = mf.check_lconvex(g)
    assert rep == oracles.check_lconvex(g)
    ok, r, witness, kind = all_pairs_lconvex(g)
    assert (rep.ok, rep.r) == (ok, r)
    total = len(g.values) == math.prod(h - l + 1 for l, h in zip(g.lo, g.hi))
    if not total or kind == "shift":
        assert rep.witness == witness
    elif kind == "submodular":
        x, y = rep.witness
        assert g(x) + g(y) < g(vjoin(x, y)) + g(vmeet(x, y))
    else:
        sides = [h - l + 1 for l, h in zip(g.lo, g.hi)]
        assert rep.submodular_checked == sum(
            math.prod(sides) // (sides[i] * sides[j]) * (sides[i] - 1) * (sides[j] - 1)
            for i, j in itertools.combinations(range(g.n), 2))


# ---------------------------------------------------------------------------
# M-convexity

def test_mconvex_uniform_points():
    u24 = mf.uniform_matroid(2, 4)
    f = WindowFunction(4, (0,) * 4, (1,) * 4,
                       {tuple(1 if e in B else 0 for e in u24.ground): 0
                        for B in u24.bases})
    assert mf.check_mconvex(f).ok


def test_mconvex_valuation_points():
    assert mf.check_mconvex(mf.valuation_point_function(u24_valuation())).ok


def test_mconvex_gap_violation():
    f = WindowFunction(2, (0, 0), (2, 2), {(2, 0): 0, (0, 2): 0})
    rep = mf.check_mconvex(f)
    assert not rep.ok
    x, y, i = rep.witness
    assert {x, y} == {(2, 0), (0, 2)}


# ---------------------------------------------------------------------------
# Fenchel duality

def test_fenchel_two_point_sup():
    h = WindowFunction(2, (0, 0), (1, 1), {(1, 0): 0, (0, 1): 0})
    dual = mf.fenchel_dual(h, (-3, -3), (3, 3))
    assert all(dual(x) == max(x) for x in box((-3, -3), (3, 3)))


@st.composite
def primal_and_dual_box(draw):
    """A function with n <= 4 on a box with negative corners, its domain
    any nonempty set of box points, and a dual box of sides 1 to 4."""
    n = draw(st.integers(1, 4))
    lo = tuple(draw(st.integers(-2, 0)) for _ in range(n))
    hi = tuple(l + draw(st.integers(0, 2)) for l in lo)
    pts = list(box(lo, hi))
    domain = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=len(pts), unique=True))
    values = {x: draw(st.integers(-5, 5)) for x in domain}
    dual_lo = tuple(draw(st.integers(-3, 1)) for _ in range(n))
    dual_hi = tuple(l + draw(st.integers(0, 3)) for l in dual_lo)
    return WindowFunction(n, lo, hi, values), dual_lo, dual_hi


@settings(max_examples=300, deadline=None)
@given(primal_and_dual_box())
@example((WindowFunction(1, (-1,), (1,), {(-1,): 4}), (-2,), (1,)))
@example((WindowFunction(3, (-1,) * 3, (1,) * 3, {(1, -1, 0): 2}), (-1,) * 3, (2,) * 3))
# a primal built by _on_box: the dual of a dual
@example((mf.fenchel_dual(WindowFunction(2, (0, 0), (1, 1), {(1, 0): 0, (0, 1): 2}),
                          (-1, -2), (1, 0)), (0, 0), (1, 1)))
def test_fenchel_matches_exhaustive_oracle(case):
    h, dual_lo, dual_hi = case
    assert mf.fenchel_dual(h, dual_lo, dual_hi) == oracles.fenchel_dual(h, dual_lo, dual_hi)


@st.composite
def point_function_and_dual_box(draw):
    """A function with 0 <= n <= 4 on a box of sides 1 to 3, finite on the
    whole box (dense) or on a random nonempty part of it (sparse), and a
    dual box of sides 1 to 5 with at most 625 points."""
    n = draw(st.integers(0, 4))
    lo = tuple(draw(st.integers(-2, 1)) for _ in range(n))
    hi = tuple(l + draw(st.integers(0, 2)) for l in lo)
    pts = list(box(lo, hi))
    if draw(st.booleans()):
        domain = pts
    else:
        domain = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=len(pts),
                               unique=True))
    values = {x: draw(st.integers(-6, 6)) for x in domain}
    dual_lo = tuple(draw(st.integers(-3, 1)) for _ in range(n))
    dual_hi = tuple(l + draw(st.integers(0, 4)) for l in dual_lo)
    return WindowFunction(n, lo, hi, values), dual_lo, dual_hi


def _mconvex_report(f):
    """``check_mconvex``'s report, on boxes small enough for its pair scan."""
    return mf.check_mconvex(f) if len(f.values) <= 125 else None


@settings(max_examples=200, deadline=None)
@given(point_function_and_dual_box())
@example((WindowFunction(0, (), (), {(): 3}), (), ()))
def test_trusted_dual_matches_public_constructor(case):
    # fenchel_dual builds its output by _on_box, which checks nothing; the
    # public constructor, fed the same values, must give the same function
    # and the same verdicts, field by field
    h, dual_lo, dual_hi = case
    g = mf.fenchel_dual(h, dual_lo, dual_hi)
    public = WindowFunction(g.n, dual_lo, dual_hi, dict(g.values))
    assert g == public and public == g
    assert repr(g) == repr(public) and g.domain() == public.domain()
    assert {type(x) for pt, v in g.values.items() for x in (*pt, v)} <= {int}
    # reports compare field by field: ok, r, witness and every count
    assert mf.check_lconvex(g) == mf.check_lconvex(public)
    assert _mconvex_report(g) == _mconvex_report(public)


def test_window_function_values_are_read_only():
    h = WindowFunction(2, (0, 0), (1, 1), {(1, 0): 0, (0, 1): 0})
    g = mf.fenchel_dual(h, (-1, -1), (1, 1))
    for f in (h, g):
        with pytest.raises(TypeError):
            f.values[(0, 0)] = 7
        with pytest.raises(TypeError):
            del f.values[next(iter(f.values))]
        for name in ("n", "lo", "hi", "values"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(f, name, getattr(f, name))
    assert mf.check_lconvex(g) == mf.check_lconvex(WindowFunction(2, (-1, -1), (1, 1),
                                                                   {x: max(x) for x in
                                                                    box((-1, -1), (1, 1))}))


def test_public_function_with_infinite_points_checks_through_kept_list():
    # no unit square has both diagonal points finite: the pairs of finite
    # points decide, read from the box list built on the first check
    g = WindowFunction(2, (0, 0), (2, 2), {(0, 2): 0, (2, 0): 0})
    assert g._box_vals is None
    rep = mf.check_lconvex(g)
    assert g._box_vals == tuple(g(x) for x in box((0, 0), (2, 2)))
    assert g._box_vals.count(INF) == 7
    assert rep == oracles.check_lconvex(g) and not rep.ok
    assert rep.witness == ((0, 2), (2, 0))
    kept = g._box_vals
    assert mf.check_lconvex(g) == rep and g._box_vals is kept


def test_fenchel_matches_g_value(rng):
    cases = [u24_valuation()] + [random_valid_valuation(rng, 4, 2) for _ in range(4)]
    for nu in cases:
        f = mf.valuation_point_function(nu)
        dual = mf.fenchel_dual(f, (-3,) * 4, (3,) * 4)
        for a in box((-3,) * 4, (3,) * 4):
            assert dual(a) == mf.g_value(nu, a)


def test_double_dual_restores_on_domain(rng):
    for nu in [u24_valuation(), random_valid_valuation(rng, 4, 2)]:
        f = mf.valuation_point_function(nu)
        g = mf.fenchel_dual(f, (-3,) * 4, (3,) * 4)
        back = mf.fenchel_dual(g, (0,) * 4, (1,) * 4)
        for pt in f.domain():
            assert back(pt) == f(pt)
        assert mf.check_mconvex(f).ok
        assert mf.check_lconvex(g).ok


# ---------------------------------------------------------------------------
# local optimality (the 2^n + 1 evaluation criterion)

def test_minimizer_examples():
    assert mf.lconvex_is_minimizer(lambda a: max(a) - a[0], (0, 0), 2)
    assert not mf.lconvex_is_minimizer(lambda a: max(a), (0, 0), 2)
    assert mf.lconvex_is_minimizer(lambda a: 7, (3, -2), 2)


def test_minimizer_rejects_non_lconvex():
    with pytest.raises(ValueError):
        mf.lconvex_is_minimizer(lambda a: -(max(a) - min(a)), (0, 0), 2)


def test_minimizer_rejects_point_of_wrong_length():
    for x in ((0, 0, 0), (0,)):
        with pytest.raises(ValueError, match="wrong length"):
            mf.lconvex_is_minimizer(lambda a: 0, x, 2)


def test_minimizer_guard_with_infinite_values():
    # the cube {x + e_I} of an oracle finite on (1, 0) and (0, 1) only
    with pytest.raises(ValueError):
        mf.lconvex_is_minimizer(lambda a: 0 if sum(a) == 1 else INF, (0, 0), 2)
    # finite on the diagonal of the cube only: nothing to fail
    assert mf.lconvex_is_minimizer(lambda a: 0 if a[0] == a[1] else INF, (0, 0), 2)


def test_minimizer_agrees_with_exhaustive_search(rng):
    # G(a) = g(a) - e_B . a for a support basis B: slope-0 L-convex oracles
    for _ in range(25):
        n = rng.choice([2, 3])
        nu = random_valid_valuation(rng, n, rng.randint(1, min(2, n)))
        basis = rng.choice(sorted(nu.finite))
        idx = [i for i in range(n) if basis >> i & 1]

        def G(a):
            return mf.g_value(nu, a) - sum(a[i] for i in idx)

        x = tuple(rng.randint(-2, 2) for _ in range(n))
        exhaustive = min(
            G(tuple(x[i] + d[i] for i in range(n)))
            for d in box((-3,) * n, (3,) * n))
        assert mf.lconvex_is_minimizer(G, x, n) == (G(x) == exhaustive)
