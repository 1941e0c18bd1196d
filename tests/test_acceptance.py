"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  All arithmetic is exact, so every comparison is equality; the
stated wall-clock budgets are asserted as well.
"""

import itertools
import random
import time

import numpy as np

import matflock as mf

import flockprops
from conftest import (
    example_param,
    extract_checked,
    random_saturated_toric,
    random_valid_valuation,
    toric_example,
    two_element_valuation,
    u24_valuation,
)


def _report(num: int, detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


# ---------------------------------------------------------------------------

def test_criterion_1_two_element_flock():
    t0 = time.time()
    flock = mf.flock_from_valuation(two_element_valuation())
    for k in range(-5, 6):
        for l in range(-5, 6):
            bases = sorted(flock.matroid_at((k, l)).bases)
            if k == l:
                assert bases == [(1,), (2,)]
            elif k > l:
                assert bases == [(1,)]
            else:
                assert bases == [(2,)]
    _report(1, "two-element flock matches the leader picture on [-5,5]^2", t0, 1)


def test_criterion_2_valuation_flock_round_trip():
    t0 = time.time()
    rng = random.Random(42)
    sizes = ([(2, 1)] * 15 + [(2, 2)] * 10 + [(3, 1)] * 10 + [(3, 2)] * 15
             + [(4, 2)] * 40 + [(4, 3)] * 15 + [(5, 2)] * 30 + [(5, 3)] * 20
             + [(6, 2)] * 25 + [(6, 3)] * 20)
    assert len(sizes) >= 200
    for n, d in sizes:
        nu = random_valid_valuation(rng, n, d, vmax=3, max_inf=2)
        flock = mf.flock_from_valuation(nu)
        assert extract_checked(flock) == nu
        assert mf.check_flock_axioms(flock, 3).ok
    _report(2, f"{len(sizes)} random valuations round-trip exactly, "
            "axioms hold at radius 3", t0, 60)


def test_criterion_3_frobenius_example():
    t0 = time.time()
    param = example_param(2, 2)

    # tangent matrices, entry for entry over GF(2)
    assert mf.linearized_tangent(param) == ((1, 0, 1, 1), (0, 1, 1, 0))
    assert mf.linearized_tangent(mf.linearized_shift(param, (0, -1, -1, 0))) == \
        ((1, 0, 0, 1), (0, 1, 1, 0))
    assert mf.linearized_tangent(mf.linearized_shift(param, (0, -2, -2, 0))) == \
        ((1, 0, 0, 1), (0, 1, 1, 1))

    # parallel classes of the three displayed twists
    flock = mf.flock_from_linearized(param)
    pp = lambda a: mf.Matroid(flock.ground, flock.masks_at(a)).parallel_pairs()
    assert pp((0, 0, 0, 0)) == ((1, 4),)
    assert pp((0, -1, -1, 0)) == ((1, 4), (2, 3))
    assert pp((0, -2, -2, 0)) == ((2, 3),)

    # extracted valuation: value g = 2 on {1,4}, zero elsewhere
    nu = extract_checked(flock)
    assert nu.value([1, 4]) == 2
    assert all(nu.value(B) == 0
               for B in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])

    # exactly two vertices in the alpha_1 = 0 normalization (here alpha_4 = 0 too)
    assert mf.zero_dimensional_cells(nu) == [(0, -2, -2, 0), (0, 0, 0, 0)]
    _report(3, "twist family, tangents, valuation and both vertices match", t0, 5)


def test_criterion_4_toric_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(99)
    count = 0
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(max(d, 2), 6)
        p = rng.choice([2, 3, 5])
        rep = random_saturated_toric(rng, d, n, p)
        assert extract_checked(mf.flock_from_toric(rep)) == \
            mf.lindstrom_toric(rep)
        count += 1
    _report(4, f"{count} random saturated matrices: walk extraction equals "
            "p-adic minor valuation", t0, 120)


def test_criterion_5_rigidity():
    t0 = time.time()
    assert mf.rigidity_certificate(mf.fano_matroid()).kind == "rigid"
    for n in range(2, 7):
        assert mf.rigidity_certificate(mf.uniform_matroid(1, n)).kind == "rigid"
        assert mf.rigidity_certificate(mf.uniform_matroid(n - 1, n)).kind == "rigid"
    verdict = mf.rigidity_certificate(mf.uniform_matroid(2, 4))
    assert verdict.kind == "not_rigid"
    w = verdict.witness
    assert mf.check_valuation_axioms(w).ok
    assert mf.support_matroid(w) == mf.uniform_matroid(2, 4)
    assert not mf.is_trivial(w).trivial
    _report(5, "Fano and U(1,n)/U(n-1,n) rigid; U(2,4) not, witness verified",
            t0, 30)


def test_criterion_6_lazarson():
    t0 = time.time()
    relabel = {"x0": 1, "x1": 2, "x2": 3, "z": 4, "y0": 5, "y1": 6, "y2": 7}
    assert mf.lazarson(2, "full").relabel(relabel) == mf.fano_matroid()
    assert mf.lazarson(2, "minus").relabel(relabel) == mf.nonfano_matroid()
    for n in range(2, 7):
        for p in (2, 3, 5):
            check = mf.lazarson_char_check(n, p)
            assert check.det == n * (-1) ** n
            assert check.divisible == (n % p == 0)
    _report(6, "family matches the plane pair at n=2; dets equal n(-1)^n; "
            "divisibility = p | n", t0, 10)


def _test_valuations(rng):
    vals = [
        u24_valuation(),
        two_element_valuation(),
        mf.lindstrom_toric(toric_example(2)),
        extract_checked(mf.flock_from_linearized(example_param(2, 2))),
        mf.circuit_hyperplane_valuation(mf.uniform_matroid(2, 4), [1, 3], 2),
        mf.Valuation.from_values(
            [1, 2, 3], 2, {(1, 2): 0, (1, 3): 0, (2, 3): 0}),
    ]
    vals += [random_valid_valuation(rng, 4, 2) for _ in range(3)]
    vals += [random_valid_valuation(rng, 3, 2) for _ in range(3)]
    return vals


def test_criterion_7_discrete_convex_suite():
    t0 = time.time()
    rng = random.Random(7)
    window = 3

    for nu in _test_valuations(rng):
        n = len(nu.ground)
        lo, hi = (-window,) * n, (window,) * n
        f = mf.valuation_point_function(nu)
        dual = mf.fenchel_dual(f, lo, hi)
        flock = mf.flock_from_valuation(nu)

        # dual equals the gauge pointwise; the flock potential is its
        # normalization, submodular and 1-affine with slope d
        pts = list(itertools.product(range(-window, window + 1), repeat=n))
        gM = {}
        base = mf.g_value(nu, (0,) * n)
        for a in pts:
            gv = mf.g_value(nu, a)
            assert dual(a) == gv
            gM[a] = mf.g_M(flock, a)
            assert gM[a] == gv - base

        one = (1,) * n
        for a in pts:
            shifted = tuple(x + 1 for x in a)
            if shifted in gM:
                assert gM[shifted] == gM[a] + nu.d

        if n <= 3:
            pairs = itertools.combinations(pts, 2)
            for a, b in pairs:
                join = tuple(map(max, a, b))
                meet = tuple(map(min, a, b))
                assert gM[a] + gM[b] >= gM[join] + gM[meet]
        else:
            arr = np.array(pts, dtype=np.int64)
            G = np.array([gM[a] for a in pts], dtype=np.int64)
            span = 2 * window + 1
            weights = span ** np.arange(n - 1, -1, -1)
            for block in range(0, len(pts), 256):
                A = arr[block:block + 256]
                GA = G[block:block + 256]
                join = np.maximum(A[:, None, :], arr[None, :, :])
                meet = np.minimum(A[:, None, :], arr[None, :, :])
                jidx = (join + window) @ weights
                midx = (meet + window) @ weights
                assert np.all(GA[:, None] + G[None, :] >= G[jidx] + G[midx])

    # the 2^n + 1 evaluation minimality test vs exhaustive minimization
    agree = 0
    for _ in range(50):
        n = rng.choice([2, 3])
        nu = random_valid_valuation(rng, n, rng.randint(1, min(2, n)))
        basis = rng.choice(sorted(nu.finite))
        idx = [i for i in range(n) if basis >> i & 1]
        G = lambda a: mf.g_value(nu, a) - sum(a[i] for i in idx)
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        best = min(G(tuple(x[i] + d[i] for i in range(n)))
                   for d in itertools.product(range(-3, 4), repeat=n))
        assert mf.lconvex_is_minimizer(G, x, n) == (G(x) == best)
        agree += 1
    _report(7, "duality, potential laws, and 50 minimizer windows agree", t0, 60)


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = random.Random(13)
    flocks = []

    nu = u24_valuation()
    flocks.append(("u24 weights", mf.flock_from_valuation(nu), nu.support_masks, 2))
    nu = two_element_valuation()
    flocks.append(("two-element", mf.flock_from_valuation(nu), nu.support_masks, 3))
    for k in range(4):
        n = rng.choice([3, 4])
        nu = random_valid_valuation(rng, n, rng.randint(1, min(3, n)))
        flocks.append((f"random valuation {k}", mf.flock_from_valuation(nu),
                       nu.support_masks, 2))

    for p in (2, 3):
        rep = toric_example(p)
        nu = mf.lindstrom_toric(rep)
        flocks.append((f"toric example p={p}", mf.flock_from_toric(rep),
                       nu.support_masks, 3))
    for k in range(2):
        rep = random_saturated_toric(rng, rng.randint(1, 3), rng.randint(3, 4),
                                     rng.choice([2, 3]))
        nu = mf.lindstrom_toric(rep)
        flocks.append((f"random toric {k}", mf.flock_from_toric(rep),
                       nu.support_masks, 2))

    for (p, g) in [(2, 1), (2, 2), (3, 1)]:
        param = example_param(p, g)
        support = mf.linearized_support_matroid(param)
        flocks.append((f"linearized p={p} g={g}",
                       mf.linearized_tangent_flock(param), support.masks, 2))

    for name, flock, support, radius in flocks:
        flockprops.run_property_suite(flock, support, rng, radius=radius)

    # walk connectivity for a 5-element flock, radius 1 slice (higher radii
    # make the enclosing window infeasible to flood-fill)
    nu5 = random_valid_valuation(rng, 5, 2)
    flockprops.check_walk_connected(mf.flock_from_valuation(nu5), radius=1)

    _report(8, f"{len(flocks)} flocks pass the minor/triangle/rank/step/walk/"
            "support suites", t0, 120)
