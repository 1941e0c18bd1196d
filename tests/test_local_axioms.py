"""The local axiom checks against a pair-predicate oracle, and the box they read.

The oracle is the earlier form of ``_local_axioms``: a grid centred at
alpha = 0 that reaches one step past the checked box on both sides, and
moves given as predicates ``holds(id, id')`` evaluated once per distinct
pair of ids.  The library now reads only [-r, r + 1]^E and compares one key
per id; counts and violations must be the same.
"""

import itertools
import operator
import random

import numpy as np
import pytest

import matflock as mf
from matflock import jsonio, linalg, window
from matflock.algebraic import FrobeniusWindowReport, _space_contract, _space_delete
from matflock.flock import FlockViolation, _id_grid, window_ids
from matflock.matroid import bases_contract, bases_delete

from conftest import example_param, random_valid_valuation


# ---------------------------------------------------------------------------
# the pair-predicate oracle

def pair_local_axioms(grid, radius, moves):
    """(checked, failed) per move (I, holds) and the lex-first violation
    (alpha, move index, id, id'), on a grid centred at alpha = 0."""
    L = grid.shape[0] if grid.ndim else 1
    centre = L // 2
    K = int(grid.max()) + 1
    counts = []
    first = None
    for k, (axes, holds) in enumerate(moves):
        base, top = [], []
        for axis in range(grid.ndim):
            step = int(axis in axes)
            start, stop = centre - radius, min(centre + radius + 1, L - step)
            base.append(slice(start, stop))
            top.append(slice(start + step, stop + step))
        pairs = grid[tuple(base)].astype(np.int64) * K + grid[tuple(top)]
        bad = [code for code in np.unique(pairs).tolist() if not holds(*divmod(code, K))]
        failed = 0
        if bad:
            fails = np.isin(pairs, bad)
            failed = int(np.count_nonzero(fails))
            idx = tuple(int(x) for x in np.argwhere(fails)[0])
            alpha = tuple(x - radius for x in idx)
            if first is None or alpha < first[0]:
                first = (alpha, k, *divmod(int(pairs[idx]), K))
        counts.append((int(pairs.size), failed))
    return counts, first


def oracle_flock_report(flock, radius, check_sets=False):
    """``check_flock_axioms`` on the padded grid [-(r+1), r+1]^E."""
    n = len(flock.ground)
    grid, table = window_ids(flock, radius + 1)

    def minor_axiom(cmask):
        return lambda a, b: bases_contract(table[a], cmask) == bases_delete(table[b], cmask)

    moves = [((axis,), minor_axiom(1 << axis)) for axis in range(n)]
    moves.append((tuple(range(n)), lambda a, b: a == b))
    if check_sets:
        moves += [(combo, minor_axiom(sum(1 << i for i in combo)))
                  for r in range(1, n + 1) for combo in itertools.combinations(range(n), r)]
    counts, first = pair_local_axioms(grid, radius, moves)
    violation = None
    if first is not None:
        alpha, k, ida, idb = first
        left, right = mf.Matroid(flock.ground, table[ida]), mf.Matroid(flock.ground, table[idb])
        if k < n:
            move = flock.ground[k]
            left, right = left.minor(contract=[move]), right.minor(delete=[move])
        else:
            move = "1" if k == n else tuple(flock.ground[i] for i in moves[k][0])
        violation = FlockViolation(alpha, move, left, right)
    mf1, mf2, sets = counts[:n], counts[n], counts[n + 1:]
    return mf.FlockWindowReport(radius, sum(c for c, _ in mf1), sum(f for _, f in mf1),
                                *mf2, sum(c for c, _ in sets), sum(f for _, f in sets),
                                violation)


def oracle_frobenius_report(win, box_radius=None):
    """``validate_frobenius_window`` on the whole table [-R, R]^E."""
    p, R, n = win.p, win.radius, len(win.ground)
    grid, spaces = _id_grid(n, -R, R, lambda a: linalg.gf_row_space(win.table[a], p))

    def sides(k, a, b):
        if k == n:
            return spaces[a], spaces[b]
        return _space_contract(spaces[a], k, p), _space_delete(spaces[b], k, p)

    moves = [((k,) if k < n else tuple(range(n)),
              lambda a, b, k=k: operator.eq(*sides(k, a, b))) for k in range(n + 1)]
    radius = R if box_radius is None else min(box_radius, R)
    counts, first = pair_local_axioms(grid, radius, moves)
    violation = None
    if first is not None:
        alpha, k, a, b = first
        violation = (alpha, win.ground[k] if k < n else "1", *sides(k, a, b))
    return FrobeniusWindowReport(radius, sum(c for c, _ in counts[:n]),
                                 sum(f for _, f in counts[:n]), *counts[n], violation)


# ---------------------------------------------------------------------------
# differential tests

def _corrupted_flocks(rng):
    """Seeded (flock, radius) pairs: valuation flocks with a few points
    replaced by the matroid of another point or a uniform matroid, as an
    oracle and as an explicit table over the padded box."""
    for _ in range(24):
        n = rng.randint(2, 4)
        d = rng.randint(1, n - 1)
        radius = rng.randint(1, 2)
        nu = random_valid_valuation(rng, n, d)
        box = list(itertools.product(range(-radius - 1, radius + 2), repeat=n))
        uniform = mf.uniform_matroid(d, n)
        swap = {}
        for alpha in rng.sample(box, rng.randint(0, 3)):
            swap[alpha] = (uniform if rng.random() < 0.5
                           else mf.matroid_at(nu, rng.choice(box)))

        def at(alpha, nu=nu, swap=swap):
            return swap[alpha] if alpha in swap else mf.matroid_at(nu, alpha)
        yield mf.oracle_flock(nu.ground, d, at), radius
        yield mf.explicit_flock({a: at(a) for a in box}, nu.ground, d), radius


def test_flock_axioms_match_pair_oracle():
    rng = random.Random(901)
    reports = violations = 0
    for flock, radius in _corrupted_flocks(rng):
        for sets in (False, True):
            want = oracle_flock_report(flock, radius, check_sets=sets)
            got = mf.check_flock_axioms(flock, radius, check_sets=sets)
            assert got == want, (flock, radius, sets)
            assert jsonio.flock_report_to_json(got) == jsonio.flock_report_to_json(want)
            reports += 1
            violations += want.violation is not None
    assert reports == 96 and 10 <= violations < reports


def _small_param(rng, p, m, n):
    """A random parametrization, one or two terms per coordinate, levels 0..2."""
    while True:
        coords = [[(rng.randrange(m), rng.randint(0, 2), rng.randint(1, p - 1))
                   for _ in range(rng.randint(1, 2))] for _ in range(n)]
        try:
            return mf.LinearizedParam(p, m, coords)
        except ValueError:
            continue


def test_frobenius_axioms_match_pair_oracle():
    rng = random.Random(902)
    params = [example_param(p, g) for p in (2, 3) for g in (1, 2)]
    params += [_small_param(rng, rng.choice((2, 3)), rng.randint(1, 2), rng.randint(2, 3))
               for _ in range(8)]
    reports = violations = 0
    for param in params:
        R = 2
        win = mf.frobenius_window(param, R)
        spaces = sorted(set(win.table.values()))
        for trial in range(4):
            table = dict(win.table)
            for alpha in rng.sample(sorted(table), trial):
                rows = rng.choice(spaces)
                if rng.random() < 0.5:
                    rows = tuple(tuple(rng.randrange(param.p) for _ in range(param.n))
                                 for _ in range(win.d))
                table[alpha] = rows
            bad = mf.FrobeniusFlockWindow(R, win.p, win.d, win.ground, table)
            for box_radius in (None, 0, 1, 2, 3):
                want = oracle_frobenius_report(bad, box_radius)
                got = mf.validate_frobenius_window(bad, box_radius=box_radius)
                assert got == want, (param.coords, trial, box_radius)
                reports += 1
                violations += want.violation is not None
    assert reports == 240 and 10 <= violations < reports


def test_check_frobenius_axioms_match_pair_oracle():
    for param in (example_param(2, 2), example_param(3, 1)):
        for radius in (0, 1, 2):
            want = oracle_frobenius_report(mf.frobenius_window(param, radius + 1), radius)
            assert mf.check_frobenius_axioms(param, radius) == want


# ---------------------------------------------------------------------------
# the box the checks read

def test_oracle_flock_read_on_half_open_box():
    nu = mf.Valuation.from_values(
        [1, 2, 3], 2, {(1, 2): 1, (1, 3): 0, (2, 3): 0})
    for radius in (1, 2):
        seen = []
        flock = mf.oracle_flock(nu.ground, 2, lambda a: seen.append(a) or mf.matroid_at(nu, a))
        assert mf.check_flock_axioms(flock, radius, check_sets=True).ok
        assert len(seen) == (2 * radius + 2) ** 3
        assert set(seen) == set(itertools.product(range(-radius, radius + 2), repeat=3))


def test_explicit_table_on_half_open_box_suffices():
    nu = mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 1})
    for radius in (1, 2, 3):
        box = itertools.product(range(-radius, radius + 2), repeat=2)
        flock = mf.explicit_flock({a: mf.matroid_at(nu, a) for a in box}, nu.ground, 1)
        rep = mf.check_flock_axioms(flock, radius, check_sets=True)
        assert rep.ok and rep.mf2_checked == (2 * radius + 1) ** 2
        with pytest.raises(ValueError, match="outside the explicit window"):
            mf.check_flock_axioms(flock, radius + 1)


def test_frobenius_check_scores_half_open_box(monkeypatch):
    scored = []
    score_ids = window.score_ids

    def counting(items, n, points):
        scored.append(len(points))
        return score_ids(items, n, points)
    monkeypatch.setattr(window, "score_ids", counting)
    for radius in (0, 1, 2):
        scored.clear()
        assert mf.check_frobenius_axioms(example_param(2, 2), radius).ok
        assert scored == [(2 * radius + 2) ** 4]
