"""The local axiom checks against a pair-predicate oracle, and the box they read.

The oracle is the earlier form of ``_local_axioms``: a grid centred at
alpha = 0 that reaches one step past the checked box on both sides, and
moves given as predicates ``holds(id, id')`` evaluated once per distinct
pair of ids.  The library now reads only [-r, r + 1]^E and compares one key
per id; counts and violations must be the same.  The kernel itself, which
reads one contiguous copy of the checked block, is also compared with its
strided predecessor ``oracles.strided_local_axioms``.
"""

import itertools
import json
import operator
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import flock as flock_module
from matflock import jsonio, window
from matflock.algebraic import FrobeniusWindowReport, _plucker_keys
from matflock.cli import main
from matflock.flock import FlockViolation, window_ids
from matflock.window import _id_grid
from matflock.matroid import bases_contract, bases_delete
from matflock.valuation import optimal_masks

import oracles
from conftest import example_param, random_valid_valuation

FIXTURES = Path(__file__).parent / "fixtures"


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
        if k == n:
            move = "1"
        else:
            labels = [flock.ground[i] for i in moves[k][0]]
            left, right = left.minor(contract=labels), right.minor(delete=labels)
            move = labels[0] if k < n else tuple(labels)
        violation = FlockViolation(alpha, move, left, right)
    mf1, mf2, sets = counts[:n], counts[n], counts[n + 1:]
    return mf.FlockWindowReport(radius, sum(c for c, _ in mf1), sum(f for _, f in mf1),
                                *mf2, sum(c for c, _ in sets), sum(f for _, f in sets),
                                violation)


def oracle_frobenius_report(win, box_radius=None):
    """``validate_frobenius_window`` on the whole table [-R, R]^E."""
    p, R, n = win.p, win.radius, len(win.ground)
    grid, spaces = _id_grid(n, -R, R, lambda a: oracles.gf_row_space(win.table[a], p))

    def sides(k, a, b):
        if k == n:
            return spaces[a], spaces[b]
        return (oracles.rref_space_contract(spaces[a], k, p),
                oracles.rref_space_delete(spaces[b], k, p))

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


def test_set_move_violation_reports_its_minors():
    # M at (2, 2, -1) is read by the set move {1, 2} at (1, 1, -1) only: no
    # (MF1) or (MF2) check reaches that corner of [-1, 2]^3
    nu = mf.Valuation.from_values([1, 2, 3], 2, {(1, 2): 1, (1, 3): 0, (2, 3): 0})
    uniform = mf.uniform_matroid(2, 3)

    def at(alpha):
        return uniform if alpha == (2, 2, -1) else mf.matroid_at(nu, alpha)
    flock = mf.oracle_flock(nu.ground, 2, at)
    assert mf.check_flock_axioms(flock, 1).ok
    got = mf.check_flock_axioms(flock, 1, check_sets=True)
    assert (got.mf1_failed, got.mf2_failed, got.set_failed) == (0, 0, 1)
    v = got.violation
    assert (v.alpha, v.move) == ((1, 1, -1), (1, 2))
    assert v.left == mf.matroid_at(nu, (1, 1, -1)).minor(contract=[1, 2])
    assert v.right == uniform.minor(delete=[1, 2])
    assert v.left.ground == v.right.ground == (3,) and v.left != v.right
    assert got == oracle_flock_report(flock, 1, check_sets=True)


def test_toric_wide_fixture_matches_pair_oracle(capsys):
    # the fixture the installed-package CI job feeds to check-flock --from-toric:
    # 70 nonzero maximal minors, so argmax sets and keys take two words
    path = FIXTURES / "toric_wide.json"
    flock = mf.flock_from_toric(jsonio.toric_from_json(json.loads(path.read_text())))
    assert len(flock.valuation.finite) > 64
    want = oracle_flock_report(flock, 1)
    assert want.ok and mf.check_flock_axioms(flock, 1) == want
    assert main(["check-flock", "--from-toric", str(path), "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == jsonio.flock_report_to_json(want)


def test_walked_wide_flock_reports_its_minors():
    # the toric_wide fixture's valuation walked point by point, with U(4, 8)
    # planted at one point of radius 1: its table rows take two words, and a
    # violation's sides are decoded from them
    path = FIXTURES / "toric_wide.json"
    nu = mf.lindstrom_toric(jsonio.toric_from_json(json.loads(path.read_text())))
    planted, uniform = (1, 0, 0, 0, -1, 0, 0, 0), frozenset(_ALL_4_OF_8)
    flock = mf.MatroidFlock(
        nu.ground, nu.d,
        lambda alpha: uniform if alpha == planted else optimal_masks(nu, alpha), "oracle")
    assert optimal_masks(nu, planted) != uniform
    assert len(flock_module._grid(flock, -1, 2)[1]) > 64
    v = mf.check_flock_axioms(flock, 1).violation
    assert v is not None and max(map(abs, v.alpha)) <= 1
    labels = nu.ground if v.move == "1" else (v.move,)
    step = tuple(a + (e in labels) for a, e in zip(v.alpha, nu.ground))
    assert planted in (v.alpha, step)
    left, right = flock.matroid_at(v.alpha), flock.matroid_at(step)
    if v.move != "1":
        left, right = left.minor(contract=labels), right.minor(delete=labels)
    assert (v.left, v.right) == (left, right) and v.left != v.right


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
    rng = random.Random(903)
    cases = [(param, radius) for param in (example_param(2, 2), example_param(3, 1))
             for radius in (0, 1, 2)]
    for k in range(20):
        n = rng.randint(2, 4)
        param = _small_param(rng, (2, 3, 5)[k % 3], rng.randint(1, 3), n)
        cases.append((param, rng.randint(0, 2)))
    for param, radius in cases:
        want = oracle_frobenius_report(mf.frobenius_window(param, radius + 1), radius)
        assert mf.check_frobenius_axioms(param, radius) == want, (param.coords, radius)


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
    scored_grid = window._scored_grid

    def recording(items, n, lo, hi):
        scored.append((n, lo, hi))
        return scored_grid(items, n, lo, hi)
    monkeypatch.setattr(window, "_scored_grid", recording)
    monkeypatch.setattr(window, "score_ids", None)
    monkeypatch.setattr(window, "_id_grid", None)
    for radius in (0, 1, 2):
        scored.clear()
        assert mf.check_frobenius_axioms(example_param(2, 2), radius).ok
        assert scored == [(4, -radius, radius + 1)]


# ---------------------------------------------------------------------------
# the minor-key kernel against per-id minors

def assert_minor_key_classes(n, table, moves):
    """The keys ``_minor_moves`` gives each move split the contractions and
    deletions of the families in ``table`` into the classes of equal
    ``bases_contract`` / ``bases_delete``, left and right numbered together."""
    masks, words = window._table_words(table)
    got = list(window._minor_moves(n, masks, words, moves))
    assert [axes for axes, _, _ in got] == moves
    for axes, left, right in got:
        cmask = sum(1 << i for i in axes)
        sides = ([bases_contract(family, cmask) for family in table]
                 + [bases_delete(family, cmask) for family in table])
        keys = list(map(tuple, left.tolist())) + list(map(tuple, right.tolist()))
        assert len(set(zip(keys, sides))) == len(set(keys)) == len(set(sides)), axes


def _axes(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


@st.composite
def family_tables(draw):
    """(n, table, moves): families of equal-size masks on n elements, not
    necessarily matroid bases, with loops (in no mask) and coloops (in every
    mask); the moves include E, the loops and coloops, and random sets."""
    n = draw(st.integers(1, 7))
    role = draw(st.lists(st.sampled_from("loop coloop free".split()), min_size=n, max_size=n))
    free = [i for i in range(n) if role[i] == "free"]
    coloops = sum(1 << i for i in range(n) if role[i] == "coloop")
    size = draw(st.integers(0, len(free)))
    pool = [coloops | sum(1 << i for i in combo)
            for combo in itertools.combinations(free, size)]
    table = draw(st.lists(st.frozensets(st.sampled_from(pool), min_size=1),
                          min_size=1, max_size=10, unique=True))
    special = {(1 << n) - 1, sum(1 << i for i in range(n) if role[i] != "free")}
    cuts = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6)) + sorted(special - {0})
    return n, table, [_axes(cut, n) for cut in cuts]


@settings(max_examples=300, deadline=None)
@given(family_tables())
def test_minor_keys_match_per_id_minors(case):
    assert_minor_key_classes(*case)


_ALL_4_OF_8 = [sum(1 << i for i in combo) for combo in itertools.combinations(range(8), 4)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from(_ALL_4_OF_8), min_size=1), min_size=1,
                max_size=12, unique=True),
       st.lists(st.integers(1, 255), min_size=1, max_size=12))
def test_minor_keys_match_past_64_masks(families, cuts):
    # every 4-subset of 8 occurs, so a single-element move projects to 70
    # distinct masks and its keys take two words
    table = [frozenset(_ALL_4_OF_8)] + [f for f in families if len(f) < 70]
    moves = [(i,) for i in range(8)] + [_axes(cut, 8) for cut in cuts]
    assert_minor_key_classes(8, table, moves)


def test_minor_keys_across_blocks(monkeypatch):
    rng = random.Random(903)
    table = [frozenset(_ALL_4_OF_8)] + [frozenset(rng.sample(_ALL_4_OF_8, rng.randint(1, 20)))
                                        for _ in range(30)]
    moves = [_axes(cut, 8) for cut in range(1, 256)]
    for block in (1, 1 << 12, window._KEY_BLOCK):
        monkeypatch.setattr(window, "_KEY_BLOCK", block)
        assert_minor_key_classes(8, table, moves)


def _derived_row(draw, row, i, p):
    """A row whose minor by i meets one of ``row``'s (``row`` a dict
    {mask: value}), or None: ``row`` restricted to the masks that hold or
    miss i, of the same size, or with i dropped from or added to the masks
    that hold or miss it, of a size one less or one more, the values signed
    as the key rule signs them and scaled by a random unit."""
    kind = draw(st.sampled_from(["hold", "miss", "drop", "add"]))
    unit = draw(st.integers(1, p - 1))

    def signed(mask, x):
        odd = mask >> i & 1 and (mask & (1 << i) - 1).bit_count() & 1
        return (-x if odd else x) * unit % p
    bit = 1 << i
    if kind == "hold":
        out = {mask: x * unit % p for mask, x in row.items() if mask & bit}
    elif kind == "miss":
        out = {mask: x * unit % p for mask, x in row.items() if not mask & bit}
    elif kind == "drop":
        out = {mask & ~bit: signed(mask, x) for mask, x in row.items() if mask & bit}
    else:
        out = {mask | bit: signed(mask | bit, x) for mask, x in row.items() if not mask & bit}
    return out or None


@st.composite
def valued_tables(draw):
    """(p, n, masks, values, moves): rows over GF(p) of one basis size each,
    with loops and coloops, of one size for all rows or of several, each
    base row followed by rows derived from it (``_derived_row``), so that
    contractions meet deletions; up to all 70 masks of size 4 on 8 elements.
    The moves are every single element, and random sets when p = 2."""
    p = draw(st.sampled_from([2, 3, 5, 7, 4294967311]))
    # a quarter of the tables start with a row on all 70 masks
    wide = draw(st.integers(0, 3)) == 0
    n = 8 if wide else draw(st.integers(1, 8))
    one_size = draw(st.booleans())
    value = st.integers(1, p - 1)
    rows = []
    for k in range(draw(st.integers(1, 4))):
        role = draw(st.lists(st.sampled_from(["loop", "coloop", "free"]), min_size=n, max_size=n))
        free = [i for i in range(n) if role[i] == "free"]
        coloops = sum(1 << i for i in range(n) if role[i] == "coloop")
        size = draw(st.integers(0, len(free)))
        pool = [coloops | sum(1 << i for i in combo)
                for combo in itertools.combinations(free, size)]
        if wide and k == 0:
            support = set(_ALL_4_OF_8)
        else:
            support = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool)))
        row = {mask: draw(value) for mask in sorted(support)}
        rows.append(row)
        for _ in range(draw(st.integers(0, 3))):
            derived = _derived_row(draw, row, draw(st.integers(0, n - 1)), p)
            if derived and not (one_size and len({mask.bit_count() for mask in derived}
                                                 | {mask.bit_count() for mask in row}) > 1):
                rows.append(derived)
    masks = sorted(set().union(*rows))
    values = np.zeros((len(rows), len(masks)), dtype=object if p >= 1 << 31 else np.int64)
    for k, row in enumerate(rows):
        values[k, [masks.index(mask) for mask in row]] = list(row.values())
    moves = [(i,) for i in range(n)]
    if p == 2:
        values = values.astype(bool)
        moves += [_axes(cut, n) for cut in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))]
    return p, n, masks, values, moves


@settings(max_examples=300, deadline=None)
@given(valued_tables())
def test_minor_keys_match_projected_oracle(case):
    # the keys split left ∪ right into the classes of equal keys that the
    # projected-mask rule gives, move by move: the word-row keys of a
    # one-size bool table, and otherwise (values over GF(p > 2), or several
    # basis sizes) the Plücker keys of the single moves
    p, n, masks, values, moves = case
    want = list(oracles.projected_minor_moves(n, masks, values, moves, p))
    if p == 2 and len({mask.bit_count() for mask in masks}) == 1:
        got = list(window._minor_moves(n, masks, window._row_words(values), moves))
    else:
        vectors = [{masks[j]: int(row[j]) for j in row.nonzero()[0]} for row in values]
        keys = _plucker_keys(vectors, n, p)
        # by element: at n = 1 the single move (0,) can be drawn twice
        got = [(axes, keys[0, axes[0]], keys[1, axes[0]]) for axes in moves if len(axes) == 1]
        want = [move for move in want if len(move[0]) == 1]
    assert [axes for axes, _, _ in got] == [axes for axes, _, _ in want]
    for (axes, left, right), (_, old_left, old_right) in zip(got, want):
        assert left.shape == right.shape == (len(values), left.shape[1])
        keys = list(map(tuple, left.tolist())) + list(map(tuple, right.tolist()))
        old = old_left.tolist() + old_right.tolist()
        assert len(set(zip(keys, old))) == len(set(keys)) == len(set(old)), (p, axes)


@st.composite
def source_grids(draw):
    """(p, n, radius, masks, words, q, grid): distinct nonempty families of
    one basis size, with loops and coloops, as a table; nonzero values
    q over GF(p) on its masks; and an id grid over [-radius, radius + 1]^n
    of random ids, constant along some axes so that some moves hold."""
    p = draw(st.sampled_from([2, 3, 5, 2 ** 31 - 1, 2 ** 61 - 1]))
    n = draw(st.integers(1, 4))
    role = draw(st.lists(st.sampled_from(["loop", "coloop", "free"]), min_size=n, max_size=n))
    free = [i for i in range(n) if role[i] == "free"]
    coloops = sum(1 << i for i in range(n) if role[i] == "coloop")
    size = draw(st.integers(0, len(free)))
    pool = [coloops | sum(1 << i for i in combo)
            for combo in itertools.combinations(free, size)]
    table = draw(st.lists(st.frozensets(st.sampled_from(pool), min_size=1),
                          min_size=1, max_size=6, unique=True))
    masks, words = window._table_words(table)
    q = {mask: draw(st.integers(1, p - 1)) for mask in masks}
    radius = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = rng.integers(len(table), size=(2 * radius + 2,) * n).astype(np.intp)
    for axis in range(n):
        if draw(st.booleans()):
            grid = np.repeat(grid.take([0], axis=axis), grid.shape[axis], axis=axis)
    return p, n, radius, masks, words, q, grid


@settings(max_examples=300, deadline=None)
@given(source_grids())
def test_family_keys_match_plucker_keys_of_one_q(case):
    # on a source's grid every space has Plücker vector q on its family, so
    # the flock's GF(2) keys of the families give the counts and the first
    # violation that the Plücker keys of the vectors q on the families give
    p, n, radius, masks, words, q, grid = case
    vectors = [{mask: q[mask] for mask in family} for family in window._families(masks, words)]
    keys = _plucker_keys(vectors, n, p)
    shift = [(tuple(range(n)), None, None)]
    got = window._local_axioms(
        grid, radius, [*window._minor_moves(n, masks, words, [(k,) for k in range(n)]), *shift])
    want = window._local_axioms(
        grid, radius, [*(((k,), keys[0, k], keys[1, k]) for k in range(n)), *shift])
    assert got == want


def test_flock_check_computes_no_per_id_minors(monkeypatch):
    rng = random.Random(904)
    nu = random_valid_valuation(rng, 5, 2)
    box = itertools.product(range(-2, 4), repeat=5)
    explicit = mf.explicit_flock({a: mf.matroid_at(nu, a) for a in box}, nu.ground, 2)

    def forbidden(*args):
        raise AssertionError("a per-id minor was computed")
    # wherever the library holds a reference to them
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "matflock"]:
        for name in ("bases_contract", "bases_delete"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for flock in (mf.flock_from_valuation(nu), explicit):
        rep = mf.check_flock_axioms(flock, 2, check_sets=True)
        assert rep.ok and rep.set_checked == 31 * 5 ** 5


# ---------------------------------------------------------------------------
# the contiguous-block kernel against the strided one

def _all_moves(n, masks, words):
    """Every minor move I of a flock check, with the all-ones shift after
    the (MF1) moves, keyed as ``check_flock_axioms`` keys them: the shift
    has no keys."""
    subsets = [c for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
    moves = list(window._minor_moves(n, masks, words, subsets))
    return moves[:n] + [(tuple(range(n)), None, None)] + moves[n:]


def _kernel_cases(rng):
    """Seeded (kind, grid, radius, moves): scored intp grids over
    [-r, r + 1]^n, int32 grids walked point by point, and grids with some
    axes cut to 2r + 1, where the checked block differs between moves, as in
    ``validate_frobenius_window`` when the table ends at the checked box."""
    shapes = [(6, 3), (5, 3), (6, 2)] + [(rng.randint(1, 5), rng.randint(1, 3))
                                         for _ in range(12)]
    for n, radius in shapes:
        nu = random_valid_valuation(rng, n, rng.randint(0, n))
        items = nu.finite_items()
        grid, masks, words = window._scored_grid(items, n, -radius, radius + 1)
        yield "scored", grid, radius, _all_moves(n, masks, words)
        cut = tuple(slice(0, 2 * radius + 1 if rng.random() < 0.5 else None) for _ in range(n))
        yield "cut", grid[cut], radius, _all_moves(n, masks, words)
        yield "cubic", grid[(slice(0, 2 * radius + 1),) * n], radius, _all_moves(n, masks, words)
        if n <= 4 and radius <= 2:
            walked = mf.oracle_flock(nu.ground, nu.d, lambda a, nu=nu: mf.matroid_at(nu, a))
            grid, masks, words = flock_module._grid(walked, -radius, radius + 1)
            assert grid.dtype == np.int32
            yield "walked", grid, radius, _all_moves(n, masks, words)


def _perturbed(rng, grid, moves):
    """Copies of ``moves`` with a few key entries set to a fresh key, and
    (tie) the index of the earlier of two keyed moves made to fail at the
    first checked alpha by a left key that no right key equals, or None.
    A move without keys is kept as it is."""
    moves = [(axes, left, right) if left is None else (axes, left.copy(), right.copy())
             for axes, left, right in moves]
    keyed = [k for k, (_, left, _) in enumerate(moves) if left is not None]
    fresh = max(int(max(moves[k][1].max(), moves[k][2].max())) for k in keyed) + 1
    for _ in range(rng.randint(0, 3)):
        _, left, right = moves[rng.choice(keyed)]
        side = left if rng.random() < 0.5 else right
        side[rng.randrange(len(side))] = fresh
    tie = None
    if len(keyed) > 1 and rng.random() < 0.5:
        tie, later = sorted(rng.sample(keyed, 2))
        for k in (tie, later):
            moves[k][1][grid[(0,) * grid.ndim]] = fresh + 1
    return moves, tie


def test_local_axioms_match_strided_oracle():
    rng = random.Random(2207)
    kinds = set()
    checks = violations = ties = 0
    for kind, grid, radius, moves in _kernel_cases(rng):
        kinds.add((kind, str(grid.dtype)))
        for _ in range(3):
            perturbed, tie = _perturbed(rng, grid, moves)
            want = oracles.strided_local_axioms(grid, radius, perturbed)
            got = window._local_axioms(grid, radius, iter(perturbed))
            assert got == want, (kind, grid.shape, radius)
            checks += 1
            violations += want[1] is not None
            if tie is not None:
                # both moves fail at alpha = (-r, ..., -r); an earlier move
                # that fails there too takes the report
                assert want[1][0] == (-radius,) * grid.ndim and want[1][1] <= tie
                ties += 1
    intp = np.dtype(np.intp).name
    assert kinds == {("scored", intp), ("cut", intp), ("cubic", intp), ("walked", "int32")}
    assert 30 <= violations < checks and ties >= 10


def test_keyless_move_matches_identity_keys():
    """A move without keys fails exactly where the ids differ: as the
    strided oracle, and as the same move keyed by the ids themselves."""
    rng = random.Random(3707)
    failing = 0
    for _ in range(60):
        n, radius = rng.randint(1, 4), rng.randint(1, 2)
        shape = [2 * radius + 1 + rng.randint(0, 1) for _ in range(n)]
        grid = np.array([rng.randrange(3) for _ in range(int(np.prod(shape)))],
                        dtype=rng.choice([np.intp, np.int32])).reshape(shape)
        same = np.arange(3)[:, None]
        moves = [tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(3)]
        got = window._local_axioms(grid, radius, [(axes, None, None) for axes in moves])
        assert got == window._local_axioms(grid, radius, [(axes, same, same) for axes in moves])
        assert got == oracles.strided_local_axioms(grid, radius,
                                                   [(axes, None, None) for axes in moves])
        failing += got[1] is not None
    assert 30 <= failing < 60
