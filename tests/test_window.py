"""The axis-at-a-time box scorer against per-point scoring.

``window.score_box`` peels the axes one at a time, interning argmax sets as
ids, and fills each line along the last axis from its cut.  It must give
exactly what ``window.score_ids`` gives on every point of the box (ids,
their dtype and the table), also when a box is scored in several slabs, and
the leader scan built on it must give exactly what the chunked per-point
scan kept here as the oracle gives.
"""

import itertools
import json
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import jsonio, window
from matflock.matroid import _connected

import oracles
from conftest import random_valid_valuation, u24_valuation
from test_jsonio_cli import _cli_env, write


def chunked_leader_reps(finite_items, n: int, R: int) -> dict:
    """The per-point leader scan: every point of the window scored, chunk by
    chunk in lex order, keeping the first point seen per argmax family."""
    reps: dict = {}
    for points in window.iter_box_chunks([0] + [-R] * (n - 1), [0] + [R] * (n - 1)):
        ids, table = window.score_ids(finite_items, n, points)
        _, first = np.unique(ids, return_index=True)
        for masks, k in zip(table, first.tolist()):
            reps.setdefault(masks, tuple(points[k].tolist()))
    return reps


def assert_same_scores(items, n, lo, hi):
    want_ids, want_table = window.score_ids(items, n, window.box_array(lo, hi))
    got_ids, got_table = window.score_box(items, n, lo, hi)
    assert got_ids.dtype == want_ids.dtype
    assert np.array_equal(got_ids, want_ids)
    assert got_table == want_table


# spreads on both sides of float64's exact range (2^53) and of the int64
# scores of score_ids (2^62), and far past int64, and box corners far from 0
SPREADS = [0, (1 << 53) - 1, (1 << 53) + 1, (1 << 62) - 1, (1 << 62) + 1, 1 << 100]
CORNERS = [0, 1 << 55, -(1 << 55), 1 << 61]


@st.composite
def tables(draw):
    """Random finite value tables on d-subsets (not necessarily valuations),
    with the last element often a loop or a coloop of the support.  Some
    raise a few values by a spread of about 2^53 to 2^100, which the box
    scan caps and ``score_ids`` scores in Python ints past 2^62, and some
    move a few axes of the box by a corner of +-2^55 or 2^61."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, n))
    subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
    last = 1 << (n - 1)
    pool = draw(st.sampled_from([subsets,
                                 [m for m in subsets if m & last] or subsets,
                                 [m for m in subsets if not m & last] or subsets]))
    masks = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    spread = draw(st.sampled_from([0, 0, *SPREADS]))
    items = sorted((m, draw(st.integers(-4, 4)) + spread * draw(st.booleans()))
                   for m in masks)
    corner = draw(st.sampled_from([0, 0, *CORNERS]))
    lo = [draw(st.integers(-3, 2)) + corner * draw(st.booleans()) for _ in range(n)]
    hi = [l + draw(st.integers(-1, 4)) for l in lo]
    return items, n, lo, hi


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_score_box_matches_score_ids(case):
    assert_same_scores(*case)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SPREADS))
def test_score_box_matches_score_ids_past_63_bases(seed, spread):
    # U(4, 8) has 70 bases: two words per argmax set
    rng = random.Random(seed)
    M = mf.uniform_matroid(4, 8)
    masks = sorted(M.masks) if seed % 2 else rng.sample(sorted(M.masks), 66)
    items = sorted((m, rng.randint(0, 3) + spread * rng.randint(0, 1)) for m in masks)
    lo = [rng.randint(-2, 0) for _ in range(8)]
    hi = [l + rng.randint(0, 2) for l in lo]
    assert_same_scores(items, 8, lo, hi)


def test_score_box_matches_score_ids_on_empty_runs():
    # lines whose runs below, at or above the cut are empty: the last
    # element a loop (every t below the cut) or a coloop (every t above),
    # and cuts clipped to lo_last - 1 and hi_last + 1 or at the box's ends
    for lo, hi in (([-1, -1], [1, 1]), ([0, 2], [3, 2]), ([-2, -1], [-1, 3])):
        for v in range(-7, 8):
            assert_same_scores([(0b01, 0), (0b10, v)], 2, lo, hi)
            assert_same_scores([(0b011, 0), (0b101, v), (0b110, 1)], 3, lo + [-1], hi + [1])
    loop = [(0b001, 0), (0b010, 1)]
    coloop = [(0b101, 0), (0b110, 1)]
    for items in (loop, coloop):
        for lo, hi in (([-1] * 3, [1] * 3), ([0, -2, 1], [2, 1, 1]), ([-1, 0, -3], [0, 0, 2])):
            assert_same_scores(items, 3, lo, hi)


def test_box_value_cap_binds_or_not():
    # d = 1 and side 2 cap the values at 3: a basis 100 above the least is
    # capped and one 2 above is not, and neither table changes
    for far, vals in ((100, [0, 3]), (2, [0, 2])):
        items = [(0b01, 0), (0b10, far)]
        assert window._box_values(items, [5, 5], [7, 7])[1].tolist() == vals
        assert_same_scores(items, 2, [5, 5], [7, 7])
    # read from the corner (5, -1): w = (-5, 101) shifts to (0, 106)
    items = [(0b01, 0), (0b10, 100)]
    assert window._box_values(items, [5, -1], [7, 1])[1].tolist() == [0, 3]
    assert_same_scores(items, 2, [5, -1], [7, 1])


def test_box_bound_just_inside_and_outside(monkeypatch):
    # the leader window of n = 2 has one head, so a side of 2R is one line:
    # with d = 1, (d + 1) * 2R + 1 < 2^62 holds up to R = 2^60 - 1
    R = (1 << 60) - 1
    items = [(0b01, 0), (0b10, 5)]
    assert window._leader_reps(items, 2, R) == {
        frozenset({0b01}): (0, -R), frozenset({0b01, 0b10}): (0, 5), frozenset({0b10}): (0, 6)}
    assert window._leader_reps([(0b01, 0), (0b10, 1 << 100)], 2, R) == {
        frozenset({0b01}): (0, -R)}

    # past the bound a box is refused before any slab is scored
    def scored(*args):
        raise AssertionError("a slab was scored")

    monkeypatch.setattr(window, "_slab_lines", scored)
    for scan in (lambda: window._leader_reps(items, 2, R + 1),
                 lambda: window.score_box(items, 2, [0, 0], [0, 1 << 61]),
                 lambda: window.score_box(items, 2, [-(1 << 62)] * 2, [0, 0])):
        with pytest.raises(ValueError, match="too large to score"):
            scan()


def test_score_box_empty_box_and_no_values():
    items = [(0b01, 0), (0b10, 1)]
    ids, table = window.score_box(items, 2, [0, 3], [2, 2])
    assert len(ids) == 0 and table == []
    with pytest.raises(ValueError, match="no finite values"):
        window.score_box([], 2, [0, 0], [1, 1])


def _slab_cases():
    """(items, n, lo, hi, R): random value tables on random supports, and
    U(4, 8), whose 70 bases take two words per argmax set.  Case k raises
    about half of its values by SPREADS[k % 6] and moves about half of the
    axes of its box by CORNERS[k // 6]."""
    rng = random.Random(2511)
    cases = []
    for k in range(24):
        n = rng.randint(3, 5)
        d = rng.randint(1, n - 1)
        subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
        items = sorted((m, rng.randint(-3, 3) + SPREADS[k % 6] * rng.randint(0, 1))
                       for m in rng.sample(subsets, rng.randint(1, len(subsets))))
        lo = [rng.randint(-2, 0) + CORNERS[k // 6] * rng.randint(0, 1) for _ in range(n)]
        hi = [l + rng.randint(2, 3) for l in lo]
        cases.append((items, n, lo, hi, rng.randint(1, 2)))
    masks = sorted(mf.uniform_matroid(4, 8).masks)
    for spread in (0, 1 << 100):
        items = [(m, rng.randint(0, 3) + spread * rng.randint(0, 1)) for m in masks]
        lo = [rng.randint(-1, 0) for _ in range(8)]
        cases.append((items, 8, lo, [l + 1 for l in lo], 1))
    return cases


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_box_scans_across_slabs(monkeypatch, chunk):
    # a box of more than _CHUNK heads is scored in slabs along its leading
    # axes; the benchmark's boxes fit in one, so a few heads per slab here
    # cut every box into several, each scored on its own and renumbered
    # together
    cases = _slab_cases()
    want = []
    for items, n, lo, hi, R in cases:
        want.append((window.score_ids(items, n, window.box_array(lo, hi)),
                     window.score_ids(items, n, window.box_array([lo[0]] * n, [hi[0]] * n)),
                     chunked_leader_reps(items, n, R)))
    monkeypatch.setattr(window, "_CHUNK", chunk)
    for (items, n, lo, hi, R), (box, cube, reps) in zip(cases, want):
        # the slabs tile the box in lex order, at most _CHUNK heads each
        slabs = list(window._slabs(lo, hi))
        assert len(slabs) > 1
        assert all(window._box_size(slo[:-1], shi[:-1]) <= chunk for slo, shi in slabs)
        assert np.array_equal(np.concatenate([window.box_array(*slab) for slab in slabs]),
                              window.box_array(lo, hi))
        got_ids, got_table = window.score_box(items, n, lo, hi)
        assert got_ids.dtype == box[0].dtype
        assert np.array_equal(got_ids, box[0]) and got_table == box[1]
        side = hi[0] - lo[0] + 1
        grid, masks, words = window._scored_grid(items, n, lo[0], hi[0])
        assert grid.shape == (side,) * n and grid.dtype == cube[0].dtype
        assert np.array_equal(grid.ravel(), cube[0])
        assert window._families(masks, words) == cube[1]
        assert window._leader_reps(items, n, R) == reps


def test_box_scans_score_in_int64_only(monkeypatch):
    # every slab of every box scan is scored in int64, also at spreads past
    # 2^62 and at corners far from 0, where score_ids turns to Python ints
    dtypes = []
    slab_lines = window._slab_lines

    def recorded(rows, levels, vals, lo, hi):
        dtypes.append(vals.dtype)
        return slab_lines(rows, levels, vals, lo, hi)

    monkeypatch.setattr(window, "_slab_lines", recorded)
    for items, n, lo, hi, R in _slab_cases():
        window.score_box(items, n, lo, hi)
        window._scored_grid(items, n, lo[0], hi[0])
        window._leader_reps(items, n, R)
    assert len(dtypes) == 3 * len(_slab_cases())
    assert set(dtypes) == {np.dtype(np.int64)}


def random_cases():
    """At least 100 seeded valuations with n <= 6: valid ones of every shape,
    and raw value tables on random supports."""
    rng = random.Random(1207)
    cases = []
    for n in range(1, 7):
        for d in range(0, n + 1):
            for _ in range(3):
                cases.append(random_valid_valuation(rng, n, d, vmax=3, max_inf=2))
    for _ in range(20):
        n = rng.randint(2, 6)
        d = rng.randint(1, n - 1)
        subsets = list(itertools.combinations(range(1, n + 1), d))
        picked = rng.sample(subsets, rng.randint(1, len(subsets)))
        cases.append(mf.Valuation.from_values(
            range(1, n + 1), d, {B: rng.randint(-3, 5) for B in picked}))
    return cases


def test_leader_scan_matches_chunked_oracle(monkeypatch):
    # leader scans and cell vertices need (V2): on valuations both are
    # compared with the chunked scan, on the raw tables that are not the
    # kernel is compared directly and both functions refuse
    cases = random_cases()
    assert len(cases) >= 100
    refused = 0
    for nu in cases:
        valid = mf.check_valuation_axioms(nu).ok
        for radius in (0, 1, 2):
            if not valid:
                refused += 1
                n = len(nu.ground)
                assert window._leader_reps(nu.finite_items(), n, radius) == \
                    chunked_leader_reps(nu.finite_items(), n, radius), (nu.finite, radius)
                for scan in (mf.enumerate_leaders, mf.zero_dimensional_cells):
                    with pytest.raises(ValueError, match=r"valuation violates \(V2\)"):
                        scan(nu, radius)
                continue
            got = mf.enumerate_leaders(nu, radius)
            with monkeypatch.context() as m:
                m.setattr(window, "_leader_reps", chunked_leader_reps)
                want = mf.enumerate_leaders(nu, radius)
            assert got == want, (nu.finite, radius)
            assert mf.zero_dimensional_cells(nu, radius) == oracles._leader_vertices(want), \
                (nu.finite, radius)
    assert refused


def test_connected_matches_vertex_flags_oracle():
    # for a valuation, alpha is a vertex (no step alpha ± e_I keeps M_alpha
    # optimal) exactly when M_alpha is connected
    rng = random.Random(1607)
    valuations = [nu for nu in random_cases() if mf.check_valuation_axioms(nu).ok]
    assert len(valuations) >= 90
    vertices = 0
    for nu in valuations:
        n = len(nu.ground)
        points = sorted({rep for radius in (0, 1, 2)
                         for _, rep in mf.enumerate_leaders(nu, radius).leaders})
        points += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(50)]
        want = oracles._vertex_flags(nu.finite_items(), n, points).tolist()
        got = [_connected(mf.matroid_at(nu, alpha).masks, n) for alpha in points]
        assert got == want, nu.finite
        vertices += sum(want)
    assert vertices >= 50


def test_cli_leaders_large_window_in_bounded_time(tmp_path):
    # spread 4 on six elements: R = 21, a window of 43^5 points, of which
    # the line scan scores 43^4 heads
    nu = mf.circuit_hyperplane_valuation(mf.uniform_matroid(3, 6), (1, 2, 3), 4)
    path = write(tmp_path, "nu.json", jsonio.valuation_to_json(nu))
    done = subprocess.run([sys.executable, "-m", "matflock.cli", "leaders", path],
                          capture_output=True, text=True, env=_cli_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    scan = json.loads(done.stdout)
    assert scan["radius"] == 21 and scan["complete"] is True


# ---------------------------------------------------------------------------
# the remembered box of _scored_grid

def test_memo_misses_scan_before_forgetting(monkeypatch):
    # a box inside the remembered one, a box that only overlaps it, a
    # disjoint box, another n, another valuation with the same masks, a
    # larger box and an empty box all scan; each scans while the remembered
    # box is still held, and forgets it after, so the memo then holds the
    # new box alone
    items = u24_valuation().finite_items()
    other = [(mask, val + (mask == items[0][0])) for mask, val in items]
    box_sets = window._box_sets
    scans = []

    def scan(finite_items, n, lo, hi):
        # the memo is as the request found it: at most the previous box
        assert [(key, id(entry)) for key, entry in window._grid_memo.items()] == held
        assert len(held) <= 1
        scans.append((n, lo[0], hi[0]))
        return box_sets(finite_items, n, lo, hi)
    monkeypatch.setattr(window, "_box_sets", scan)
    requests = [(items, 4, -1, 2), (items, 4, 0, 1), (items, 4, 0, 3), (items, 4, 5, 6),
                (items, 5, 5, 6), (other, 5, 5, 6), (other, 5, 4, 6), (other, 5, 1, 0),
                (other, 5, 4, 6)]
    for finite_items, n, lo, hi in requests:
        held = [(key, id(entry)) for key, entry in window._grid_memo.items()]
        grid, _, words = window._scored_grid(finite_items, n, lo, hi)
        ids, want = box_sets(finite_items, n, [lo] * n, [hi] * n)
        assert grid.tobytes() == ids.tobytes() and np.array_equal(words, want)
        want_memo = [((n, tuple(finite_items)), (lo, hi))] if lo <= hi else []
        assert [(key, entry[:2]) for key, entry in window._grid_memo.items()] == want_memo
    assert scans == [(n, lo, hi) for _, n, lo, hi in requests]
    # the one remembered box answers itself, with the arrays it holds
    (entry,) = window._grid_memo.values()
    grid, _, words = window._scored_grid(other, 5, 4, 6)
    assert len(scans) == len(requests) and grid is entry[2] and words is entry[3]


def test_refused_scan_keeps_the_remembered_box():
    # a box whose scores would pass 2^62 is refused by _box_values before
    # anything is allocated, and the box remembered before it still answers
    # itself
    items = u24_valuation().finite_items()
    window._scored_grid(items, 4, -1, 2)
    with pytest.raises(ValueError, match="too large to score"):
        window._scored_grid(items, 4, -(1 << 61), 1 << 61)
    assert [entry[:2] for entry in window._grid_memo.values()] == [(-1, 2)]
    box_sets = window._box_sets
    with mock.patch.object(window, "_box_sets", wraps=box_sets) as scans:
        grid, _, words = window._scored_grid(items, 4, -1, 2)
        assert scans.call_count == 0
    ids, want = box_sets(items, 4, [-1] * 4, [2] * 4)
    assert grid.tobytes() == ids.tobytes() and np.array_equal(words, want)


def test_memo_keeps_no_verdicts_above_its_cap(monkeypatch):
    # every move made to fail at every alpha: a check whose failing indices
    # would pass the cap keeps no verdict, so the next check runs its moves
    # again; under the cap the verdicts are kept and read back
    flock = mf.flock_from_valuation(u24_valuation())
    move_fails = window._move_fails
    runs = []

    def failing(grid, radius, moves):
        for fails in move_fails(grid, radius, moves):
            runs.append(radius)
            yield np.ones_like(fails)
    monkeypatch.setattr(window, "_move_fails", failing)
    monkeypatch.setattr(window, "_MEMO_IDS", 6 ** 4)
    want = mf.check_flock_axioms(flock, 2)
    assert (want.mf1_failed, want.mf2_failed) == (4 * 5 ** 4, 5 ** 4)
    (entry,) = window._grid_memo.values()
    assert entry[4] == {}
    assert mf.check_flock_axioms(flock, 2) == want and len(runs) == 10
    monkeypatch.setattr(window, "_MEMO_IDS", 5 * 5 ** 4)
    window._grid_memo.clear()
    runs.clear()
    assert mf.check_flock_axioms(flock, 2) == want and len(runs) == 5
    assert mf.check_flock_axioms(flock, 2) == want and len(runs) == 5


def test_verdicts_carry_over_to_the_box_that_replaces_theirs(monkeypatch):
    # a flock check at radius 3 remembers [-3, 4]^n with its verdicts; one at
    # radius 2 with sets scans [-2, 3]^n for its set moves, which replaces
    # that box, and reads its (MF1) and (MF2) verdicts from radius 3.  Each
    # reports what it reports alone, and the new entry keeps every verdict
    rng = random.Random(4501)
    cases = [u24_valuation()] + [random_valid_valuation(rng, n, rng.randint(1, n - 1))
                                 for n in (3, 4, 4, 5)]
    move_fails = window._move_fails
    passes = []

    def counted(grid, radius, moves):
        for fails in move_fails(grid, radius, moves):
            passes.append(radius)
            yield fails
    monkeypatch.setattr(window, "_move_fails", counted)
    for nu in cases:
        flock, n = mf.flock_from_valuation(nu), len(nu.ground)
        alone = []
        for radius, sets in ((3, False), (2, True)):
            window._grid_memo.clear()
            alone.append(mf.check_flock_axioms(flock, radius, check_sets=sets))
        window._grid_memo.clear()
        passes.clear()
        assert mf.check_flock_axioms(flock, 3) == alone[0]
        assert mf.check_flock_axioms(flock, 2, check_sets=True) == alone[1], nu.finite
        assert passes == [3] * (n + 1) + [2] * (2 ** n - 1 - n)
        ((_, entry),) = window._grid_memo.items()
        assert entry[:2] == (-2, 3) and len(entry[4]) == 2 ** n
        assert {checked for checked, _ in entry[4].values()} == {2, 3}


def test_memo_keeps_no_grid_above_its_cap(monkeypatch):
    items = u24_valuation().finite_items()
    monkeypatch.setattr(window, "_MEMO_IDS", 4 ** 4)
    window._scored_grid(items, 4, -2, 2)
    assert window._grid_memo == {}
    window._scored_grid(items, 4, -1, 2)
    assert [entry[:2] for entry in window._grid_memo.values()] == [(-1, 2)]
    window._scored_grid(items, 4, -2, 2)
    assert window._grid_memo == {}


@st.composite
def wide_tables(draw):
    """Families over up to 192 distinct masks, so a table row takes up to
    three words; one family holds every mask, so every column is used."""
    m = draw(st.integers(1, 192))
    masks = draw(st.lists(st.integers(0, (1 << 12) - 1), min_size=m, max_size=m, unique=True))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), max_size=5))
    table = [frozenset(itertools.compress(masks, row)) for row in rows] + [frozenset(masks)]
    return draw(st.permutations(table))


@settings(max_examples=100, deadline=None)
@given(wide_tables())
def test_table_words_round_trip(table):
    masks, words = window._table_words(table)
    assert masks == sorted(set().union(*table))
    assert words.shape == (len(table), (len(masks) + 63) // 64)
    assert window._families(masks, words) == table
