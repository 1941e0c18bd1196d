"""The line-at-a-time box scorer against per-point scoring.

``window.score_box`` scores only the points of the first n - 1 axes and fills
each line along the last axis from its crossing value.  It must give exactly
what ``window.score_ids`` gives on every point of the box, and the leader scan
built on it must give exactly what the chunked per-point scan kept here as
the oracle gives.
"""

import itertools
import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import jsonio, window

from conftest import random_valid_valuation
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


@st.composite
def tables(draw, max_n=4):
    """Random finite value tables on d-subsets (not necessarily valuations),
    with the last element often a loop or a coloop of the support, and
    values sometimes near 2^60, past float64's exact range."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(0, n))
    subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
    last = 1 << (n - 1)
    pool = draw(st.sampled_from([subsets,
                                 [m for m in subsets if m & last] or subsets,
                                 [m for m in subsets if not m & last] or subsets]))
    masks = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    offset = draw(st.sampled_from([0, 0, 1 << 60]))
    items = sorted((m, offset + draw(st.integers(-4, 4))) for m in masks)
    lo = [draw(st.integers(-3, 2)) for _ in range(n)]
    hi = [l + draw(st.integers(-1, 4)) for l in lo]
    return items, n, lo, hi


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_score_box_matches_score_ids(case):
    assert_same_scores(*case)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 1 << 60]))
def test_score_box_matches_score_ids_past_63_bases(seed, offset):
    # U(4, 8) has 70 bases: two words per argmax set
    rng = random.Random(seed)
    M = mf.uniform_matroid(4, 8)
    masks = sorted(M.masks) if seed % 2 else rng.sample(sorted(M.masks), 66)
    items = sorted((m, offset + rng.randint(0, 3)) for m in masks)
    lo = [rng.randint(-2, 0) for _ in range(8)]
    hi = [l + rng.randint(0, 2) for l in lo]
    assert_same_scores(items, 8, lo, hi)


def test_score_box_empty_box_and_no_values():
    items = [(0b01, 0), (0b10, 1)]
    ids, table = window.score_box(items, 2, [0, 3], [2, 2])
    assert len(ids) == 0 and table == []
    with pytest.raises(ValueError, match="no finite values"):
        window.score_box([], 2, [0, 0], [1, 1])


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
    cases = random_cases()
    assert len(cases) >= 100
    for nu in cases:
        for radius in (0, 1, 2):
            got = mf.enumerate_leaders(nu, radius)
            got_cells = mf.zero_dimensional_cells(nu, radius)
            with monkeypatch.context() as m:
                m.setattr(window, "_leader_reps", chunked_leader_reps)
                want = mf.enumerate_leaders(nu, radius)
                want_cells = mf.zero_dimensional_cells(nu, radius)
            assert got == want, (nu.finite, radius)
            assert got_cells == want_cells, (nu.finite, radius)


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
