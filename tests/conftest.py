"""Shared fixtures: canonical example objects and random generators."""

from __future__ import annotations

import itertools
import random
from unittest import mock

import pytest

import matflock as mf
from matflock import flock as flock_module
from matflock.lattice import INF

import oracles


def u24_valuation() -> mf.Valuation:
    """values 1 on {1,2} and {3,4}, 0 on the other four pairs."""
    return mf.Valuation.from_values(
        [1, 2, 3, 4], 2,
        {(1, 2): 1, (3, 4): 1, (1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})


def two_element_valuation() -> mf.Valuation:
    """rank 1 on E = {1, 2}, both singletons at 0."""
    return mf.Valuation.from_values([1, 2], 1, {(1,): 0, (2,): 0})


def toric_example(p: int = 2) -> mf.ToricRep:
    return mf.ToricRep(((1, 0, 1, 1), (0, 1, 1, 2)), p)


def example_param(p: int = 2, g: int = 2) -> mf.LinearizedParam:
    """(s, t, s+t, s+t^(p^g)) on four coordinates."""
    return mf.LinearizedParam(p, 2, [
        [(0, 0, 1)],
        [(1, 0, 1)],
        [(0, 0, 1), (1, 0, 1)],
        [(0, 0, 1), (1, g, 1)],
    ])


def random_valid_valuation(rng: random.Random, n: int, d: int,
                           vmax: int = 3, max_inf: int = 2) -> mf.Valuation:
    """A random valid valuation, values in {0..vmax}, at most max_inf infinities.

    Uniform rejection sampling works up to n = 5; beyond that valid tables
    are far too rare, so larger ground sets draw from p-adic minor
    valuations of random integer matrices composed with random trivial
    shifts (valid by construction, filtered to the same value profile).
    """
    subsets = list(itertools.combinations(range(1, n + 1), d))
    if n <= 5:
        while True:
            n_inf = rng.randint(0, max_inf) if len(subsets) > max_inf else 0
            inf_at = set(rng.sample(range(len(subsets)), n_inf))
            values = {B: (INF if k in inf_at else rng.randint(0, vmax))
                      for k, B in enumerate(subsets)}
            nu = mf.Valuation.from_values(range(1, n + 1), d, values)
            if nu.finite and mf.check_valuation_axioms(nu).ok:
                return nu.normalized()
    from matflock import linalg
    while True:
        p = rng.choice([2, 3])
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)]
        if linalg.rat_rank(A) != d:
            continue
        shift = [rng.randint(-1, 1) for _ in range(n)]
        values = {}
        for B in subsets:
            det = linalg.det_int([[row[e - 1] for e in B] for row in A])
            if det:
                values[B] = linalg.val_p_int(det, p) + sum(shift[e - 1] for e in B)
        nu = mf.Valuation.from_values(range(1, n + 1), d, values).normalized()
        if len(subsets) - len(nu.finite) > max_inf:
            continue
        if max(nu.finite.values()) > vmax:
            continue
        assert mf.check_valuation_axioms(nu).ok
        return nu


def random_saturated_toric(rng: random.Random, d: int, n: int, p: int,
                           lo: int = -4, hi: int = 4) -> mf.ToricRep:
    """Rejection-sample a full-rank saturated integer matrix."""
    while True:
        A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)]
        try:
            return mf.ToricRep(tuple(tuple(r) for r in A), p)
        except ValueError:
            continue


def _extraction(flock, cutoff, verify_radius):
    """The valuation extract_valuation returns, or the (message, cutoff_hits)
    of the ExtractionError it raises, with the error."""
    try:
        return mf.extract_valuation(flock, cutoff, verify_radius), None
    except mf.ExtractionError as err:
        return (str(err), err.cutoff_hits), err


def extract_checked(flock, cutoff=None, verify_radius=None) -> mf.Valuation:
    """``extract_valuation``, asserting for a flock that carries a valuation
    that reading the values by local optimality gives the valuation, or the
    error message and cutoff hits, of walking every subset's envelope."""
    got, err = _extraction(flock, cutoff, verify_radius)
    if flock.valuation is not None:
        with mock.patch.object(flock_module, "_local_values", oracles.envelope_values):
            assert got == _extraction(flock, cutoff, verify_radius)[0]
    if err is not None:
        raise err
    return got


@pytest.fixture(autouse=True)
def empty_grid_memo():
    """Every test starts with no remembered box, and so with none of the
    move verdicts kept in its entry, so a test that patches the box scan or
    the local-axiom pass sees its calls whatever ran before it."""
    from matflock import window
    window._grid_memo.clear()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


@pytest.fixture
def exchange_walks(monkeypatch) -> list:
    """The values map of every (V1)/(V2) exchange walk that
    ``check_valuation_axioms`` runs during the test, in order."""
    from matflock import valuation
    walks = []
    walk = valuation._exchange_failure
    monkeypatch.setattr(valuation, "_exchange_failure",
                        lambda values, ground: walks.append(values) or walk(values, ground))
    return walks
