"""The exchange kernel against the pairwise scans it replaced.

``pairwise_failure`` is the O(|B|^2 d (n-d)) scan over all pairs of finite
sets that (B2) and (V2) used to run; ``dw_oracle`` is the old enumeration of
the Dress-Wenzel equations.  Both survive here only as test oracles.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import linalg
from matflock.matroid import _exchange_failure, _exchange_quads, _single_exchanges


def pairwise_failure(values: dict, n: int):
    """First (B, B', i) of the pairwise scan with no feasible j, or None.

    Every value 0 turns (V2) into the symmetric basis exchange (B2).
    """
    for B in values:
        for B2 in values:
            for i in range(n):
                if B >> i & 1 and not B2 >> i & 1 and not exchange_holds(values, B, B2, i):
                    return B, B2, i
    return None


def exchange_holds(values: dict, B: int, B2: int, i: int) -> bool:
    """Some j in B' - B has nu(B) + nu(B') >= nu(B-i+j) + nu(B'-j+i), all finite."""
    lhs = values[B] + values[B2]
    for j in range(B2.bit_length()):
        if B2 >> j & 1 and not B >> j & 1:
            x = values.get(B & ~(1 << i) | 1 << j)
            y = values.get(B2 & ~(1 << j) | 1 << i)
            if x is not None and y is not None and lhs >= x + y:
                return True
    return False


def kernel_failure(values: dict, n: int):
    """The kernel's witness, translated back to masks and an element index."""
    ground = tuple(range(n))
    witness = _exchange_failure(values, ground)
    if witness is None:
        return None
    B, B2, i = witness
    return sum(1 << e for e in B), sum(1 << e for e in B2), i


def check_against_oracle(values: dict, n: int):
    got = kernel_failure(values, n)
    assert (got is None) == (pairwise_failure(values, n) is None), values
    if got is not None:
        B, B2, i = got
        assert B in values and B2 in values and B >> i & 1 and not B2 >> i & 1
        assert not exchange_holds(values, B, B2, i), (values, got)


def dw_oracle(M: mf.Matroid):
    """The Dress-Wenzel equations by the old per-pair enumeration."""
    eqs = {}
    n = len(M.ground)
    if M.d < 2:
        return ()
    for F in itertools.combinations(range(n), M.d - 2):
        fmask = sum(1 << i for i in F)
        rest = [i for i in range(n) if not (fmask >> i & 1)]
        for quad in itertools.combinations(rest, 4):
            for (a, b) in itertools.combinations(quad, 2):
                c, d = (x for x in quad if x not in (a, b))
                if (fmask | 1 << a | 1 << b) in M.masks:
                    continue
                cross = [fmask | 1 << a | 1 << c, fmask | 1 << b | 1 << d,
                         fmask | 1 << a | 1 << d, fmask | 1 << b | 1 << c]
                if any(m not in M.masks for m in cross):
                    continue
                key = tuple(sorted((tuple(sorted(cross[:2])), tuple(sorted(cross[2:])))))
                eqs.setdefault(key, (tuple(M.labels_of(m) for m in key[0]),
                                     tuple(M.labels_of(m) for m in key[1])))
    return tuple(eqs[k] for k in sorted(eqs))


# ---------------------------------------------------------------------------
# the enumerators

def test_single_exchanges_are_the_distance_one_sets():
    mask, n = 0b01101, 5
    got = sorted(_single_exchanges(mask, n))
    assert len(got) == 3 * 2
    for i, j, other in got:
        assert mask >> i & 1 and not mask >> j & 1
        assert other == mask - (1 << i) + (1 << j)


def test_exchange_quads_cover_each_distance_two_pair_once():
    for n, d in ((4, 2), (6, 3), (7, 4), (5, 1), (6, 0)):
        masks = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
        pairs = [frozenset(p) for triple in _exchange_quads(masks, n) for p in triple]
        at_two = {frozenset((a, b)) for a in masks for b in masks
                  if (a & ~b).bit_count() == 2}
        assert len(pairs) == len(set(pairs)) and set(pairs) == at_two


# ---------------------------------------------------------------------------
# (B2): every family of d-sets on at most five elements

def test_every_family_up_to_five_elements_matches_pairwise_scan():
    checked = 0
    for n in range(1, 6):
        for d in range(n + 1):
            masks = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
            for pick in range(1, 1 << len(masks)):
                family = {m: 0 for k, m in enumerate(masks) if pick >> k & 1}
                check_against_oracle(family, n)
                checked += 1
    assert checked > 2000


def test_two_far_apart_bases_fail_on_connectivity():
    # no two bases at distance 2, so only the connectivity pass sees it
    check = mf.check_basis_axioms(range(1, 7), 3, [[1, 2, 3], [4, 5, 6]])
    assert not check.ok and check.kind == "B2"
    B, B2, i = check.witness
    assert {B, B2} == {(1, 2, 3), (4, 5, 6)} and i in B


def test_disconnected_support_fails_valuation_check():
    nu = mf.Valuation.from_values(range(1, 7), 3, {(1, 2, 3): 0, (4, 5, 6): 2})
    check = mf.check_valuation_axioms(nu)
    assert not check.ok and check.kind == "V2"
    B, B2, i = check.witness
    assert {B, B2} == {(1, 2, 3), (4, 5, 6)} and i in B


def test_connectivity_witness_is_a_closest_pair():
    # components {1234} and {5678, 1567}: no pair at distance 2, so the local
    # rule passes; 1234 and 1567 are at distance 3, 1234 and 5678 at 4
    check = mf.check_basis_axioms(range(1, 9), 4, [[1, 2, 3, 4], [5, 6, 7, 8], [1, 5, 6, 7]])
    assert not check.ok and check.kind == "B2"
    B, B2, i = check.witness
    assert {B, B2} == {(1, 2, 3, 4), (1, 5, 6, 7)} and i in set(B) - set(B2)


# ---------------------------------------------------------------------------
# (V2): valued tables with infinite entries on at most seven elements

@st.composite
def valued_tables(draw):
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, n))
    subsets = list(itertools.combinations(range(n), d))
    if draw(st.booleans()):
        # p-adic minors of an integer matrix (valid), then a few edits
        p = draw(st.sampled_from([2, 3]))
        A = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(d)]
        values = {}
        for c in subsets:
            det = linalg.det_int([[row[e] for e in c] for row in A])
            if det:
                values[sum(1 << e for e in c)] = linalg.val_p_int(det, p)
        for _ in range(draw(st.integers(0, 2))):
            c = draw(st.sampled_from(subsets))
            v = draw(st.one_of(st.none(), st.integers(0, 3)))
            values.pop(sum(1 << e for e in c), None)
            if v is not None:
                values[sum(1 << e for e in c)] = v
    else:
        entries = draw(st.lists(st.one_of(st.none(), st.integers(0, 2)),
                                min_size=len(subsets), max_size=len(subsets)))
        values = {sum(1 << e for e in c): v for c, v in zip(subsets, entries)
                  if v is not None}
    return n, values


@settings(max_examples=400, deadline=None)
@given(valued_tables())
def test_valued_tables_match_pairwise_scan(table):
    n, values = table
    if values:
        check_against_oracle(values, n)
        nu = mf.Valuation(range(n), next(iter(values)).bit_count(), values)
        assert mf.check_valuation_axioms(nu).ok == (pairwise_failure(values, n) is None)


def test_random_valuations_match_pairwise_scan():
    rng = random.Random(5)
    bad = 0
    for _ in range(300):
        n = rng.randint(4, 7)
        d = rng.randint(2, n - 2)
        masks = [sum(1 << i for i in c) for c in itertools.combinations(range(n), d)]
        values = {m: rng.randint(0, 1) for m in masks if rng.random() < 0.85}
        if values:
            check_against_oracle(values, n)
            bad += pairwise_failure(values, n) is not None
    assert 0 < bad < 300


# ---------------------------------------------------------------------------
# Dress-Wenzel equations come from the same quadruples

def test_dw_constraints_match_old_enumeration():
    mats = [mf.fano_matroid(), mf.nonfano_matroid(), mf.uniform_matroid(3, 6),
            mf.lazarson(2, "full"), mf.lazarson(2, "minus"), mf.lazarson(3)]
    rng = random.Random(11)
    while len(mats) < 16:
        p = rng.choice([2, 3, 5])
        d = rng.randint(2, 4)
        n = rng.randint(d + 2, 8)
        rows = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(d)]
        if linalg.gf_rank(rows, p) == d:
            mats.append(mf.matroid_from_matrix(rows, mf.GF(p)))
    assert sum(len(dw_oracle(M)) > 0 for M in mats) >= 8
    for M in mats:
        assert mf.dw_constraints(M).equations == dw_oracle(M)
