"""One reader of ground-set labels, and one check of positional grounds.

Matroids and valuations read every label subset through
``GroundSet.mask_of``, so each reader refuses an unknown, unhashable or
repeated label with the same message, and so a label of another type than
the ground's: True, 1.0 and numpy's int64 1 equal the label 1 but are not
it.  Flocks, toric representations and linearized parametrizations align
coordinates with their ground by position, and refuse a ground that is not
in canonical order.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matflock as mf
from matflock import jsonio


def _u23_valuation():
    return mf.Valuation.from_values([1, 2, 3], 2, {(1, 2): 0, (1, 3): 0, (2, 3): 0})


_READERS = {
    "from_bases": lambda B: mf.Matroid.from_bases([1, 2, 3], [[1, 2], B]),
    "check_basis_axioms": lambda B: mf.check_basis_axioms([1, 2, 3], 2, [[1, 2], B]),
    "from_values": lambda B: mf.Valuation.from_values([1, 2, 3], 2, [([1, 2], 0), (B, 0)]),
    "value": lambda B: _u23_valuation().value(B),
    "is_basis": lambda B: mf.uniform_matroid(2, 3).is_basis(B),
    "circuit_hyperplane_B0":
        lambda B: mf.circuit_hyperplane_valuation(mf.uniform_matroid(2, 3), B, 1),
}

_MALFORMED = {
    "unknown": ([1, 7], "unknown element 7"),
    "unhashable": ([1, [2]], "unknown element [2]"),
    "repeated": ([1, 1, 2], "subset [1, 1, 2] repeats an element"),
    "bool": ([True, 2], "unknown element True"),
    "float": ([1.0, 3], "unknown element 1.0"),
    "numpy int": ([np.int64(1), 2], "unknown element np.int64(1)"),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_refuses_a_malformed_subset_alike(reader, kind):
    subset, message = _MALFORMED[kind]
    with pytest.raises(ValueError) as info:
        _READERS[reader](subset)
    assert str(info.value) == message


def test_readers_check_sizes_after_labels():
    for read in (lambda: mf.check_basis_axioms([1, 2, 3], 2, [[1, 2], [3]]),
                 lambda: mf.Valuation.from_values([1, 2, 3], 2, [([3], 0)]),
                 lambda: _u23_valuation().value([3])):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == "subset [3] does not have size 2"


def test_flock_refuses_unsorted_ground():
    # coordinate i of alpha belongs to ground[i]; fn's matroids live on the
    # sorted ground, so (3, 2, 1) would name the wrong axis in every report
    fn = lambda alpha: mf.uniform_matroid(1, 3)
    with pytest.raises(ValueError, match=r"ground must be sorted"):
        mf.oracle_flock((3, 2, 1), 1, fn)
    assert mf.oracle_flock((1, 2, 3), 1, fn).ground == (1, 2, 3)


def test_toric_and_linearized_refuse_repeated_ground_labels():
    with pytest.raises(ValueError, match="ground labels are not distinct"):
        mf.ToricRep(((1, 0, 1), (0, 1, 1)), 2, ground=(1, 1, 2))
    coords = [[(0, 0, 1)], [(1, 0, 1)], [(0, 1, 1)]]
    with pytest.raises(ValueError, match="ground labels are not distinct"):
        mf.LinearizedParam(3, 2, coords, ground=(1, 1, 2))
    assert mf.LinearizedParam(3, 2, coords, ground=("a", "b", "c")).ground == ("a", "b", "c")


# ---------------------------------------------------------------------------
# the JSON loaders agree on every drawn basis list

@st.composite
def _basis_lists(draw):
    """(ground, d, bases): distinct valid d-subsets in random label order,
    with unknown, unhashable and repeated-label entries mixed in; unknown
    labels include booleans and floats equal to ground labels."""
    if draw(st.booleans()):
        ground = draw(st.lists(st.integers(-5, 9), min_size=1, max_size=5, unique=True))
        unknown = st.one_of(st.sampled_from([99, "x", True, False]),
                            st.sampled_from(ground).map(float))
    else:
        ground = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5,
                               unique=True))
        unknown = st.sampled_from(["z", 7])
    d = draw(st.integers(1, len(ground)))
    subset = st.lists(st.sampled_from(ground), min_size=d, max_size=d, unique=True)
    bases = draw(st.lists(subset, min_size=1, max_size=6, unique_by=frozenset))
    for _ in range(draw(st.integers(0, 3))):
        bad = list(draw(subset))
        at = draw(st.integers(0, d - 1))
        kind = draw(st.sampled_from(["unknown", "unhashable", "repeated"]))
        if kind == "repeated":
            bad.insert(draw(st.integers(0, d)), bad[at])
        else:
            bad[at] = draw(unknown) if kind == "unknown" else [bad[at]]
        bases.insert(draw(st.integers(0, len(bases))), bad)
    return ground, d, bases


def _refusal(read, prefix=""):
    """The message of the input error ``read()`` raises, after ``prefix``;
    None when it accepts the document."""
    try:
        read()
    except (ValueError, TypeError) as exc:
        text = str(exc)
        assert text.startswith(prefix), text
        return text[len(prefix):]
    return None


@settings(max_examples=300, deadline=None)
@given(_basis_lists())
def test_loaders_accept_and_refuse_alike(drawn):
    # sizes keep their own rules (a matroid document states its rank apart
    # from its bases) and only a valuation refuses a subset listed twice, so
    # every valid subset drawn has d labels and appears once
    ground, d, bases = drawn
    matroid_doc = json.loads(json.dumps({"ground": ground, "rank": d, "bases": bases}))
    valuation_doc = json.loads(json.dumps(
        {"ground": ground, "d": d, "values": [{"basis": B, "value": 0} for B in bases]}))
    as_matroid = _refusal(lambda: jsonio.matroid_from_json(matroid_doc),
                          "bad matroid document: ")
    as_valuation = _refusal(lambda: jsonio.valuation_from_json(valuation_doc),
                            "bad valuation document: ")
    # the way the check-matroid command calls it: the document's raw fields
    as_check = _refusal(lambda: mf.check_basis_axioms(
        matroid_doc["ground"], matroid_doc["rank"], matroid_doc["bases"]))
    assert as_matroid == as_valuation == as_check
    malformed = any(len(B) != d or not all(type(e) is type(ground[0]) and e in ground
                                           for e in B) for B in bases)
    assert (as_check is not None) == malformed
