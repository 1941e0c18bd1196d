"""The record classes against ``@dataclass(frozen=True)``.

Each value, report and spec class of the package is built by
``matroid.record``.  For each one, a twin made by
``dataclasses.make_dataclass`` from the same annotations, defaults,
``__post_init__`` and class-body ``__repr__`` and ``__hash__`` is the
oracle: both must accept and refuse the same arguments and agree on
equality, hashing, repr and read-only fields.
"""

import dataclasses
import inspect

import pytest

from matflock import algebraic, discrete_convex, flock, matroid, rigidity, valuation

MODULES = (algebraic, discrete_convex, flock, matroid, rigidity, valuation)
RECORDS = [
    "AxiomCheck", "FieldSpec", "TrivialityResult", "CellSystem", "LeaderScan",
    "FlockViolation", "FlockWindowReport", "ToricRep", "FrobeniusFlockWindow",
    "FrobeniusWindowReport", "ConstraintSystem", "RigidityVerdict", "CharacteristicCheck",
    "LConvexReport", "MConvexReport", "Matroid", "Valuation", "WindowFunction",
    "LinearizedParam",
]
# (arguments, other arguments) for the classes that check their fields or
# hold an unhashable one; every other class gets (0, 1, ...) and (1, 2, ...)
SAMPLES = {
    "FieldSpec": ((3,), (5,)),
    "ToricRep": ((((1, 0, 1), (0, 1, 1)), 3), (((1, 0, 2), (0, 1, 1)), 3)),
    "FrobeniusFlockWindow": ((1, 2, 1, (1, 2), {}), (1, 2, 1, (1, 2), {(0, 0): ()})),
    "Matroid": (((1, 2, 3), (3, 5)), ((1, 2, 3), (3, 6))),
    "Valuation": (((1, 2, 3), 2, {3: 0, 5: 1}), ((1, 2, 3), 2, {3: 0, 6: 1})),
    "WindowFunction": ((1, (0,), (1,), {(0,): 0}), (1, (0,), (1,), {(1,): 0})),
    "LinearizedParam": ((3, 1, [[(0, 0, 1)]]), (3, 1, [[(0, 1, 1)]])),
}


def _is_record(cls) -> bool:
    return getattr(cls.__init__, "__qualname__", "") == "record.<locals>.__init__"


def _classes():
    return {name: obj for mod in MODULES for name, obj in vars(mod).items()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__ and _is_record(obj)}


def _own(cls):
    """The ``__post_init__``, ``__repr__`` and ``__hash__`` of the class body,
    not the ones ``record`` made."""
    made = lambda value: getattr(value, "__qualname__", "").startswith("record.")
    return {key: value for key, value in cls.__dict__.items()
            if key in ("__post_init__", "__repr__", "__hash__") and not made(value)}


def _twin(cls):
    """The ``@dataclass(frozen=True)`` form of a record class."""
    names = cls.__match_args__
    specs = [(n, cls.__annotations__[n], dataclasses.field(default=getattr(cls, n)))
             if n in cls.__dict__ else (n, cls.__annotations__[n]) for n in names]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=_own(cls))


def _copy(cls):
    """Another record class with the same fields, defaults and checks."""
    body = {n: v for n, v in cls.__dict__.items()
            if n in cls.__match_args__ or n in ("__annotations__", "__post_init__")}
    return matroid.record(type(cls.__name__, (), body))


def _outcome(fn, message=False):
    """fn's result, or the kind of error it raises (with its message)."""
    try:
        return fn()
    except (TypeError, ValueError, AttributeError) as exc:
        kind = next(k for k in (TypeError, ValueError, AttributeError) if isinstance(exc, k))
        return kind, str(exc) if message else None


def _fields(obj):
    return tuple(getattr(obj, n) for n in obj.__match_args__)


def test_every_record_class_is_listed():
    assert sorted(_classes()) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_matches_frozen_dataclass(name):
    cls = _classes()[name]
    twin = _twin(cls)
    names = cls.__match_args__
    assert twin.__match_args__ == names
    required = sum(n not in cls.__dict__ for n in names)
    args, other = SAMPLES.get(name, (tuple(range(len(names))),
                                     tuple(range(1, len(names) + 1))))

    # construction: what is accepted, with which fields, and what is refused
    calls = [((), {}), (args, {}), (args[:required], {}), ((), dict(zip(names, args))),
             ((*args, *(None,) * (len(names) - len(args)), 0), {}),
             (args[:1], {names[0]: args[0]}), (args, {"not_a_field": 0})]
    for a, k in calls:
        assert _outcome(lambda: _fields(cls(*a, **k))) == _outcome(
            lambda: _fields(twin(*a, **k))), (a, k)

    rec, rec2, rec_other = cls(*args), cls(*args), cls(*other)
    dc, dc2, dc_other = twin(*args), twin(*args), twin(*other)
    copy, dc_copy = _copy(cls)(*args), _twin(_copy(cls))(*args)

    # equality both ways, within and across classes, and against a tuple
    pairs = [(rec, rec2, dc, dc2), (rec, rec_other, dc, dc_other), (rec, copy, dc, dc_copy),
             (copy, rec, dc_copy, dc), (rec, dc, dc, rec), (rec, _fields(rec), dc, _fields(dc))]
    for x, y, dx, dy in pairs:
        assert (x == y, x != y) == (dx == dy, dx != dy), (x, y)
    assert rec == rec2 and rec != rec_other and rec != copy and rec != dc

    assert _outcome(lambda: hash(rec), True) == _outcome(lambda: hash(dc), True)
    assert repr(rec) == repr(dc)
    if cls.__repr__.__qualname__ == "record.<locals>.__repr__":
        assert repr(rec) == repr(copy)
    elif name == "FieldSpec":   # a repr of the class body's own stays
        assert repr(rec) == "GF(3)"

    # every field, and any other name, is read-only
    for attr in (*names, "not_a_field"):
        assert _outcome(lambda: setattr(rec, attr, 0), True) == _outcome(
            lambda: setattr(dc, attr, 0), True)
        assert _outcome(lambda: delattr(rec, attr), True) == _outcome(
            lambda: delattr(dc, attr), True)
    assert _fields(rec) == _fields(dc)


def _value_objects():
    """A Matroid, Valuation, WindowFunction and LinearizedParam, each with
    the names of its fields and of what a check reads off it."""
    M = matroid.uniform_matroid(2, 4)
    nu = valuation.Valuation.from_values([1, 2, 3], 2, {(1, 2): 0, (1, 3): 0, (2, 3): 1})
    h = discrete_convex.WindowFunction(2, (0, 0), (1, 1), {(1, 0): 0, (0, 1): 0})
    param = algebraic.LinearizedParam(2, 2, [[(0, 0, 1)], [(1, 0, 1)], [(0, 0, 1), (1, 0, 1)],
                                             [(0, 0, 1), (1, 2, 1)]])
    return {
        "Matroid": (M, ("ground", "masks", "d"), lambda: M.bases),
        "Valuation": (nu, ("ground", "d", "finite"),
                      lambda: (valuation.check_valuation_axioms(nu), dict(nu.finite))),
        "WindowFunction": (h, ("n", "lo", "hi", "values"),
                           lambda: (discrete_convex.check_lconvex(h), dict(h.values))),
        "LinearizedParam": (param, ("p", "m", "coords", "ground"),
                            lambda: (param.n, algebraic.tadic_valuation(param))),
    }


@pytest.mark.parametrize("name", ["Matroid", "Valuation", "WindowFunction", "LinearizedParam"])
def test_value_objects_refuse_assignment_and_deletion(name):
    # a matroid's cached bases and a parametrization's cached valuation
    # must keep describing the object they were read from
    obj, fields, read = _value_objects()[name]
    before = read()
    for attr in fields:
        other = getattr(obj, attr)[:1] if attr in ("ground", "coords") else 1
        with pytest.raises(AttributeError):
            setattr(obj, attr, other)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert read() == before
