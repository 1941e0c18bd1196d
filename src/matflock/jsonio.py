"""JSON schemas for every external interface, both directions.

Parsing problems raise InputError (the CLI maps these to exit code 2);
domain violations inside the library keep raising ValueError.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .lattice import INF
from .matroid import AxiomCheck, Matroid
from .valuation import CellSystem, LeaderScan, Valuation

if TYPE_CHECKING:       # annotations only: each reader imports what it builds
    from .algebraic import FrobeniusWindowReport, LinearizedParam, ToricRep
    from .discrete_convex import WindowFunction
    from .flock import FlockWindowReport, MatroidFlock
    from .rigidity import CharacteristicCheck, RigidityVerdict


class InputError(ValueError):
    """Malformed or unreadable input document."""


def _require(doc, key, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing field {key!r}")
    val = doc[key]
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):
        raise InputError(f"field {key!r} has the wrong type")
    return val


def _int_vector(doc, key):
    """The list field ``key`` of ``doc`` as a tuple of ints (no booleans)."""
    vec = _require(doc, key, list)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in vec):
        raise InputError(f"field {key!r} must be a list of integers")
    return tuple(vec)


def _built(what: str, build, *args):
    """``build(*args)``, with its ValueError or TypeError raised as
    InputError("bad {what}: ...")."""
    try:
        return build(*args)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad {what}: {exc}") from None


def _ground(entries):
    try:
        return tuple(entries)
    except TypeError:
        raise InputError("ground must be a list") from None


# ---------------------------------------------------------------------------
# matroids

def matroid_to_json(M: Matroid) -> dict:
    return {
        "ground": list(M.ground),
        "rank": M.d,
        "bases": [list(B) for B in M.bases],
    }


def matroid_from_json(doc) -> Matroid:
    ground = _ground(_require(doc, "ground", list))
    rank = _require(doc, "rank", int)
    bases = _require(doc, "bases", list)
    M = _built("matroid document", Matroid.from_bases, ground, bases)
    if M.d != rank:
        raise InputError(f"declared rank {rank} but bases have size {M.d}")
    return M


# ---------------------------------------------------------------------------
# exact matrices

def _parse_entry(x):
    if isinstance(x, bool):
        raise InputError(f"bad matrix entry {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        from fractions import Fraction
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad matrix entry {x!r}") from None
        return int(f) if f.denominator == 1 else f
    raise InputError(f"bad matrix entry {x!r} (floats are not exact)")


def matrix_from_json(doc):
    rows = _require(doc, "rows", list)
    out = []
    width = None
    for row in rows:
        if not isinstance(row, list):
            raise InputError("matrix rows must be lists")
        parsed = tuple(_parse_entry(x) for x in row)
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InputError("matrix is not rectangular")
        out.append(parsed)
    if not out:
        raise InputError("empty matrix")
    return tuple(out)


def matrix_to_json(rows) -> dict:
    from fractions import Fraction
    enc = []
    for row in rows:
        out = []
        for x in row:
            f = Fraction(x)
            out.append(int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}")
        enc.append(out)
    return {"rows": enc}


# ---------------------------------------------------------------------------
# valuations

def valuation_to_json(nu: Valuation) -> dict:
    values = [{"basis": list(nu.labels_of(mask)), "value": val}
              for mask, val in sorted(nu.finite.items())]
    return {"ground": list(nu.ground), "d": nu.d, "values": values}


def valuation_from_json(doc) -> Valuation:
    ground = _ground(_require(doc, "ground", list))
    d = _require(doc, "d", int)
    entries = _require(doc, "values", list)
    pairs = []
    for entry in entries:
        basis = _require(entry, "basis", list)
        val = _require(entry, "value")
        if val == "inf":
            val = INF
        elif not isinstance(val, int) or isinstance(val, bool):
            raise InputError(f"bad valuation value {val!r}")
        pairs.append((basis, val))
    return _built("valuation document", Valuation.from_values, ground, d, pairs)


# ---------------------------------------------------------------------------
# window functions

def window_function_to_json(f: WindowFunction) -> dict:
    return {
        "n": f.n, "lo": list(f.lo), "hi": list(f.hi),
        "values": [{"x": list(pt), "v": f.values[pt]} for pt in f.domain()],
    }


def window_function_from_json(doc) -> WindowFunction:
    from .discrete_convex import WindowFunction
    n = _require(doc, "n", int)
    lo = _int_vector(doc, "lo")
    hi = _int_vector(doc, "hi")
    entries = _require(doc, "values", list)
    values = {}
    for entry in entries:
        x = _int_vector(entry, "x")
        v = _require(entry, "v")
        if x in values:
            raise InputError(f"point x={list(x)} listed twice")
        if v != "inf" and (not isinstance(v, int) or isinstance(v, bool)):
            raise InputError(f"bad window value {v!r}")
        values[x] = v
    # "inf" points are passed on as ∞, so they too must lie in the box
    return _built("window function document", WindowFunction, n, lo, hi,
                  {x: INF if v == "inf" else v for x, v in values.items()})


# ---------------------------------------------------------------------------
# algebraic representations

def _prime(doc, p_override):
    """The field ``p`` (a JSON int) of a representation document, or the flag's
    value; a ``null`` that is present is a field of the wrong type."""
    present = isinstance(doc, dict) and "p" in doc
    p = doc["p"] if present else p_override
    if p is None and not present:
        raise InputError("missing prime p")
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError("field 'p' has the wrong type")
    if p_override is not None and p != p_override:
        raise InputError(f"p mismatch: file says {p}, flag says {p_override}")
    return p


def toric_from_json(doc, p_override=None) -> ToricRep:
    """A toric document, or a bare matrix {"rows": …} (with neither, ``A`` is
    missing); p from its field or ``p_override`` (both given must agree)."""
    from .algebraic import ToricRep
    bare = isinstance(doc, dict) and "A" not in doc and "rows" in doc
    p = _prime(doc, p_override)
    A = matrix_from_json(doc if bare else {"rows": _require(doc, "A", list)})
    return _built("toric representation", ToricRep, A, p)


def toric_to_json(rep: ToricRep) -> dict:
    return {"p": rep.p, "A": [list(r) for r in rep.A]}


def linearized_from_json(doc, p_override=None) -> LinearizedParam:
    from .algebraic import LinearizedParam
    p = _prime(doc, p_override)
    params = _require(doc, "params", list)
    coords = _require(doc, "coords", list)
    terms = []
    for i, clist in enumerate(coords):
        if not isinstance(clist, list):
            raise InputError(f"coordinate {i} must be a list of terms")
        terms.append([(
            _require(t, "v", int), _require(t, "k", int), _require(t, "c", int),
        ) for t in clist])
    return _built("linearized parametrization", LinearizedParam, p, len(params), terms)


def linearized_to_json(param: LinearizedParam) -> dict:
    return {
        "p": param.p,
        "params": [f"x{v}" for v in range(param.m)],
        "coords": [[{"v": v, "k": k, "c": c} for (v, k, c) in terms]
                   for terms in param.coords],
    }


def explicit_flock_from_json(doc) -> MatroidFlock:
    from .flock import explicit_flock
    entries = _require(doc, "entries", list)
    table = {}
    ground = None
    for entry in entries:
        alpha = _int_vector(entry, "alpha")
        M = matroid_from_json(_require(entry, "matroid", dict))
        ground = M.ground
        if alpha in table:
            raise InputError(f"alpha={list(alpha)} listed twice")
        table[alpha] = M
    if not table:
        raise InputError("explicit flock with no entries")
    d = next(iter(table.values())).d
    return _built("explicit flock", explicit_flock, table, ground, d)


# ---------------------------------------------------------------------------
# reports and verdicts

def axiom_check_to_json(check: AxiomCheck) -> dict:
    doc = {"valid": check.ok}
    if not check.ok:
        doc["kind"] = check.kind
        if check.witness is not None:
            doc["witness"] = [list(w) if isinstance(w, (tuple, list)) else w
                              for w in check.witness]
    return doc


def flock_report_to_json(rep: FlockWindowReport) -> dict:
    doc = {
        "valid": rep.ok,
        "radius": rep.radius,
        "mf1": {"checked": rep.mf1_checked, "failed": rep.mf1_failed},
        "mf2": {"checked": rep.mf2_checked, "failed": rep.mf2_failed},
    }
    if rep.set_checked:
        doc["sets"] = {"checked": rep.set_checked, "failed": rep.set_failed}
    if rep.violation is not None:
        v = rep.violation
        doc["violation"] = {
            "alpha": list(v.alpha),
            "move": list(v.move) if isinstance(v.move, tuple) else v.move,
            "left": matroid_to_json(v.left),
            "right": matroid_to_json(v.right),
        }
    return doc


def frobenius_report_to_json(rep: FrobeniusWindowReport) -> dict:
    """The check-ff document."""
    doc = {
        "valid": rep.ok,
        "radius": rep.radius,
        "ff1": {"checked": rep.ff1_checked, "failed": rep.ff1_failed},
        "ff2": {"checked": rep.ff2_checked, "failed": rep.ff2_failed},
    }
    if rep.violation is not None:
        alpha, move, left, right = rep.violation
        doc["violation"] = {"alpha": list(alpha), "move": move,
                            "left": [list(r) for r in left],
                            "right": [list(r) for r in right]}
    return doc


def cells_to_json(cells: CellSystem) -> dict:
    return {
        "beta": list(cells.beta),
        "matroid": matroid_to_json(cells.matroid),
        "constraints": [{"i": i, "j": j, "c": c} for i, j, c in cells.constraints],
    }


def leaders_to_json(scan: LeaderScan) -> dict:
    return {
        "radius": scan.radius,
        "complete": scan.complete,
        "leaders": [{"alpha": list(alpha), "matroid": matroid_to_json(M)}
                    for M, alpha in scan.leaders],
    }


def rigidity_to_json(verdict: RigidityVerdict) -> dict:
    doc = {"verdict": verdict.kind}
    if verdict.witness is not None:
        doc["witness"] = valuation_to_json(verdict.witness)
    if verdict.direction is not None:
        doc["direction"] = [str(x) for x in verdict.direction]
    return doc


def char_check_to_json(check: CharacteristicCheck) -> dict:
    return {
        "n": check.n, "p": check.p, "det": check.det,
        "formula_ok": check.formula_ok, "divisible": check.divisible,
    }
