"""Command-line front end: every pipeline with JSON in/out, plus SVG cells.

Exit codes: 0 success (checker commands report axiom failures as data and
still exit 0), 1 domain violation, 2 unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio, svg
from .algebraic import (
    check_frobenius_axioms,
    flock_from_linearized,
    flock_from_toric,
    lindstrom_toric,
    toric_matroid_at,
)
from .flock import ExtractionError, check_flock_axioms, extract_valuation, flock_from_valuation
from .discrete_convex import fenchel_dual
from .jsonio import InputError
from .matroid import _raise_unless, check_basis_axioms, named_matroid
from .rigidity import lazarson, lazarson_char_check, rigidity_certificate
from .valuation import (
    _leader_vertices,
    cell_inequalities,
    check_valuation_axioms,
    enumerate_leaders,
    g_value,
    matroid_at,
    support_matroid,
)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _alpha(text: str, n: int):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse integer vector {text!r}") from None
    if len(parts) != n:
        raise InputError(f"vector {text!r} has length {len(parts)}, expected {n}")
    return parts


def _valuation(args):
    """The valuation in ``args.file``; a map failing (V1)/(V2) exits 1."""
    nu = jsonio.valuation_from_json(_load(args.file))
    _raise_unless(check_valuation_axioms(nu), "valuation")
    return nu


def _flock_from_args(args):
    if getattr(args, "from_valuation", None):
        return flock_from_valuation(jsonio.valuation_from_json(_load(args.from_valuation)))
    if getattr(args, "from_toric", None):
        return flock_from_toric(jsonio.toric_from_json(_load(args.from_toric), args.p))
    if getattr(args, "from_linearized", None):
        return flock_from_linearized(
            jsonio.linearized_from_json(_load(args.from_linearized), args.p))
    if getattr(args, "explicit", None):
        return jsonio.explicit_flock_from_json(_load(args.explicit))
    raise InputError("no flock source given "
                     "(--from-valuation / --from-toric / --from-linearized / --explicit)")


# ---------------------------------------------------------------------------
# handlers (each returns a JSON-able dict, or a raw string for SVG)

def _cmd_check_matroid(args):
    doc = _load(args.file)
    ground = jsonio._require(doc, "ground", list)
    rank = jsonio._require(doc, "rank", int)
    bases = jsonio._require(doc, "bases", list)
    try:
        report = check_basis_axioms(ground, rank, bases)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    return jsonio.axiom_check_to_json(report)


def _cmd_check_valuation(args):
    nu = jsonio.valuation_from_json(_load(args.file))
    return jsonio.axiom_check_to_json(check_valuation_axioms(nu))


def _cmd_support(args):
    nu = _valuation(args)
    return jsonio.matroid_to_json(support_matroid(nu))


def _cmd_matroid_at(args):
    nu = _valuation(args)
    return jsonio.matroid_to_json(matroid_at(nu, _alpha(args.alpha, len(nu.ground))))


def _cmd_g_value(args):
    nu = _valuation(args)
    alpha = _alpha(args.alpha, len(nu.ground))
    return {"alpha": list(alpha), "g": g_value(nu, alpha)}


def _cmd_cells(args):
    nu = _valuation(args)
    n = len(nu.ground)
    if args.svg:
        if n > 4:
            raise InputError("--svg slices need at most 4 ground elements")
        axes = args.axes.split(",") if args.axes else None
        if axes is None:
            labels = list(nu.ground[-2:]) if n > 2 else list(nu.ground)
        else:
            labels = []
            for a in axes:
                match = [e for e in nu.ground if str(e) == a]
                if not match:
                    raise InputError(f"unknown axis {a!r}")
                labels.append(match[0])
        radius = args.radius if args.radius is not None else nu.spread * (n - 1) + 1
        return svg.render_cells_svg(nu, labels, radius)
    beta = _alpha(args.beta, n) if args.beta else (0,) * n
    return jsonio.cells_to_json(cell_inequalities(nu, beta))


def _cmd_leaders(args):
    nu = _valuation(args)
    scan = enumerate_leaders(nu, args.radius)
    doc = jsonio.leaders_to_json(scan)
    doc["zero_dimensional_cells"] = [list(c) for c in _leader_vertices(nu, scan)]
    return doc


def _cmd_fenchel(args):
    f = jsonio.window_function_from_json(_load(args.file))
    lo = _alpha(args.lo, f.n)
    hi = _alpha(args.hi, f.n)
    return jsonio.window_function_to_json(fenchel_dual(f, lo, hi))


def _cmd_check_flock(args):
    flock = _flock_from_args(args)
    report = check_flock_axioms(flock, args.radius, check_sets=args.sets)
    return jsonio.flock_report_to_json(report)


def _cmd_extract_valuation(args):
    flock = _flock_from_args(args)
    nu = extract_valuation(flock, cutoff=args.cutoff, verify_radius=args.verify_radius)
    return jsonio.valuation_to_json(nu)


def _toric_from_file(args):
    """A toric document, or a bare matrix document {"rows": ...} with --p."""
    doc = _load(args.file)
    if isinstance(doc, dict) and "A" not in doc:
        doc = {"A": jsonio._require(doc, "rows", list)}
    return jsonio.toric_from_json(doc, args.p)


def _cmd_lindstrom_toric(args):
    return jsonio.valuation_to_json(lindstrom_toric(_toric_from_file(args)))


def _cmd_toric_matroid_at(args):
    rep = _toric_from_file(args)
    return jsonio.matroid_to_json(toric_matroid_at(rep, _alpha(args.alpha, rep.n)))


def _cmd_flock_from_linearized(args):
    param = jsonio.linearized_from_json(_load(args.file), args.p)
    flock = flock_from_linearized(param)
    alpha = _alpha(args.alpha, param.n)
    return jsonio.matroid_to_json(flock.matroid_at(alpha))


def _cmd_check_ff(args):
    param = jsonio.linearized_from_json(_load(args.file), args.p)
    return jsonio.frobenius_report_to_json(check_frobenius_axioms(param, args.radius))


def _cmd_rigidity(args):
    if args.name:
        try:
            M = named_matroid(args.name)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    elif args.file:
        M = jsonio.matroid_from_json(_load(args.file))
    else:
        raise InputError("rigidity needs a matroid file or --name")
    return jsonio.rigidity_to_json(rigidity_certificate(M))


def _cmd_lazarson(args):
    return jsonio.matroid_to_json(lazarson(args.n, args.variant))


def _cmd_lazarson_check(args):
    return jsonio.char_check_to_json(lazarson_char_check(args.n, args.p))


# ---------------------------------------------------------------------------
# parser

def _add_flock_source(sub):
    sub.add_argument("--from-valuation", metavar="FILE")
    sub.add_argument("--from-toric", metavar="FILE")
    sub.add_argument("--from-linearized", metavar="FILE")
    sub.add_argument("--explicit", metavar="FILE")
    sub.add_argument("--p", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matflock",
        description="Exact matroid flocks, valuations, and twist pipelines.")
    parser.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-matroid", help="basis axioms (B1)/(B2)")
    s.add_argument("file")
    s.set_defaults(func=_cmd_check_matroid)

    s = sub.add_parser("check-valuation", help="valuation axioms (V1)/(V2)")
    s.add_argument("file")
    s.set_defaults(func=_cmd_check_valuation)

    s = sub.add_parser("support", help="support matroid of a valuation")
    s.add_argument("file")
    s.set_defaults(func=_cmd_support)

    s = sub.add_parser("matroid-at", help="induced matroid at alpha")
    s.add_argument("file")
    s.add_argument("--alpha", required=True)
    s.set_defaults(func=_cmd_matroid_at)

    s = sub.add_parser("g-value", help="gauge value at alpha")
    s.add_argument("file")
    s.add_argument("--alpha", required=True)
    s.set_defaults(func=_cmd_g_value)

    s = sub.add_parser("cells", help="cell inequalities, or an SVG slice")
    s.add_argument("file")
    s.add_argument("--beta", default=None)
    s.add_argument("--svg", action="store_true")
    s.add_argument("--axes", default=None, help="two element labels, e.g. 2,3")
    s.add_argument("--radius", type=int, default=None)
    s.set_defaults(func=_cmd_cells)

    s = sub.add_parser("leaders", help="distinct induced matroids over a window")
    s.add_argument("file")
    s.add_argument("--radius", type=int, default=None)
    s.set_defaults(func=_cmd_leaders)

    s = sub.add_parser("fenchel", help="Legendre-Fenchel dual on a box")
    s.add_argument("file")
    s.add_argument("--lo", required=True)
    s.add_argument("--hi", required=True)
    s.set_defaults(func=_cmd_fenchel)

    s = sub.add_parser("check-flock", help="flock axioms on a window")
    _add_flock_source(s)
    s.add_argument("--radius", type=int, default=2,
                   help="check every alpha in [-r, r]^E; each check also "
                        "reads alpha + e_I, so an --explicit table must "
                        "cover [-r, r+1]^E")
    s.add_argument("--sets", action="store_true", help="also the subset version")
    s.set_defaults(func=_cmd_check_flock)

    s = sub.add_parser("extract-valuation", help="valuation of a flock")
    _add_flock_source(s)
    s.add_argument("--cutoff", type=int, default=None)
    s.add_argument("--verify-radius", type=int, default=None,
                   help="round-trip window radius for an --explicit flock "
                        "(default 2, 0 skips); flocks with a valuation are "
                        "checked exactly against it")
    s.set_defaults(func=_cmd_extract_valuation)

    s = sub.add_parser("lindstrom-toric", help="p-adic minor valuation of a matrix")
    s.add_argument("file")
    s.add_argument("--p", type=int, default=None)
    s.set_defaults(func=_cmd_lindstrom_toric)

    s = sub.add_parser("toric-matroid-at", help="toric twist matroid at alpha")
    s.add_argument("file")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--alpha", required=True)
    s.set_defaults(func=_cmd_toric_matroid_at)

    s = sub.add_parser("flock-from-linearized", help="tangent matroid at alpha")
    s.add_argument("file")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--alpha", required=True)
    s.set_defaults(func=_cmd_flock_from_linearized)

    s = sub.add_parser("check-ff", help="Frobenius flock axioms on a window")
    s.add_argument("file")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--radius", type=int, default=2)
    s.set_defaults(func=_cmd_check_ff)

    s = sub.add_parser("rigidity", help="rigidity certificate of a matroid")
    s.add_argument("file", nargs="?", default=None)
    s.add_argument("--name", default=None, help="fano / nonfano / uniform(d,n)")
    s.set_defaults(func=_cmd_rigidity)

    s = sub.add_parser("lazarson", help="a member of the determinant family")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--variant", choices=("full", "minus"), default="full")
    s.set_defaults(func=_cmd_lazarson)

    s = sub.add_parser("lazarson-check", help="central determinant mod p")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(func=_cmd_lazarson_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ExtractionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
