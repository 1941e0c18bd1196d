"""Command-line front end: every pipeline with JSON in/out, plus SVG cells.

Exit codes: 0 success (checker commands report axiom failures as data and
still exit 0), 1 domain violation, 2 unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import jsonio
from .jsonio import InputError
from .matroid import _raise_unless, check_basis_axioms, named_matroid
from .valuation import (
    cell_inequalities,
    check_valuation_axioms,
    default_leader_radius,
    enumerate_leaders,
    g_value,
    matroid_at,
    support_matroid,
    zero_dimensional_cells,
)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an int past Python's digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to read") from None


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


def _source(path, kind: str, p):
    """The source of kind ``kind`` ("toric", "linearized") in ``path``, p from --p."""
    read = jsonio.toric_from_json if kind == "toric" else jsonio.linearized_from_json
    return read(_load(path), p)


def _flock_from_args(args):
    given = [flag for flag in ("from_valuation", "from_toric", "from_linearized", "explicit")
             if getattr(args, flag)]
    if len(given) > 1:
        raise InputError("more than one flock source given: "
                         + ", ".join("--" + flag.replace("_", "-") for flag in given))
    if args.from_valuation:
        from .flock import flock_from_valuation
        return flock_from_valuation(jsonio.valuation_from_json(_load(args.from_valuation)))
    if args.from_toric or args.from_linearized:
        from .algebraic import _source_flock
        kind = "toric" if args.from_toric else "linearized"
        return _source_flock(_source(args.from_toric or args.from_linearized, kind, args.p))
    if args.explicit:
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
        from . import svg
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
        if len(labels) != 2:
            raise InputError(svg._AXIS_COUNT.format(len(labels)))
        if labels[0] == labels[1]:
            raise InputError(svg._AXES_DISTINCT)
        radius = args.radius if args.radius is not None else default_leader_radius(nu)
        return svg.render_cells_svg(nu, labels, radius)
    beta = _alpha(args.beta, n) if args.beta else (0,) * n
    return jsonio.cells_to_json(cell_inequalities(nu, beta))


def _cmd_leaders(args):
    nu = _valuation(args)
    scan = enumerate_leaders(nu, args.radius)
    doc = jsonio.leaders_to_json(scan)
    doc["zero_dimensional_cells"] = [list(c) for c in zero_dimensional_cells(nu, scan.radius)]
    return doc


def _cmd_fenchel(args):
    from .discrete_convex import fenchel_dual
    f = jsonio.window_function_from_json(_load(args.file))
    lo = _alpha(args.lo, f.n)
    hi = _alpha(args.hi, f.n)
    return jsonio.window_function_to_json(fenchel_dual(f, lo, hi))


def _cmd_check_flock(args):
    from .flock import check_flock_axioms
    flock = _flock_from_args(args)
    report = check_flock_axioms(flock, args.radius, check_sets=args.sets)
    return jsonio.flock_report_to_json(report)


def _cmd_extract_valuation(args):
    from .flock import ExtractionError, extract_valuation
    flock = _flock_from_args(args)
    try:
        nu = extract_valuation(flock, cutoff=args.cutoff, verify_radius=args.verify_radius)
    except ExtractionError as exc:       # main reports it as "error: ..." with exit 1
        raise ValueError(str(exc)) from None
    return jsonio.valuation_to_json(nu)


def _cmd_lindstrom_toric(args):
    from .algebraic import lindstrom_toric
    return jsonio.valuation_to_json(lindstrom_toric(_source(args.file, args.kind, args.p)))


def _cmd_source_matroid_at(args):
    """toric-matroid-at and flock-from-linearized: M^nu_alpha, nu the Lindström valuation."""
    from .algebraic import _lindstrom
    source = _source(args.file, args.kind, args.p)
    alpha = _alpha(args.alpha, source.n)
    return jsonio.matroid_to_json(matroid_at(_lindstrom(source)[0], alpha))


def _cmd_check_ff(args):
    from .algebraic import check_frobenius_axioms
    source = _source(args.file, args.kind, args.p)
    return jsonio.frobenius_report_to_json(check_frobenius_axioms(source, args.radius))


def _cmd_rigidity(args):
    from .rigidity import rigidity_certificate
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
    from .rigidity import lazarson
    return jsonio.matroid_to_json(lazarson(args.n, args.variant))


def _cmd_lazarson_check(args):
    from .rigidity import lazarson_char_check
    return jsonio.char_check_to_json(lazarson_char_check(args.n, args.p))


# ---------------------------------------------------------------------------
# parser

def _add_source(sub, kind: str, func):
    """A command ``func`` that reads one source of kind ``kind``: its file and --p."""
    sub.add_argument("file")
    sub.add_argument("--p", type=int, default=None)
    sub.set_defaults(kind=kind, func=func)


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
    _add_source(s, "toric", _cmd_lindstrom_toric)

    s = sub.add_parser("toric-matroid-at", help="toric twist matroid at alpha")
    _add_source(s, "toric", _cmd_source_matroid_at)
    s.add_argument("--alpha", required=True)

    s = sub.add_parser("flock-from-linearized", help="M^nu_alpha of the T-adic valuation at alpha")
    _add_source(s, "linearized", _cmd_source_matroid_at)
    s.add_argument("--alpha", required=True)

    s = sub.add_parser("check-ff", help="Frobenius flock axioms on a window")
    _add_source(s, "linearized", _cmd_check_ff)
    s.add_argument("--radius", type=int, default=2)

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


# integer-vector options, and a value argparse would read as a flag
_VECTOR_FLAGS = ("--alpha", "--beta", "--lo", "--hi")
_VECTOR = re.compile(r"-?\d+(,-?\d+)*")


def _join_vectors(argv):
    """``argv`` with each vector option and its value joined by "=", so
    that ``--alpha -1,0`` reads as ``--alpha=-1,0``: argparse takes a
    separate value that starts with "-" for a flag."""
    out = []
    for arg in argv:
        if out and out[-1] in _VECTOR_FLAGS and _VECTOR.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_vectors(sys.argv[1:] if argv is None else argv))
    try:
        result = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: the window is too large for memory{detail}", file=sys.stderr)
        return 1
    text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
else:
    # perfbench/tracer.py's install reads every traced module from sys.modules
    # right after `import matflock.cli`; this preload exists only for it, and
    # ROADMAP item 10(b) deletes it.  Run as a script, each command loads only
    # the modules its handler imports.
    from . import algebraic, discrete_convex, flock, rigidity
