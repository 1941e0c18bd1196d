"""The four benchmark workloads.

A workload is a fixed batch recipe: each batch draws fresh inputs of the
same sizes from the workload's random stream, so batches differ in their
values but not in their shape.  An instance is one full pipeline on one
input (timed) plus the checks on its output (not timed).  A check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import gen
import ref

BIG = 2 ** 60   # exactness probes: values far above float64's 2^53


@dataclass
class Instance:
    kind: str
    size: dict
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # probes expose a known defect: their failures are counted, never hidden
    probe: bool = False


@dataclass
class CliCall:
    argv: list
    expected: object         # the library's own result, as the CLI prints it


@dataclass
class CliPlan:
    files: dict = field(default_factory=dict)    # file name -> JSON document
    calls: list = field(default_factory=list)


def _fresh(rng, seen: set, draw):
    """Draw (key, payload) pairs until the key is new in this run; a draw
    with key None is rejected."""
    while True:
        key, payload = draw(rng)
        if key is not None and key not in seen:
            seen.add(key)
            return payload


def _table_key(kind, n, d, values):
    return (kind, n, d, tuple(sorted(values.items())))


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _is(value, expected, what):
    return None if value == expected else f"{what}: got {value!r}, expected {expected!r}"


# ---------------------------------------------------------------------------
# valuation_roundtrip

class ValuationRoundtrip:
    name = "valuation_roundtrip"
    round_seconds = 4.6  # nominal seconds of one round; see run.py
    why = ("window scoring with at most 63 bases and numpy flock checks do the "
           "work; algebraic and linalg do none")
    # (n, d, check_sets) per batch; check_sets on the small half.  No n=7:
    # its radius-3 check scans 823 543 points, its time did not follow the
    # machine's speed as calib.py measures it, and its three instances a run
    # alone put the spread of wall_s over seeds at 0.13-0.14
    recipe = ([(4, 2, True)] * 8 + [(4, 3, True)] * 4 + [(5, 2, True)] * 6
              + [(5, 3, True)] * 6 + [(6, 2, False)] * 2 + [(6, 3, False)] * 6)
    probes_per_batch = 2
    radius = 3

    def _roundtrip(self, mf, n, d, values, sets):
        nu = mf.Valuation(range(1, n + 1), d, values)

        def run():
            flock = mf.flock_from_valuation(nu)
            return mf.extract_valuation(flock), mf.check_flock_axioms(
                flock, self.radius, check_sets=sets)

        def check(out):
            got, report = out
            return _first(_is(got.finite, values, "extracted valuation"),
                          _is(report.ok, True, "flock axioms"),
                          None if report.set_checked or not sets else "no set checks ran")
        size = {"n": n, "d": d, "bases": len(values), "radius": self.radius,
                "check_sets": sets}
        return Instance("roundtrip", size, run, check)

    def _probe(self, mf, rng, seen):
        """A rank-1 valuation with values above 2^53.

        The exact answer is known: every rank-1 map is a valuation, so its
        flock satisfies the axioms, and M_alpha is the exact argmax."""
        def draw(r):
            n = r.choice([2, 3])
            base = BIG + r.randrange(0, 1 << 20)
            values = {1 << i: base + i for i in range(n)}
            return _table_key("probe", n, 1, values), (n, values)
        n, values = _fresh(rng, seen, draw)
        nu = mf.Valuation(range(1, n + 1), 1, values)
        alphas = [tuple(int(i == k) for i in range(n)) for k in range(n)] + [(0,) * n]

        def run():
            flock = mf.flock_from_valuation(nu)
            return (mf.check_flock_axioms(flock, self.radius),
                    [flock.matroid_at(a).masks for a in alphas])

        def check(out):
            report, masks = out
            return _first(_is(report.ok, True, "flock axioms of an exact valuation"),
                          *(_is(m, ref.argmax_masks(values, a), f"M_{a}")
                            for m, a in zip(masks, alphas)))
        size = {"n": n, "d": 1, "bases": n, "radius": self.radius, "max_value": max(values.values())}
        return Instance("probe", size, run, check, probe=True)

    def _valuation(self, rng, seen, n, d):
        def draw(r):
            values = gen.random_valuation(r, n, d)
            return _table_key("valuation", n, d, values), values
        return _fresh(rng, seen, draw)

    def batch(self, mf, rng, seen):
        out = [self._roundtrip(mf, n, d, self._valuation(rng, seen, n, d), sets)
               for n, d, sets in self.recipe]
        out += [self._probe(mf, rng, seen) for _ in range(self.probes_per_batch)]
        return out

    def warmup(self, mf, rng, seen):
        return [self._roundtrip(mf, n, d, self._valuation(rng, seen, n, d), True)
                for n, d in ((4, 2), (6, 3))]

    def cli(self, mf, jsonio, rng):
        nu = mf.Valuation(range(1, 6), 2, gen.random_valuation(rng, 5, 2))
        flock = mf.flock_from_valuation(nu)
        alpha = tuple(rng.randint(-2, 2) for _ in range(5))
        plan = CliPlan({"nu.json": jsonio.valuation_to_json(nu)})
        plan.calls = [
            CliCall(["check-valuation", "{nu.json}"],
                    jsonio.axiom_check_to_json(mf.check_valuation_axioms(nu))),
            CliCall(["extract-valuation", "--from-valuation", "{nu.json}"],
                    jsonio.valuation_to_json(mf.extract_valuation(flock))),
            CliCall(["check-flock", "--from-valuation", "{nu.json}", "--radius", "3"],
                    jsonio.flock_report_to_json(mf.check_flock_axioms(flock, 3))),
            CliCall(["matroid-at", "{nu.json}", "--alpha=" + ",".join(map(str, alpha))],
                    jsonio.matroid_to_json(mf.matroid_at(nu, alpha))),
        ]
        return plan


# ---------------------------------------------------------------------------
# toric_wide

class ToricWide:
    name = "toric_wide"
    round_seconds = 6.2  # nominal seconds of one round; see run.py
    why = ("the only workload on the >63-bases object path of score_ids and on "
           "det_int; same window layer as valuation_roundtrip at another width")
    # (d, n, wide): wide inputs have more than 63 nonzero minors.  The eight
    # n=7 matrices hold both the median and the tail instance of a run
    recipe = ([(3, 6, False), (4, 6, False)] + [(3, 7, False), (4, 7, False)] * 4
              + [(4, 8, True)])
    primes = (2, 3, 5)

    def _instance(self, mf, rng, seen, d, n, wide, p):
        def draw(r):
            A = gen.random_saturated_matrix(r, d, n, min_nonzero=64 if wide else 0)
            return ("toric", p, A), A
        A = _fresh(rng, seen, draw)
        rep = mf.ToricRep(A, p)

        def run():
            nu = mf.lindstrom_toric(rep)
            flock = mf.flock_from_toric(rep)
            return nu, mf.extract_valuation(flock), mf.check_flock_axioms(flock, 1)

        def check(out):
            nu, got, report = out
            expect = ref.padic_minor_valuation(A, p)
            return _first(_is(nu.finite, expect, "lindstrom_toric"),
                          _is(got.finite, nu.finite, "extracted valuation"),
                          _is(report.ok, True, "flock axioms"))
        size = {"n": n, "d": d, "p": p, "bases": len(gen.minors(A, d, n)),
                "radius": 1, "wide": wide}
        return Instance("toric", size, run, check)

    def batch(self, mf, rng, seen):
        return [self._instance(mf, rng, seen, d, n, wide,
                               rng.choice(self.primes) if wide else self.primes[k % 3])
                for k, (d, n, wide) in enumerate(self.recipe)]

    def warmup(self, mf, rng, seen):
        return [self._instance(mf, rng, seen, 3, n, False, 2) for n in (6, 7)]

    def cli(self, mf, jsonio, rng):
        p = rng.choice(self.primes)
        A = gen.random_saturated_matrix(rng, 3, 6)
        rep = mf.ToricRep(A, p)
        nu = mf.lindstrom_toric(rep)
        flock = mf.flock_from_toric(rep)
        alpha = tuple(rng.randint(-2, 2) for _ in range(6))
        plan = CliPlan({"rep.json": jsonio.toric_to_json(rep)})
        plan.calls = [
            CliCall(["lindstrom-toric", "{rep.json}"], jsonio.valuation_to_json(nu)),
            CliCall(["extract-valuation", "--from-toric", "{rep.json}"],
                    jsonio.valuation_to_json(mf.extract_valuation(flock))),
            CliCall(["check-flock", "--from-toric", "{rep.json}", "--radius", "1"],
                    jsonio.flock_report_to_json(mf.check_flock_axioms(flock, 1))),
            CliCall(["toric-matroid-at", "{rep.json}", "--alpha=" + ",".join(map(str, alpha))],
                    jsonio.matroid_to_json(mf.toric_matroid_at(rep, alpha))),
        ]
        return plan


# ---------------------------------------------------------------------------
# frobenius_tangent

def _example_coords(p, g, c):
    """The paper's four-coordinate example (s, t, s+t, s+c t^(p^g))."""
    return (((0, 0, 1),), ((1, 0, 1),), ((0, 0, 1), (1, 0, 1)), ((0, 0, 1), (1, g, c)))


EXAMPLE_VARIANTS = [(2, 2, 1)] + [(p, g, c) for g in range(1, 13) for p in (2, 3)
                                  for c in range(1, p) if (p, g, c) != (2, 2, 1)]


def check_ff_doc(report, radius):
    """The document ``matflock check-ff`` prints for a report."""
    doc = {"valid": report.ok, "radius": radius,
           "ff1": {"checked": report.ff1_checked, "failed": report.ff1_failed},
           "ff2": {"checked": report.ff2_checked, "failed": report.ff2_failed}}
    if report.violation is not None:
        alpha, move, left, right = report.violation
        doc["violation"] = {"alpha": list(alpha), "move": move,
                            "left": [list(r) for r in left],
                            "right": [list(r) for r in right]}
    return doc


class FrobeniusTangent:
    name = "frobenius_tangent"
    round_seconds = 8.6  # nominal seconds of one round; see run.py
    why = ("the per-point tangent oracle does nearly all the work and the "
           "vectorized window kernel none")
    # (n, m) of the random parametrizations, plus one variant of the example.
    # The eight (4,1) ones hold both the median and the tail instance of a
    # run: their times vary little from draw to draw, those of (3,3) fivefold
    recipe = ([(3, 1)] * 2 + [(3, 2)] * 2 + [(3, 3)] * 2 + [(4, 1)] * 8
              + [(5, 1), (4, 2)])
    primes = (2, 3)
    verify_radius = 2
    check_radius = 2
    ff_radius = 1

    def __init__(self):
        self.rescues = 0

    def count_rescues(self, algebraic):
        """Count calls into the saturation rescue, so each instance records
        whether it needed one.  This counter is the only instrumentation
        left on when tracing is off; it costs one increment per rescue."""
        rescue = algebraic._saturated_tangent

        def counted(*args, **kwargs):
            self.rescues += 1
            return rescue(*args, **kwargs)
        algebraic._saturated_tangent = counted

    def _instance(self, mf, p, m, coords, example):
        param = mf.LinearizedParam(p, m, [list(t) for t in coords])
        n = len(coords)
        expect = ref.tadic_minor_valuation(p, m, coords)

        def run():
            before = self.rescues
            flock = mf.flock_from_linearized(param)
            nu = mf.extract_valuation(flock, verify_radius=self.verify_radius)
            report = mf.check_flock_axioms(flock, self.check_radius)
            ff = mf.check_frobenius_axioms(param, self.ff_radius)
            size["rescues"] = self.rescues - before
            return nu, report, ff

        def check(out):
            nu, report, ff = out
            return _first(_is(nu.finite, expect, "extracted vs T-adic minor valuation"),
                          _is(report.ok, True, "flock axioms"),
                          _is(ff.ok, True, "Frobenius flock axioms"))
        size = {"n": n, "m": m, "p": p, "d": next(iter(expect)).bit_count(),
                "bases": len(expect), "radius": self.check_radius, "example": example}
        return Instance("linearized", size, run, check)

    def _random(self, mf, rng, seen, n, m, p):
        def draw(r):
            coords = gen.random_param(r, p, m, n)
            if not ref.independent_rows(p, m, coords):
                return None, None                       # rank 0
            return ("linearized", p, m, coords), coords
        return self._instance(mf, p, m, _fresh(rng, seen, draw), False)

    def _example(self, mf, seen):
        """The next unused variant (p, g, c), the paper's own (2, 2, 1) first.
        The order is fixed, so every run has the same mix of variants."""
        for p, g, c in EXAMPLE_VARIANTS:
            key = ("linearized", p, 2, _example_coords(p, g, c))
            if key not in seen:
                seen.add(key)
                return self._instance(mf, p, 2, key[3], True)
        raise RuntimeError("more batches than example variants")

    def batch(self, mf, rng, seen):
        # p alternates within each size, so every batch has the same mix
        return ([self._random(mf, rng, seen, n, m, self.primes[k % 2])
                 for k, (n, m) in enumerate(self.recipe)]
                + [self._example(mf, seen)])

    def warmup(self, mf, rng, seen):
        return [self._random(mf, rng, seen, n, m, 3) for n, m in ((3, 2), (4, 1))]

    def cli(self, mf, jsonio, rng):
        coords = _example_coords(2, 2, 1)     # the paper's example, as printed
        param = mf.LinearizedParam(2, 2, [list(t) for t in coords])
        flock = mf.flock_from_linearized(param)
        alpha = (0, -2, -2, 0)
        plan = CliPlan({"param.json": jsonio.linearized_to_json(param)})
        plan.calls = [
            CliCall(["flock-from-linearized", "{param.json}",
                     "--alpha=" + ",".join(map(str, alpha))],
                    jsonio.matroid_to_json(flock.matroid_at(alpha))),
            CliCall(["extract-valuation", "--from-linearized", "{param.json}"],
                    jsonio.valuation_to_json(mf.extract_valuation(flock))),
            CliCall(["check-flock", "--from-linearized", "{param.json}", "--radius", "2"],
                    jsonio.flock_report_to_json(mf.check_flock_axioms(flock, 2))),
            CliCall(["check-ff", "{param.json}", "--radius", "1"],
                    check_ff_doc(mf.check_frobenius_axioms(param, 1), 1)),
        ]
        return plan


# ---------------------------------------------------------------------------
# cells_convex

RIGIDITY_KINDS = {"fano": "rigid", "nonfano": "not_rigid", "U(2,4)": "not_rigid",
                  "U(3,6)": "not_rigid", "lazarson(3)": "rigid"}


class CellsConvex:
    name = "cells_convex"
    round_seconds = 10.3  # nominal seconds of one round; see run.py
    why = ("box scans (leaders, cells) and exhaustive pair scans (convexity, "
           "exchange constraints) do the work")
    # leader scans: (n, d, spread); the two big ones scan 0.4-0.5 M window
    # points, the spread-2 one shows how the scan scales with the spread
    leaders = [(5, 2, 3), (6, 3, 1), (5, 3, 2)]
    # convexity: (n, d, half-width of the dual box).  Six 3-dimensional
    # boxes make one class of similar instances wide enough to hold both the
    # median and the tail instance of a run, so neither lands on the edge
    # between two sizes and jumps with the seed
    convex = [(3, 1, 3)] * 3 + [(3, 2, 3)] * 3 + [(4, 2, 2)]
    # lazarson(3) takes as long as the rest of a batch: it runs in every
    # other batch, so that two rounds fit the run length
    every_other = "lazarson(3)"

    def __init__(self):
        self.batches = 0

    def _valuation(self, rng, seen, n, d, spread):
        def draw(r):
            values = gen.random_valuation(r, n, d, vmax=spread)
            if max(values.values()) != spread:
                return None, None
            return _table_key("valuation", n, d, values), values
        return _fresh(rng, seen, draw)

    def _leaders(self, mf, rng, seen, n, d, spread):
        values = self._valuation(rng, seen, n, d, spread)
        nu = mf.Valuation(range(1, n + 1), d, values)

        def run():
            return (mf.enumerate_leaders(nu), mf.zero_dimensional_cells(nu),
                    mf.is_trivial(nu))

        def check(out):
            scan, cells, triv = out
            reps = {alpha for _, alpha in scan.leaders}
            return _first(
                _is(scan.complete, True, "leader scan complete"),
                next((f"leader at {a}" for M, a in scan.leaders
                      if M.masks != ref.argmax_masks(values, a)), None),
                None if set(cells) <= reps else "a cell vertex is not a leader",
                None if not triv.trivial
                or ref.argmax_masks(values, triv.alpha) == set(values)
                else "triviality witness does not realize the support")
        R = (n - 1) * spread + 1
        size = {"n": n, "d": d, "bases": len(values), "spread": spread,
                "radius": R, "points": (2 * R + 1) ** (n - 1)}
        return Instance("leaders", size, run, check)

    def _convex(self, mf, rng, seen, n, d, w):
        values = self._valuation(rng, seen, n, d, 3)
        nu = mf.Valuation(range(1, n + 1), d, values)
        lo, hi = (-w,) * n, (w,) * n

        def run():
            f = mf.valuation_point_function(nu)
            g = mf.fenchel_dual(f, lo, hi)
            return g, mf.check_lconvex(g), mf.check_mconvex(f)

        def check(out):
            g, lconvex, mconvex = out
            return _first(_is(g.values, ref.point_function_dual(values, n, lo, hi),
                              "Fenchel dual"),
                          _is(lconvex.ok, True, "dual is L-convex"),
                          _is(mconvex.ok, True, "point function is M-convex"))
        size = {"n": n, "d": d, "bases": len(values), "radius": w,
                "points": (2 * w + 1) ** n}
        return Instance("convex", size, run, check)

    def _rigidity(self, mf, rng, seen, name):
        n, masks = gen.RIGIDITY_MATROIDS[name]

        def draw(r):
            ground, bases = gen.relabelled_bases(r, n, masks)
            return ("rigidity", name, ground), (ground, bases)
        M = mf.Matroid.from_bases(*_fresh(rng, seen, draw))

        def run():
            return mf.rigidity_certificate(M)

        def check(verdict):
            if verdict.kind != RIGIDITY_KINDS[name]:
                return f"{name}: verdict {verdict.kind}, known {RIGIDITY_KINDS[name]}"
            if verdict.kind == "not_rigid":
                w = verdict.witness
                if set(w.finite) != set(M.masks) or not gen.exchange_ok(n, w.finite):
                    return f"{name}: witness is not a valuation of the matroid"
            return None
        size = {"n": n, "d": M.d, "bases": len(masks), "matroid": name}
        return Instance("rigidity", size, run, check)

    def batch(self, mf, rng, seen):
        names = [name for name in RIGIDITY_KINDS
                 if name != self.every_other or self.batches % 2 == 0]
        self.batches += 1
        return ([self._leaders(mf, rng, seen, *spec) for spec in self.leaders]
                + [self._convex(mf, rng, seen, *spec) for spec in self.convex]
                + [self._rigidity(mf, rng, seen, name) for name in names])

    def warmup(self, mf, rng, seen):
        return [self._leaders(mf, rng, seen, 5, 2, 1), self._convex(mf, rng, seen, 3, 1, 2),
                self._rigidity(mf, rng, seen, "fano"), self._rigidity(mf, rng, seen, "U(2,4)")]

    def cli(self, mf, jsonio, rng):
        values = self._valuation(rng, set(), 4, 2, 2)
        nu = mf.Valuation(range(1, 5), 2, values)
        f = mf.valuation_point_function(nu)
        lo, hi = (-2,) * 4, (2,) * 4
        leaders = jsonio.leaders_to_json(mf.enumerate_leaders(nu))
        leaders["zero_dimensional_cells"] = [list(c) for c in mf.zero_dimensional_cells(nu)]
        plan = CliPlan({"nu.json": jsonio.valuation_to_json(nu),
                        "f.json": jsonio.window_function_to_json(f)})
        plan.calls = [
            CliCall(["leaders", "{nu.json}"], leaders),
            CliCall(["fenchel", "{f.json}", "--lo=" + ",".join(map(str, lo)),
                     "--hi", ",".join(map(str, hi))],
                    jsonio.window_function_to_json(mf.fenchel_dual(f, lo, hi))),
            CliCall(["rigidity", "--name", "fano"],
                    jsonio.rigidity_to_json(mf.rigidity_certificate(mf.fano_matroid()))),
            CliCall(["cells", "{nu.json}", "--beta", "0,0,0,0"],
                    jsonio.cells_to_json(mf.cell_inequalities(nu, (0, 0, 0, 0)))),
        ]
        return plan


WORKLOADS = {w.name: w for w in (ValuationRoundtrip, ToricWide, FrobeniusTangent, CellsConvex)}
