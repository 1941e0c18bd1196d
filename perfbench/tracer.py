"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function at every name the library
holds it under (module globals, rebound imports such as
``flock.optimal_masks``, the package namespace, and ``MatroidFlock.masks_at``
on the class), so calls made inside the library land in their spans too.
Spans stay in memory, each with its parent, and are written out at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

# (module, attribute, span name); a dotted attribute is a method on a class
TRACED = [
    ("window", "score_ids", "window.score_ids"),
    ("window", "box_array", "window.box_array"),
    ("window", "iter_box_chunks", "window.iter_box_chunks"),
    ("flock", "check_flock_axioms", "flock.check_flock_axioms"),
    ("flock", "extract_valuation", "flock.extract_valuation"),
    ("flock", "window_ids", "flock.window_ids"),
    ("flock", "_window_mismatch", "flock._window_mismatch"),
    ("flock", "flock_from_valuation", "flock.flock_from_valuation"),
    ("flock", "MatroidFlock.masks_at", "flock.masks_at"),
    ("algebraic", "linearized_shift", "algebraic.linearized_shift"),
    ("algebraic", "linearized_tangent", "algebraic.linearized_tangent"),
    ("algebraic", "frobenius_window", "algebraic.frobenius_window"),
    ("algebraic", "validate_frobenius_window", "algebraic.validate_frobenius_window"),
    ("algebraic", "check_frobenius_axioms", "algebraic.check_frobenius_axioms"),
    ("algebraic", "_saturated_tangent", "algebraic._saturated_tangent"),
    ("algebraic", "lindstrom_toric", "algebraic.lindstrom_toric"),
    ("algebraic", "flock_from_toric", "algebraic.flock_from_toric"),
    ("algebraic", "flock_from_linearized", "algebraic.flock_from_linearized"),
    ("algebraic", "generic_rank", "algebraic.generic_rank"),
    ("linalg", "gf_rank", "linalg.gf_rank"),
    ("linalg", "gf_rref", "linalg.gf_rref"),
    ("linalg", "polymat_rank", "linalg.polymat_rank"),
    ("linalg", "det_int", "linalg.det_int"),
    ("linalg", "rat_rref", "linalg.rat_rref"),
    ("linalg", "rat_kernel", "linalg.rat_kernel"),
    ("matroid", "matroid_from_matrix", "matroid.matroid_from_matrix"),
    ("valuation", "optimal_masks", "valuation.optimal_masks"),
    ("valuation", "check_valuation_axioms", "valuation.check_valuation_axioms"),
    ("valuation", "enumerate_leaders", "valuation.enumerate_leaders"),
    ("valuation", "zero_dimensional_cells", "valuation.zero_dimensional_cells"),
    ("valuation", "is_trivial", "valuation.is_trivial"),
    ("discrete_convex", "check_lconvex", "discrete_convex.check_lconvex"),
    ("discrete_convex", "check_mconvex", "discrete_convex.check_mconvex"),
    ("discrete_convex", "fenchel_dual", "discrete_convex.fenchel_dual"),
    ("rigidity", "dw_constraints", "rigidity.dw_constraints"),
    ("rigidity", "rigidity_certificate", "rigidity.rigidity_certificate"),
    ("cli", "main", "cli.main"),
    # reading and parsing CLI input files
    ("cli", "_load", "jsonio.load"),
    ("jsonio", "valuation_from_json", "jsonio.load"),
    ("jsonio", "toric_from_json", "jsonio.load"),
    ("jsonio", "linearized_from_json", "jsonio.load"),
    ("jsonio", "matroid_from_json", "jsonio.load"),
    ("jsonio", "matrix_from_json", "jsonio.load"),
    ("jsonio", "window_function_from_json", "jsonio.load"),
]

GENERATORS = {"window.iter_box_chunks"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans while ``active``; install/uninstall patch the library."""

    def __init__(self, package):
        self.package = package
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one entry per span, in order of completion
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.instance = array("i")
        self.current_instance = -1
        self._next_id = 0
        self._stack: list[int] = [-1]
        self._child_time: list[float] = [0.0]
        self.span_ids = array("q")
        # name -> [calls, self seconds, errors]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._patched: list[tuple] = []

    # -- counters fed by hooks --------------------------------------------

    def count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _hooks(self, span_name, args, kwargs):
        """Counts read from the arguments before a call; returns what
        ``_after`` needs."""
        if span_name == "window.score_ids":
            self.count("window.score_ids.points", len(args[2]))
            self.count("window.score_ids.wide_calls", int(len(args[0]) > 63))
        elif span_name == "flock.check_flock_axioms":
            radius = _arg(args, kwargs, 1, "radius")
            self.count("flock.check_flock_axioms.points",
                       (2 * radius + 1) ** len(args[0].ground))
        elif span_name == "algebraic.lindstrom_toric":
            cache = sys.modules[self.package.__name__ + ".algebraic"]._lindstrom_cache
            self.count("algebraic.lindstrom_toric.cache_hits", int(args[0] in cache))
        elif span_name == "flock.masks_at":
            return len(args[0]._memo)
        return None

    def _after(self, span_name, args, before, result):
        """Counts read from the result and the state after a call."""
        if span_name == "flock.masks_at":
            self.count("flock.oracle_evals", len(args[0]._memo) - before)
        elif span_name == "valuation.enumerate_leaders":
            n = len(args[0].ground)
            self.count("valuation.enumerate_leaders.points",
                       (2 * result.radius + 1) ** (n - 1) if n > 1 else 1)
        elif span_name == "discrete_convex.check_lconvex":
            self.count("discrete_convex.check_lconvex.pairs", result.submodular_checked)

    # -- span bookkeeping -----------------------------------------------------

    def _wrap(self, fn, span_name):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_id[span_name]
        stat = self.stats.setdefault(span_name, [0, 0.0, 0])
        generator = span_name in GENERATORS
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = self._hooks(span_name, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            self._child_time.append(0.0)
            failed = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # consume inside the span so the work is charged here
                    result = iter(list(result))
                return result
            except BaseException:
                failed = 1
                raise
            finally:
                t1 = clock()
                self._stack.pop()
                children = self._child_time.pop()
                dur = t1 - t0
                self._child_time[-1] += dur
                stat[0] += 1
                stat[1] += dur - children
                stat[2] += failed
                self.span_ids.append(sid)
                self.parent.append(parent)
                self.name.append(nid)
                self.start.append(t0)
                self.end.append(t1)
                self.error.append(failed)
                self.instance.append(self.current_instance)
                if not failed:
                    self._after(span_name, args, before, result)
        return traced

    def install(self):
        pkg = self.package
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == pkg.__name__
                                         or name.startswith(pkg.__name__ + "."))]
        for mod_name, attr, span_name in TRACED:
            owner = sys.modules[f"{pkg.__name__}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, span_name))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def self_time(self, span_name: str) -> float:
        return self.stats.get(span_name, [0, 0.0, 0])[1]

    def write_spans(self, path, limit: int) -> int:
        """Write whole instances' spans, in order, while at most ``limit``
        spans have been written; returns how many were.  One tab-separated
        line per span: id, parent, instance, name, start and end
        (perf_counter seconds), error flag."""
        count = len(self.name)
        if count > limit:
            last = self.instance[limit]
            count = limit
            while count and self.instance[count - 1] == last:
                count -= 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tinstance\tname\tstart\tend\terror\n")
            for k in range(count):
                fh.write(f"{self.span_ids[k]}\t{self.parent[k]}\t{self.instance[k]}\t"
                         f"{self.names[self.name[k]]}\t{self.start[k]!r}\t"
                         f"{self.end[k]!r}\t{self.error[k]}\n")
        return count
