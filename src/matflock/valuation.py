"""Matroid valuations nu : C(E, d) -> Z ∪ {∞} and their derived objects.

A valuation stores only its finite values; every unlisted d-subset is
infinite.  The induced matroid at an integer vector alpha collects the
d-subsets maximizing e_B . alpha - nu(B), and the cells of a valuation are
the alcoved polyhedra where that argmax set contains a reference one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .lattice import INF
from .matroid import (AxiomCheck, VALID, Matroid, _exchange_failure, _single_exchanges,
                      canonical_ground)


class Valuation:
    """A map from d-subsets of the ground set to Z ∪ {∞}."""

    def __init__(self, ground, d: int, finite: dict[int, int]):
        self.ground = canonical_ground(ground)
        self.d = int(d)
        if not 0 <= self.d <= len(self.ground):
            raise ValueError("rank out of range")
        self._index = {e: i for i, e in enumerate(self.ground)}
        fin = {}
        for mask, val in finite.items():
            mask = int(mask)
            if mask.bit_count() != self.d:
                raise ValueError("finite value on a subset of the wrong size")
            if mask >> len(self.ground):
                raise ValueError("subset outside the ground set")
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"finite values must be ints, got {val!r}")
            fin[mask] = val
        self.finite = fin

    @classmethod
    def from_values(cls, ground, d: int, values) -> "Valuation":
        """Build from (subset, value) pairs; value INF entries are dropped."""
        ground = canonical_ground(ground)
        index = {e: i for i, e in enumerate(ground)}
        finite = {}
        items = values.items() if isinstance(values, dict) else values
        for subset, val in items:
            try:
                mask = sum(1 << index[e] for e in set(subset))
            except KeyError as exc:
                raise ValueError(f"unknown element {exc.args[0]!r}") from None
            if len(set(subset)) != d:
                raise ValueError(f"subset {sorted(subset)} does not have size {d}")
            if val == INF:
                continue
            finite[mask] = int(val)
        return cls(ground, d, finite)

    # -- accessors -----------------------------------------------------------

    def mask_of(self, subset) -> int:
        m = 0
        for e in subset:
            try:
                m |= 1 << self._index[e]
            except KeyError:
                raise ValueError(f"unknown element {e!r}") from None
        return m

    def labels_of(self, mask: int) -> tuple:
        return tuple(e for i, e in enumerate(self.ground) if mask >> i & 1)

    def value(self, subset):
        mask = self.mask_of(subset)
        if mask.bit_count() != self.d:
            raise ValueError(f"subset {sorted(subset)} does not have size {self.d}")
        return self.finite.get(mask, INF)

    def value_mask(self, mask: int):
        return self.finite.get(mask, INF)

    @property
    def support_masks(self) -> frozenset[int]:
        return frozenset(self.finite)

    @property
    def spread(self) -> int:
        """Max minus min over the finite values (0 when empty)."""
        if not self.finite:
            return 0
        vs = self.finite.values()
        return max(vs) - min(vs)

    def finite_items(self) -> list[tuple[int, int]]:
        return sorted(self.finite.items())

    def normalized(self) -> "Valuation":
        """Shift by a constant so the minimum finite value is 0."""
        if not self.finite:
            return self
        m = min(self.finite.values())
        return Valuation(self.ground, self.d, {k: v - m for k, v in self.finite.items()})

    def __eq__(self, other):
        return (isinstance(other, Valuation) and self.ground == other.ground
                and self.d == other.d and self.finite == other.finite)

    def __hash__(self):
        return hash((self.ground, self.d, tuple(sorted(self.finite.items()))))

    def __repr__(self):
        return f"Valuation(n={len(self.ground)}, d={self.d}, |support|={len(self.finite)})"


# ---------------------------------------------------------------------------
# axioms

def check_valuation_axioms(nu: Valuation) -> AxiomCheck:
    """(V1) some finite value; (V2) the valuated exchange inequality.

    The witness of a (V2) failure is (B, B', i) with no feasible j.
    """
    if not nu.finite:
        return AxiomCheck(False, "V1", None)
    witness = _exchange_failure(nu.finite, nu.ground)
    return VALID if witness is None else AxiomCheck(False, "V2", witness)


def support_matroid(nu: Valuation) -> Matroid:
    """The matroid whose bases are the finite-valued d-subsets."""
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    return Matroid(nu.ground, nu.finite.keys())


# ---------------------------------------------------------------------------
# the induced matroids M^nu_alpha and the gauge g^nu

def _check_alpha(nu: Valuation, alpha) -> tuple[int, ...]:
    alpha = tuple(alpha)
    if len(alpha) != len(nu.ground):
        raise ValueError("alpha has the wrong length")
    return alpha


def g_value(nu: Valuation, alpha) -> int:
    """g(alpha) = max over finite B of e_B . alpha - nu(B)."""
    alpha = _check_alpha(nu, alpha)
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    n = len(nu.ground)
    return max(
        sum(alpha[i] for i in range(n) if mask >> i & 1) - val
        for mask, val in nu.finite.items()
    )


def optimal_masks(nu: Valuation, alpha) -> frozenset[int]:
    """Basis masks of M^nu_alpha (the argmax set of e_B . alpha - nu(B))."""
    alpha = _check_alpha(nu, alpha)
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    n = len(nu.ground)
    best = None
    out = []
    for mask, val in nu.finite.items():
        s = sum(alpha[i] for i in range(n) if mask >> i & 1) - val
        if best is None or s > best:
            best = s
            out = [mask]
        elif s == best:
            out.append(mask)
    return frozenset(out)


def matroid_at(nu: Valuation, alpha) -> Matroid:
    """The matroid M^nu_alpha; always of rank d for a valid valuation."""
    return Matroid(nu.ground, optimal_masks(nu, alpha))


# ---------------------------------------------------------------------------
# minors, dual, equivalence

def delete_element(nu: Valuation, e) -> Valuation:
    """Restriction to d-subsets avoiding e; e must not be a coloop."""
    bit = nu.mask_of([e])
    if all(mask & bit for mask in nu.finite):
        raise ValueError(f"{e!r} is a coloop of the support matroid")
    keep = [x for x in nu.ground if x != e]
    vals = [(nu.labels_of(mask), v) for mask, v in nu.finite.items() if not mask & bit]
    return Valuation.from_values(keep, nu.d, vals)


def contract_element(nu: Valuation, e) -> Valuation:
    """B -> nu(B + e) on (d-1)-subsets of E - e; e must not be a loop."""
    bit = nu.mask_of([e])
    if not any(mask & bit for mask in nu.finite):
        raise ValueError(f"{e!r} is a loop of the support matroid")
    keep = [x for x in nu.ground if x != e]
    vals = [(nu.labels_of(mask & ~bit), v) for mask, v in nu.finite.items() if mask & bit]
    return Valuation.from_values(keep, nu.d - 1, vals)


def dual_valuation(nu: Valuation) -> Valuation:
    """B -> nu(E \\ B) on (n-d)-subsets."""
    full = (1 << len(nu.ground)) - 1
    vals = [(nu.labels_of(full ^ mask), v) for mask, v in nu.finite.items()]
    return Valuation.from_values(nu.ground, len(nu.ground) - nu.d, vals)


def equivalence_shift(nu: Valuation, other: Valuation):
    """A rational alpha with nu(B) = other(B) + e_B . alpha, or None.

    Differing supports rule equivalence out immediately.
    """
    if nu.ground != other.ground or nu.d != other.d:
        raise ValueError("valuations live on different ground sets")
    if nu.support_masks != other.support_masks:
        return None
    rhs = [v - other.finite[mask] for mask, v in nu.finite.items()]
    sol = linalg.rat_solve(_incidence_rows(nu.finite, len(nu.ground)), rhs)
    return None if sol is None else tuple(sol)


def _incidence_rows(masks, n: int):
    """The 0/1 incidence vector e_B of each basis mask, as int rows."""
    return [[m >> i & 1 for i in range(n)] for m in masks]


# ---------------------------------------------------------------------------
# triviality

@dataclass(frozen=True)
class TrivialityResult:
    trivial: bool
    alpha: Optional[tuple[int, ...]] = None

    def __bool__(self):
        return self.trivial


def _difference_constraints(nu: Valuation, base_masks) -> dict[tuple[int, int], int]:
    """Tightest constraints alpha_i - alpha_j >= c over exchanges out of base_masks."""
    n = len(nu.ground)
    tight: dict[tuple[int, int], int] = {}
    for mask in base_masks:
        v = nu.finite[mask]
        for i, j, other in _single_exchanges(mask, n):
            w = nu.value_mask(other)
            if w == INF:
                continue
            c = v - w
            key = (i, j)
            if key not in tight or c > tight[key]:
                tight[key] = c
    return tight


def _integral_point(n: int, constraints: dict[tuple[int, int], int]):
    """Integer point of {alpha_i - alpha_j >= c}, via shortest-path potentials.

    Returns None when the system is infeasible (a positive-weight cycle).
    """
    dist = [0] * n
    edges = [(i, j, -c) for (i, j), c in constraints.items()]
    for _ in range(n):
        changed = False
        for i, j, w in edges:
            if dist[i] + w < dist[j]:
                dist[j] = dist[i] + w
                changed = True
        if not changed:
            return tuple(dist)
    return None


def is_trivial(nu: Valuation) -> TrivialityResult:
    """Decide whether nu(B) = e_B . alpha on the support for some alpha.

    Solves the linear system exactly over Q; on success the rational witness
    is turned into an integral one with M^nu_alpha equal to the support
    matroid (the defining difference constraints are totally unimodular, so
    an integer point exists whenever a rational one does).
    """
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    n = len(nu.ground)
    if linalg.rat_solve(_incidence_rows(nu.finite, n), list(nu.finite.values())) is None:
        return TrivialityResult(False)
    alpha = _integral_point(n, _difference_constraints(nu, nu.support_masks))
    if alpha is None:
        raise AssertionError("rationally trivial valuation with infeasible cell")
    if optimal_masks(nu, alpha) != nu.support_masks:
        raise AssertionError("integral witness does not realize the support matroid")
    return TrivialityResult(True, alpha)


# ---------------------------------------------------------------------------
# circuit-hyperplane style valuations

def circuit_hyperplane_valuation(M: Matroid, B0, v: int) -> Valuation:
    """nu(B0) = v >= 0, 0 on the other bases, ∞ off the support.

    Requires every B0 - i + j to be a basis; the failing exchange pair is
    reported otherwise.
    """
    if v < 0:
        raise ValueError("v must be nonnegative")
    b0 = M.mask_of(B0)
    if b0 not in M.masks:
        raise ValueError(f"{sorted(B0)} is not a basis")
    for i, j, other in _single_exchanges(b0, len(M.ground)):
        if other not in M.masks:
            raise ValueError(
                f"exchange ({M.ground[i]!r}, {M.ground[j]!r}) leaves the bases")
    finite = {mask: (v if mask == b0 else 0) for mask in M.masks}
    return Valuation(M.ground, M.d, finite)


# ---------------------------------------------------------------------------
# cells

@dataclass(frozen=True)
class CellSystem:
    """Difference constraints cutting out the cell of a reference point.

    Each constraint (i, j, c) reads alpha_i - alpha_j >= c; membership is
    equivalent to the optimal-basis set at alpha containing the reference
    matroid's bases.
    """
    ground: tuple
    beta: tuple
    matroid: Matroid
    constraints: tuple[tuple[object, object, int], ...]

    def contains(self, alpha) -> bool:
        idx = {e: i for i, e in enumerate(self.ground)}
        alpha = tuple(alpha)
        return all(alpha[idx[i]] - alpha[idx[j]] >= c for i, j, c in self.constraints)


def cell_inequalities(nu: Valuation, beta) -> CellSystem:
    beta = _check_alpha(nu, beta)
    base = optimal_masks(nu, beta)
    tight = _difference_constraints(nu, base)
    cons = tuple(sorted(
        (nu.ground[i], nu.ground[j], c) for (i, j), c in tight.items()
    ))
    return CellSystem(nu.ground, beta, Matroid(nu.ground, base), cons)


# ---------------------------------------------------------------------------
# leaders

@dataclass(frozen=True)
class LeaderScan:
    """Distinct matroids seen in a normalized window, with representatives.

    ``complete`` records whether the union of the leaders' basis families
    equals the support: every basis is optimal somewhere in the window.
    That is necessary for every leader to have been seen, not sufficient: a
    leader can lie outside the window while its bases are optimal inside.
    """
    leaders: tuple[tuple[Matroid, tuple[int, ...]], ...]
    complete: bool
    radius: int

    def matroids(self) -> tuple[Matroid, ...]:
        return tuple(M for M, _ in self.leaders)


def default_leader_radius(nu: Valuation) -> int:
    return (len(nu.ground) - 1) * nu.spread + 1


def enumerate_leaders(nu: Valuation, window_radius: Optional[int] = None) -> LeaderScan:
    """Scan {alpha : alpha_{i0} = 0, |alpha_i| <= R} for distinct matroids.

    Representatives are the lexicographically smallest window points.  The
    default window radius is a heuristic, and ``complete`` checks only that
    the leaders found cover the support (see ``LeaderScan``); it does not
    certify that every leader was found.
    """
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    n = len(nu.ground)
    R = default_leader_radius(nu) if window_radius is None else int(window_radius)
    if R < 0:
        raise ValueError("window radius must be nonnegative")
    from . import window
    reps = window._leader_reps(nu.finite_items(), n, R)
    leaders = []
    seen_bases: set[int] = set()
    for masks, alpha in reps.items():
        seen_bases |= masks
        leaders.append((Matroid(nu.ground, masks), alpha))
    complete = seen_bases == set(nu.finite)
    leaders.sort(key=lambda t: t[1])
    return LeaderScan(tuple(leaders), complete, R)


def _leader_vertices(nu: Valuation, scan: LeaderScan):
    """The leader representatives of ``scan`` that are cell vertices."""
    from . import window
    reps = [rep for _, rep in scan.leaders]
    flags = window._vertex_flags(nu.finite_items(), len(nu.ground), reps)
    return sorted(rep for rep, vertex in zip(reps, flags.tolist()) if vertex)


def zero_dimensional_cells(nu: Valuation, window_radius: Optional[int] = None):
    """Vertices of the cell decomposition, normalized to alpha_{i0} = 0.

    A leader representative is a vertex exactly when no step alpha ± e_I
    (I a proper nonempty subset) keeps every reference basis optimal.
    """
    return _leader_vertices(nu, enumerate_leaders(nu, window_radius))
