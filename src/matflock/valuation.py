"""Matroid valuations nu : C(E, d) -> Z ∪ {∞} and their derived objects.

A valuation stores only its finite values; every unlisted d-subset is
infinite.  The induced matroid at an integer vector alpha collects the
d-subsets maximizing e_B . alpha - nu(B), and the cells of a valuation are
the alcoved polyhedra where that argmax set contains a reference one.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Optional

from .lattice import INF, as_int, as_ints
from .matroid import (AxiomCheck, VALID, GroundSet, Matroid, _components, _connected,
                      _exchange_failure, _raise_unless, _single_exchanges, _write, record)


@record
class Valuation(GroundSet):
    """A map from d-subsets of the ground set to Z ∪ {∞}.  A record: ``ground``,
    ``d`` and the read-only ``finite`` cannot be assigned or deleted, so a stored
    verdict stays true.  d and the masks are read by ``lattice.as_ints``."""
    ground: tuple
    d: int
    finite: dict

    def __post_init__(self):
        GroundSet.__init__(self, self.ground)
        d = as_int(self.d, "rank")
        if not 0 <= d <= len(self.ground):
            raise ValueError("rank out of range")
        fin = {}
        for mask, val in zip(as_ints(self.finite, "basis mask"), self.finite.values()):
            if mask.bit_count() != d:
                raise ValueError("finite value on a subset of the wrong size")
            if mask >> len(self.ground):
                raise ValueError("subset outside the ground set")
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"finite values must be ints, got {val!r}")
            fin[mask] = val
        _write(self, "d", d)
        _write(self, "finite", MappingProxyType(fin))
        _write(self, "_axioms", None)   # check_valuation_axioms's verdict

    @classmethod
    def from_values(cls, ground, d: int, values) -> "Valuation":
        """Build from (subset, value) pairs, each subset d distinct labels of
        ``ground``; INF values are dropped, repeated subsets and non-ints refused."""
        labelled = GroundSet(ground)
        listed = {}
        items = values.items() if isinstance(values, dict) else values
        for subset, val in items:
            mask = labelled._sized_mask(subset, d)
            if mask in listed:
                raise ValueError(f"subset {sorted(subset)} listed twice")
            listed[mask] = val
        return cls(labelled.ground, d, {m: v for m, v in listed.items() if v != INF})

    # -- accessors -----------------------------------------------------------

    def value(self, subset):
        return self.finite.get(self._sized_mask(subset, self.d), INF)

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

    def __hash__(self):     # finite, a read-only mapping, has no hash
        return hash((self.ground, self.d, tuple(sorted(self.finite.items()))))

    def __repr__(self):
        return f"Valuation(n={len(self.ground)}, d={self.d}, |support|={len(self.finite)})"


# ---------------------------------------------------------------------------
# axioms

def check_valuation_axioms(nu: Valuation) -> AxiomCheck:
    """(V1) some finite value; (V2) the valuated exchange inequality.

    The witness of a (V2) failure is (B, B', i) with no feasible j.  The
    first call stores the verdict on nu; later calls return it.
    """
    if nu._axioms is None:
        if not nu.finite:
            verdict = AxiomCheck(False, "V1", None)
        else:
            witness = _exchange_failure(nu.finite, nu.ground)
            verdict = VALID if witness is None else AxiomCheck(False, "V2", witness)
        _write(nu, "_axioms", verdict)
    return nu._axioms


def support_matroid(nu: Valuation) -> Matroid:
    """The matroid whose bases are the finite-valued d-subsets."""
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    return Matroid(nu.ground, nu.finite.keys())


# ---------------------------------------------------------------------------
# the induced matroids M^nu_alpha and the gauge g^nu

def _check_alpha(owner, alpha) -> tuple[int, ...]:
    """alpha as ints (``lattice.as_ints``), one per element of ``owner.ground``."""
    alpha = as_ints(alpha, "alpha entry")
    if len(alpha) != len(owner.ground):
        raise ValueError("alpha has the wrong length")
    return alpha


def _scores(nu: Valuation, alpha) -> dict[int, int]:
    """{mask: e_B . alpha - nu(B)} over the finite bases B, alpha checked first."""
    alpha = _check_alpha(nu, alpha)
    if not nu.finite:
        raise ValueError("valuation violates (V1): no finite value")
    return {mask: sum(a for i, a in enumerate(alpha) if mask >> i & 1) - val
            for mask, val in nu.finite.items()}


def g_value(nu: Valuation, alpha) -> int:
    """g(alpha) = max over finite B of e_B . alpha - nu(B)."""
    return max(_scores(nu, alpha).values())


def optimal_masks(nu: Valuation, alpha) -> frozenset[int]:
    """Basis masks of M^nu_alpha (the argmax set of e_B . alpha - nu(B))."""
    scores = _scores(nu, alpha)
    best = max(scores.values())
    return frozenset(mask for mask, s in scores.items() if s == best)


def matroid_at(nu: Valuation, alpha) -> Matroid:
    """The matroid M^nu_alpha; always of rank d for a valid valuation."""
    return Matroid(nu.ground, optimal_masks(nu, alpha))


# ---------------------------------------------------------------------------
# minors, dual, equivalence

def delete_element(nu: Valuation, e) -> Valuation:
    """Restriction to d-subsets avoiding e; e must not be a coloop."""
    return _element_minor(nu, e, False)


def contract_element(nu: Valuation, e) -> Valuation:
    """B -> nu(B + e) on (d-1)-subsets of E - e; e must not be a loop."""
    return _element_minor(nu, e, True)


def _element_minor(nu: Valuation, e, contract: bool) -> Valuation:
    """The bases holding e (``contract``) or missing it, on E - e; refused if none do."""
    bit = nu.mask_of([e])
    vals = [(nu.labels_of(mask & ~bit), v) for mask, v in nu.finite.items()
            if bool(mask & bit) == contract]
    if not vals:
        raise ValueError(f"{e!r} is a {'loop' if contract else 'coloop'} of the support matroid")
    return Valuation.from_values([x for x in nu.ground if x != e], nu.d - contract, vals)


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
    from . import linalg
    rhs = [v - other.finite[mask] for mask, v in nu.finite.items()]
    sol = linalg.rat_solve(_incidence_rows(nu.finite, len(nu.ground)), rhs)
    return None if sol is None else tuple(sol)


def _incidence_rows(masks, n: int):
    """The 0/1 incidence vector e_B of each basis mask, as int rows."""
    return [[m >> i & 1 for i in range(n)] for m in masks]


# ---------------------------------------------------------------------------
# triviality

@record
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
    """Decide whether nu is trivial: nu(B) = e_B . alpha on the support for
    some rational alpha.  For d = 0 (B = ∅, e_B . alpha = 0) only the value
    0 is.  For d >= 1 it means that nu(B) - e_B . alpha is constant on the
    support for an integral alpha (c/d per entry absorbs a constant c), so
    that M_alpha is the support matroid: that alpha is returned, (0, 0, 0)
    for nu = 5 on every basis of U(2, 3).  It exists exactly when the
    difference constraints of the single exchanges inside the support are
    feasible: by local optimality the support matroid is then optimal at
    their solution.  Shortest paths decide them and certify the alpha
    returned.  That argument needs (V2): without it a support that single
    exchanges do not connect, such as {12, 34}, has no constraints at all.
    So a map that fails (V1)/(V2) raises ValueError.
    """
    _raise_unless(check_valuation_axioms(nu), "valuation")
    alpha = _integral_point(len(nu.ground), _difference_constraints(nu, nu.support_masks))
    # a value on the empty set (rank 0) is trivial only when it is e_∅ . alpha = 0;
    # optimal_masks refuses an empty valuation
    if alpha is None or nu.finite.get(0):
        return TrivialityResult(False)
    if optimal_masks(nu, alpha) != nu.support_masks:
        raise ValueError("the support is not connected under single exchanges: "
                         "not a valuation")
    return TrivialityResult(True, alpha)


# ---------------------------------------------------------------------------
# circuit-hyperplane style valuations

def circuit_hyperplane_valuation(M: Matroid, B0, v: int) -> Valuation:
    """nu(B0) = v >= 0, 0 on the other bases, ∞ off the support.

    Requires every B0 - i + j to be a basis; the failing exchange pair is
    reported otherwise.
    """
    v = as_int(v, "v", 0)
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

@record
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

@record
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


def _window_radius(nu: Valuation, window_radius) -> int:
    """R: the default for None, else a nonnegative int (``lattice.as_int``)."""
    if window_radius is None:
        return default_leader_radius(nu)
    return as_int(window_radius, "window radius", 0)


def enumerate_leaders(nu: Valuation, window_radius: Optional[int] = None) -> LeaderScan:
    """Scan {alpha : alpha_{i0} = 0, |alpha_i| <= R} for distinct matroids.

    Representatives are the lexicographically smallest window points.  The
    default window radius is a heuristic, and ``complete`` checks only that
    the leaders found cover the support (see ``LeaderScan``); it does not
    certify that every leader was found.  A leader is a matroid only under
    (V2), so a map that fails (V1)/(V2) raises ValueError.
    """
    _raise_unless(check_valuation_axioms(nu), "valuation")
    n = len(nu.ground)
    R = _window_radius(nu, window_radius)
    from . import window
    reps = window._leader_reps(nu.finite_items(), n, R)
    leaders = []
    seen_bases: set[int] = set()
    for masks, alpha in reps.items():
        seen_bases |= masks
        leaders.append((Matroid._on(nu, masks, nu.d), alpha))
    complete = seen_bases == set(nu.finite)
    leaders.sort(key=lambda t: t[1])
    return LeaderScan(tuple(leaders), complete, R)


# ---------------------------------------------------------------------------
# cell vertices

def _first_tie(scored, opt: int, optimal: set[int], S: int):
    """The first tie along alpha + t e_S, t > 0, from a point with scores
    ``scored`` ((mask, e_B . alpha - nu(B)) pairs), maximum ``opt`` and
    argmax masks ``optimal``.

    With k the most elements of S in an optimal basis, a basis B with
    |B & S| > k ties the optimum at t = (opt - s_B) / (|B & S| - k).  Returns
    the least such t and the argmax family there (the optimal bases with k
    elements in S and the bases that tie), or None when no basis has more
    than k elements in S.
    """
    k = max((B & S).bit_count() for B in optimal)
    gap, step, ties = 0, 0, []
    for B, s in scored:
        c = (B & S).bit_count() - k
        if c > 0:
            g = opt - s
            if not ties or g * step < gap * c:
                gap, step, ties = g, c, [B]
            elif g * step == gap * c:
                ties.append(B)
    if not ties:
        return None
    from fractions import Fraction
    face = {B for B in optimal if (B & S).bit_count() == k}
    face.update(ties)
    return Fraction(gap, step), face


def _vertices(nu: Valuation) -> set[tuple[int, ...]]:
    """Every vertex of a valuation's cells, normalized to alpha_{i0} = 0:
    the alpha with M_alpha connected, found by a walk from vertex to vertex.

    The start moves from alpha = 0 while M_alpha has two or more
    components: along e_S for a component S to the first tie of a basis
    with more elements in S, or along e_{E-S} (that is, -e_S up to the
    all-ones vector) when there is none.  M_alpha is then a proper face of
    the new matroid, so the number of components falls.  When neither
    direction meets a basis, S separates the support and no M_alpha is
    connected.

    From a vertex v the walk goes along e_S, for every proper nonempty
    S, to the first tie (``_first_tie``); where that t is an integer and the
    matroid there is connected, it has reached a vertex.  This finds every
    vertex, by the duality between the cells and the regular matroid
    subdivision that nu induces on the support's polytope (Speyer,
    *Tropical linear spaces*, 2008), which needs (V2):
    - vertices are dual to the maximal cells P(M_v), and bounded edges
      to interior facets: the edge dual to F is the set of alpha whose
      M_alpha contains F, and it joins the two vertices whose cells share F;
    - every facet of a matroid polytope has an outer normal e_S modulo the
      all-ones vector, so from v along that e_S the argmax family is F
      until the first tie, which is the edge's other end;
    - the dual graph of a polyhedral subdivision of a convex polytope is
      connected, so crossing every interior facet reaches every maximal
      cell;
    - a direction that is not an edge lands on a point that is not a
      vertex, or on a vertex that the walk reaches anyway: either is
      harmless;
    - vertices are integral: at a vertex, alpha_i - alpha_j = nu(B) -
      nu(B - i + j) along the exchanges of the connected M_v, which fix
      alpha up to the all-ones vector, so a tie at a non-integral t is no
      vertex.
    The walk takes (vertices) x (2^n - 2) first ties over the m finite
    values, whatever the window radius, with ints and Fractions only.
    """
    n = len(nu.ground)
    full = (1 << n) - 1
    items = [(mask, [i for i in range(n) if mask >> i & 1], val)
             for mask, val in nu.finite_items()]

    def at(alpha):
        scored = [(mask, sum(alpha[i] for i in elems) - val) for mask, elems, val in items]
        opt = max(s for _, s in scored)
        return scored, opt, {mask for mask, s in scored if s == opt}

    alpha = [0] * n
    scored, opt, optimal = at(alpha)
    while len(parts := _components(optimal, n)) > 1:
        for S in (parts[0], full ^ parts[0]):
            tie = _first_tie(scored, opt, optimal, S)
            if tie is not None:
                break
        else:
            return set()
        alpha = [a + tie[0] if S >> i & 1 else a for i, a in enumerate(alpha)]
        scored, opt, optimal = at(alpha)
    start = tuple(int(a - alpha[0]) for a in alpha)
    seen = {start}
    queue = [start]
    for v in queue:
        scored, opt, optimal = at(v)
        for S in range(1, full):
            tie = _first_tie(scored, opt, optimal, S)
            if tie is None or tie[0].denominator != 1 or not _connected(tie[1], n):
                continue
            w = [a + tie[0].numerator if S >> i & 1 else a for i, a in enumerate(v)]
            w = tuple(a - w[0] for a in w)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def zero_dimensional_cells(nu: Valuation, window_radius: Optional[int] = None):
    """Vertices of the cell decomposition, normalized to alpha_{i0} = 0, in
    the window |alpha_i| <= R of ``enumerate_leaders`` (same default), sorted.

    They are the alpha with M_alpha connected, the leader representatives
    of the scan that are vertices, but found by a walk from vertex to vertex
    (``_vertices``) that scans no window.  The walk needs (V2), so a map
    that fails (V1)/(V2) raises ValueError.
    """
    _raise_unless(check_valuation_axioms(nu), "valuation")
    R = _window_radius(nu, window_radius)
    return sorted(v for v in _vertices(nu) if all(abs(a) <= R for a in v))
